import numpy as np
import pytest
from scipy.linalg import expm

from wzflow import noise, phase
from wzflow.errors import ConfigurationError
from wzflow.phase import HamiltonianSpec, PhaseState, scalar_potential


def pendulum_spec(eta=1.0, domain="euclidean"):
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    s, ds, d2s = scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
    return HamiltonianSpec(
        dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta, domain=domain
    )


def harmonic_spec(eta=0.0, sigma_linear=False):
    f, df, d2f = scalar_potential(
        lambda x: 0.5 * x ** 2, lambda x: x, lambda x: np.ones_like(x)
    )
    if sigma_linear:
        s, ds, d2s = scalar_potential(
            lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
        )
    else:
        s, ds, d2s = phase.ZERO_POTENTIAL
    return HamiltonianSpec(
        dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta
    )


class TestHamiltonianEval:
    def test_free_particle(self):
        spec = HamiltonianSpec(dim=2)
        p = np.array([1.0, 2.0])
        h0, h1, *_ = phase.hamiltonian_eval(spec, PhaseState(np.zeros(2), p))
        assert h0 == pytest.approx(2.5)
        assert h1 == 0.0

    def test_closed_form_arithmetic(self):
        spec = pendulum_spec(eta=1.0)
        h0, h1, dxh0, dph0, dxh1, dph1 = phase.hamiltonian_eval(
            spec, PhaseState([0.0], [2.0])
        )
        assert h0 == pytest.approx(3.0)
        assert h1 == pytest.approx(0.0)
        assert dxh1 == pytest.approx(1.0)
        assert np.all(dph1 == 0.0)

    def test_gradient_finite_differences(self):
        spec = pendulum_spec(eta=0.7)
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(100):
            x = rng.uniform(-3, 3, 1)
            p = rng.uniform(-3, 3, 1)
            fd = (spec.h0(x + h, p) - spec.h0(x - h, p)) / (2 * h)
            assert abs(fd - spec.grad_x_h0(x, p)[0]) < 1e-6


class TestWzFlow:
    def test_harmonic_period(self):
        spec = harmonic_spec(eta=0.0)
        T = 2 * np.pi
        path = noise.sample_brownian(seed=1, T=T, level=6)
        mesh = noise.WongZakaiMesh(path, delta=T * 2.0 ** -6)
        res = phase.wz_flow(spec, PhaseState([1.0], [0.0]), mesh, substeps_per_cell=99)
        assert np.abs(res.xs[-1] - 1.0) < 1e-8
        assert np.abs(res.ps[-1]) < 1e-8
        assert np.max(np.abs(res.h0 - res.h0[0])) <= 1e-9

    def test_linear_noise_closed_form(self):
        # f=0, sigma(x)=x: p(t) = p0 - eta * xi_delta(t)
        f0, df0, d2f0 = phase.ZERO_POTENTIAL
        s, ds, d2s = scalar_potential(
            lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
        )
        spec = HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=1.3)
        path = noise.sample_brownian(seed=2, T=1.0, level=6)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.wz_flow(spec, PhaseState([0.0], [0.5]), mesh, substeps_per_cell=4)
        xi, _ = noise.wz_eval(mesh, res.times)
        assert np.max(np.abs(res.ps[:, 0] - (0.5 - 1.3 * xi[:, 0]))) < 1e-10

    def test_substep_richardson(self):
        spec = pendulum_spec(eta=1.0)
        path = noise.sample_brownian(seed=3, T=1.0, level=5)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -3)
        state0 = PhaseState([0.3], [0.7])
        ref = phase.wz_flow(spec, state0, mesh, substeps_per_cell=64).final
        e = []
        for sub in (4, 8):
            r = phase.wz_flow(spec, state0, mesh, substeps_per_cell=sub).final
            e.append(np.hypot(r.x[0] - ref.x[0], r.p[0] - ref.p[0]))
        ratio = e[0] / e[1]
        assert 8 < ratio < 32


class TestStratFlow:
    def test_noise_off_conserves(self):
        spec = harmonic_spec(eta=0.0)
        path = noise.sample_brownian(seed=4, T=1.0, level=10)
        res = phase.strat_flow(spec, PhaseState([1.0], [0.0]), path, dt=2.0 ** -10)
        assert np.max(np.abs(res.h0 - res.h0[0])) < 1e-5

    def test_additive_noise_closed_form(self):
        f0 = phase.ZERO_POTENTIAL
        s, ds, d2s = scalar_potential(
            lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
        )
        spec = HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=0.8)
        path = noise.sample_brownian(seed=5, T=1.0, level=8)
        res = phase.strat_flow(spec, PhaseState([0.0], [0.2]), path, dt=2.0 ** -8)
        expect = 0.2 - 0.8 * path.values[:, 0]
        assert np.max(np.abs(res.ps[:, 0] - expect)) < 1e-10

    def test_poisson_commuting_conservation(self):
        # gtilde = g = I and sigma = f makes H1 proportional to H0; both
        # conserved along the limit flow
        f, df, d2f = scalar_potential(
            lambda x: 0.5 * x ** 2, lambda x: x, lambda x: np.ones_like(x)
        )
        spec = HamiltonianSpec(
            dim=1, f=f, df=df, d2f=d2f, sigma=f, dsigma=df, d2sigma=d2f,
            eta=0.1, tilde_metric=phase.IdentityMetric(),
        )
        path = noise.sample_brownian(seed=6, T=1.0, level=10)
        res = phase.strat_flow(spec, PhaseState([1.0], [0.0]), path, dt=2.0 ** -10)
        for series in (res.h0, res.h1):
            drift = np.max(np.abs(series - series[0])) / abs(series[0])
            assert drift <= 1e-6

    def test_batched_matches_scalar(self):
        spec = pendulum_spec(eta=1.0)
        path = noise.sample_brownian(seed=7, T=1.0, level=6, d_B=3)
        batched = phase.strat_flow(
            spec, PhaseState(np.zeros((3, 1)), np.full((3, 1), 0.5)), path, dt=2.0 ** -6
        )
        for m in range(3):
            single = noise.BrownianPath(
                T=1.0, level=6, seed=7, d_B=1, values=path.values[:, m : m + 1]
            )
            res = phase.strat_flow(spec, PhaseState([0.0], [0.5]), single, dt=2.0 ** -6)
            assert np.allclose(batched.xs[:, m], res.xs)


class TestLibraryContract:
    """A state has spec.dim coordinates on its last axis, and a path drives
    it with d_B = 1 shared or d_B = batch per-trajectory noise components."""

    @staticmethod
    def flows(path):
        mesh = noise.WongZakaiMesh(path, 2.0 ** -3)
        return {
            "wz_flow": lambda spec, s: phase.wz_flow(spec, s, mesh, substeps_per_cell=2),
            "strat_flow": lambda spec, s: phase.strat_flow(spec, s, path, dt=2.0 ** -5),
            "variational_mesh": lambda spec, s: phase.variational_flow(
                spec, s, mesh, substeps_per_cell=2),
            "variational_path": lambda spec, s: phase.variational_flow(
                spec, s, path, dt=2.0 ** -5),
        }

    @pytest.mark.parametrize("flow", ["wz_flow", "strat_flow", "variational_mesh",
                                      "variational_path"])
    @pytest.mark.parametrize("x0,p0,batch", [
        (np.zeros((5, 1)), np.full((5, 1), 0.5), 5),
        ([0.0], [0.5], 1),
    ])
    def test_noise_components_match_the_batch(self, flow, x0, p0, batch):
        path = noise.sample_brownian(seed=2, T=1.0, level=5, d_B=3)
        with pytest.raises(ConfigurationError, match=f"d_B = 3 .* batch size is {batch}"):
            self.flows(path)[flow](pendulum_spec(), PhaseState(x0, p0))

    @pytest.mark.parametrize("flow", ["wz_flow", "strat_flow", "variational_mesh",
                                      "variational_path"])
    def test_state_width_matches_dim(self, flow):
        path = noise.sample_brownian(seed=2, T=1.0, level=5)
        with pytest.raises(ConfigurationError, match="width 2 but spec.dim = 1"):
            self.flows(path)[flow](pendulum_spec(), PhaseState([0.1, 0.2], [0.0, 0.0]))

    def test_study_state_width_matches_dim(self):
        from wzflow.studies import strong_convergence_study

        with pytest.raises(ConfigurationError, match="width 2 but spec.dim = 1"):
            strong_convergence_study(
                "phase_flow", {"spec": pendulum_spec(), "state0": PhaseState([0.1, 0.2], [0, 0])},
                deltas=[2.0 ** -2, 2.0 ** -3, 2.0 ** -4], M=4, T=1.0, dt=2.0 ** -6)


class TestVariational:
    def _linear_spec(self, eta=0.6):
        return harmonic_spec(eta=eta, sigma_linear=True)

    def test_missing_hessians(self):
        spec = HamiltonianSpec(dim=1)
        path = noise.sample_brownian(seed=1, T=1.0, level=4)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -2)
        with pytest.raises(ConfigurationError):
            phase.variational_flow(spec, PhaseState([0.0], [0.0]), mesh)

    def test_linear_fundamental_matrix(self):
        # linear noise does not enter the tangent system; J = exp(A t)
        spec = self._linear_spec()
        path = noise.sample_brownian(seed=8, T=1.0, level=6)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.variational_flow(
            spec, PhaseState([0.4], [-0.2]), mesh, substeps_per_cell=8
        )
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for i in (0, len(res.times) // 2, -1):
            exact = expm(A * res.times[i])
            assert np.max(np.abs(res.jacobians[i] - exact)) < 1e-8

    def test_liouville_determinant(self):
        spec = pendulum_spec(eta=0.0)
        path = noise.sample_brownian(seed=9, T=1.0, level=4)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.variational_flow(spec, PhaseState([0.3], [1.1]), mesh, substeps_per_cell=32)
        dets = np.linalg.det(res.jacobians)
        assert np.max(np.abs(dets - 1.0)) < 1e-6

    def test_finite_difference_jacobian(self):
        spec = pendulum_spec(eta=1.0)
        path = noise.sample_brownian(seed=10, T=1.0, level=6)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.variational_flow(spec, PhaseState([0.2], [0.4]), mesh)
        eps = 1e-6
        plus = phase.wz_flow(spec, PhaseState([0.2 + eps], [0.4]), mesh).final
        minus = phase.wz_flow(spec, PhaseState([0.2 - eps], [0.4]), mesh).final
        fd_xx = (plus.x[0] - minus.x[0]) / (2 * eps)
        fd_px = (plus.p[0] - minus.p[0]) / (2 * eps)
        assert abs(res.jacobians[-1][0, 0] - fd_xx) < 1e-4
        assert abs(res.jacobians[-1][1, 0] - fd_px) < 1e-4

    def test_jacobian_chain(self):
        spec = pendulum_spec(eta=1.0)
        path = noise.sample_brownian(seed=11, T=1.0, level=6)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        full = phase.variational_flow(spec, PhaseState([0.1], [0.5]), mesh)
        # restart at t = 1/2 with the same noise tail
        half = len(path.values) // 2
        tail_vals = path.values[half:] - path.values[half]
        tail = noise.BrownianPath(T=0.5, level=5, seed=11, d_B=1, values=tail_vals)
        tail_mesh = noise.WongZakaiMesh(tail, delta=2.0 ** -4)
        i_half = np.argmin(np.abs(full.times - 0.5))
        mid_state = PhaseState(full.xs[i_half], full.ps[i_half])
        seg = phase.variational_flow(spec, mid_state, tail_mesh)
        chained = seg.jacobians[-1] @ full.jacobians[i_half]
        assert np.max(np.abs(chained - full.jacobians[-1])) < 1e-8


    @pytest.mark.parametrize("driver", ["mesh", "path"])
    def test_batched_per_path_noise_matches_single(self, driver):
        spec = pendulum_spec(eta=1.0)
        path = noise.sample_brownian(seed=13, T=1.0, level=6, d_B=3)
        x0, p0 = np.array([[0.1], [0.4], [-0.3]]), np.array([[0.5], [0.0], [0.2]])

        def run(pth, x, p):
            if driver == "mesh":
                return phase.variational_flow(
                    spec, PhaseState(x, p), noise.WongZakaiMesh(pth, delta=2.0 ** -4)
                )
            return phase.variational_flow(spec, PhaseState(x, p), pth, dt=2.0 ** -6)

        batched = run(path, x0, p0)
        assert batched.status == phase.COMPLETED
        assert batched.jacobians.shape == (len(batched.times), 3, 2, 2)
        for m in range(3):
            single = noise.BrownianPath(
                T=1.0, level=6, seed=13, d_B=1, values=path.values[:, m : m + 1]
            )
            res = run(single, x0[m], p0[m])
            assert np.array_equal(batched.xs[:, m], res.xs)
            assert np.array_equal(batched.jacobians[:, m], res.jacobians)

    @pytest.mark.parametrize("driver", ["mesh", "path"])
    def test_nonfinite_status(self, driver):
        # f = -x^4/4 sends x to infinity in finite time from x0 = 2, p0 = 4
        f, df, d2f = scalar_potential(
            lambda x: -0.25 * x ** 4, lambda x: -x ** 3, lambda x: -3 * x ** 2
        )
        spec = HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, d2sigma=phase.ZERO_POTENTIAL[2])
        path = noise.sample_brownian(seed=14, T=4.0, level=6)
        driver = noise.WongZakaiMesh(path, delta=2.0 ** -4) if driver == "mesh" else path
        with np.errstate(over="ignore", invalid="ignore"):
            res = phase.variational_flow(spec, PhaseState([2.0], [4.0]), driver, dt=2.0 ** -4)
        assert res.status.startswith("nonfinite(")
        assert res.times[-1] < 4.0
        assert len(res.times) == len(res.xs) == len(res.jacobians)
        assert np.all(np.isfinite(res.jacobians))


class TestDiffeoLoss:
    def test_free_particle_none(self):
        spec = HamiltonianSpec(
            dim=1, d2f=phase.ZERO_POTENTIAL[2], d2sigma=phase.ZERO_POTENTIAL[2]
        )
        path = noise.sample_brownian(seed=1, T=1.0, level=4)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.variational_flow(spec, PhaseState([0.0], [1.0]), mesh)
        assert phase.diffeo_loss_time(res, det_threshold=0.99) is None
        assert phase.diffeo_loss_time(res, det_threshold=0.0) is None

    def test_caustic_monotone_in_threshold(self):
        # f(x) = -cos(x) focuses nearby trajectories through a caustic
        f, df, d2f = scalar_potential(
            lambda x: -np.cos(x), np.sin, np.cos
        )
        spec = HamiltonianSpec(
            dim=1, f=f, df=df, d2f=d2f, d2sigma=phase.ZERO_POTENTIAL[2]
        )
        path = noise.sample_brownian(seed=2, T=8.0, level=8)
        mesh = noise.WongZakaiMesh(path, delta=8.0 * 2.0 ** -8)
        res = phase.variational_flow(spec, PhaseState([0.1], [0.0]), mesh)
        t_low = phase.diffeo_loss_time(res, det_threshold=1e-3)
        t_high = phase.diffeo_loss_time(res, det_threshold=0.5)
        assert t_low is not None and t_high is not None
        assert t_high <= t_low


class TestGrowthDiagnostic:
    def test_zero_sigma(self):
        spec = harmonic_spec(eta=1.0)
        states = [PhaseState([x], [p]) for x in (-1.0, 0.5) for p in (0.0, 2.0)]
        rep = phase.growth_diagnostic(spec, states, C1=1.0, c1=1.0)
        assert rep["max_ratio"] == 0.0

    def test_pendulum_grid_brute_force(self):
        spec = pendulum_spec(eta=1.0)
        xg = np.linspace(-10, 10, 100)
        pg = np.linspace(-10, 10, 100)
        states = [PhaseState([x], [p]) for x in xg for p in pg]
        rep = phase.growth_diagnostic(spec, states, C1=1.0, c1=1.0)
        # independent brute-force evaluation of the same bound
        best = 0.0
        for x in xg:
            for p in pg:
                ds, d2s = np.cos(x), -np.sin(x)
                force = np.sin(x)  # -f'(x) with f = cos
                left = (
                    ds * ds
                    + abs(p * ds)
                    + abs(ds * force)
                    + abs(p * d2s * p)
                )
                h0 = 0.5 * p * p + np.cos(x)
                best = max(best, left / (1.0 + h0))
        assert rep["max_ratio"] == pytest.approx(best, rel=1e-12)
        assert np.isfinite(rep["max_ratio"])


class TestEnergyExpansion:
    def test_noise_off(self):
        spec = harmonic_spec(eta=0.0)
        path = noise.sample_brownian(seed=1, T=1.0, level=4)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.wz_flow(spec, PhaseState([1.0], [0.0]), mesh, substeps_per_cell=8)
        assert phase.energy_expansion_check(spec, res, mesh) < 1e-10

    def test_linear_closed_form(self):
        f0 = phase.ZERO_POTENTIAL
        s, ds, d2s = scalar_potential(
            lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
        )
        spec = HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=1.0)
        path = noise.sample_brownian(seed=3, T=1.0, level=6)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.wz_flow(spec, PhaseState([0.0], [1.0]), mesh, substeps_per_cell=8)
        assert phase.energy_expansion_check(spec, res, mesh) < 1e-10

    @pytest.mark.parametrize("sub", [1, 3])
    def test_odd_substeps_trapezoid(self, sub):
        # the integrand is linear in time inside each cell, so the trapezoid
        # rule is exact as well
        s, ds, d2s = scalar_potential(
            lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
        )
        spec = HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=1.0)
        path = noise.sample_brownian(seed=3, T=1.0, level=6)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        res = phase.wz_flow(spec, PhaseState([0.0], [1.0]), mesh, substeps_per_cell=sub)
        assert phase.energy_expansion_check(spec, res, mesh) < 1e-10

    def test_substep_refinement_rate(self):
        spec = pendulum_spec(eta=1.0)
        path = noise.sample_brownian(seed=4, T=1.0, level=5)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -3)
        resids = []
        for sub in (4, 8):
            res = phase.wz_flow(spec, PhaseState([0.5], [0.5]), mesh, substeps_per_cell=sub)
            resids.append(phase.energy_expansion_check(spec, res, mesh))
        ratio = resids[0] / resids[1]
        assert ratio > 8


def test_torus_mirror_symmetry():
    # even potentials are invariant under (x, p) -> (-x, -p) with the same
    # noise; mirrored initial data gives the mirror trajectory to round-off
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    spec = HamiltonianSpec(
        dim=1, f=f, df=df, sigma=f, dsigma=df, eta=1.0, domain="torus", period=2 * np.pi
    )
    path = noise.sample_brownian(seed=12, T=1.0, level=6)
    mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
    a = phase.wz_flow(spec, PhaseState([0.7], [0.3]), mesh)
    b = phase.wz_flow(spec, PhaseState([-0.7], [-0.3]), mesh)
    diff = np.abs(np.mod(a.xs + b.xs, 2 * np.pi))
    diff = np.minimum(diff, 2 * np.pi - diff)
    assert np.max(diff) < 1e-10
    assert np.max(np.abs(a.ps + b.ps)) < 1e-10


def test_deterministic_reduction_wz_vs_strat():
    # eta = 0: the two integrators solve the same ODE; agreement at grid level
    spec = pendulum_spec(eta=0.0)
    path = noise.sample_brownian(seed=13, T=1.0, level=8)
    mesh = noise.WongZakaiMesh(path, delta=2.0 ** -8)
    a = phase.wz_flow(spec, PhaseState([0.4], [0.1]), mesh, substeps_per_cell=1)
    b = phase.strat_flow(spec, PhaseState([0.4], [0.1]), path, dt=2.0 ** -8)
    assert np.max(np.abs(a.xs - b.xs)) < 1e-3
