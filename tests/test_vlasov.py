import numpy as np
import pytest

from wzflow import noise, vlasov
from wzflow.errors import ConfigurationError, EvaluationError, InsufficientDataError
from wzflow.phase import HamiltonianSpec, PhaseState, scalar_potential, strat_flow, wz_flow
from wzflow.vlasov import (
    PhaseEnsemble,
    TestFunction,
    default_battery,
    evaluate_battery,
    evolve_conditional,
    residual_table_to_csv,
    weak_residual_first_order,
    weak_residual_second_order,
)


def harmonic_spec(eta=0.0):
    f, df, d2f = scalar_potential(
        lambda x: 0.5 * x ** 2, lambda x: x, lambda x: np.ones_like(x)
    )
    if eta:
        s, ds, d2s = scalar_potential(
            lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
        )
        return HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta)
    return HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f)


def linear_noise_spec(eta=1.0):
    s, ds, d2s = scalar_potential(
        lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
    )
    return HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta)


def gaussian_ensemble(n, seed, x_std=0.5, p_std=0.5):
    rng = np.random.default_rng(seed)
    return PhaseEnsemble(rng.normal(0, x_std, (n, 1)), rng.normal(0, p_std, (n, 1)))


class TestTestFunction:
    def test_descriptor_guard(self):
        with pytest.raises(ConfigurationError):
            TestFunction("tan", 0)
        with pytest.raises(ConfigurationError):
            TestFunction("sin", 5)

    def test_battery(self):
        battery = default_battery()
        assert len(battery) == 12
        assert len({phi.label for phi in battery}) == 12

    def test_derivatives_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-3, 3, 50)
        p = rng.uniform(-2.5, 2.5, 50)
        h = 1e-6
        for phi in default_battery(length=5.0):
            dx_fd = (phi.value(x + h, p) - phi.value(x - h, p)) / (2 * h)
            dp_fd = (phi.value(x, p + h) - phi.value(x, p - h)) / (2 * h)
            dpp_fd = (
                phi.value(x, p + h) - 2 * phi.value(x, p) + phi.value(x, p - h)
            ) / h ** 2
            assert np.max(np.abs(dx_fd - phi.dx(x, p))) < 1e-6
            assert np.max(np.abs(dp_fd - phi.dp(x, p))) < 1e-6
            assert np.max(np.abs(dpp_fd - phi.dpp(x, p))) < 1e-3


def pendulum_spec(eta=0.7):
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    s, ds, d2s = scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
    return HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta)


# mixed lengths and a repeated descriptor
CUSTOM_BATTERY = [
    TestFunction("sin", 2, 3.0),
    TestFunction("cos", 0),
    TestFunction("sin", 2, 3.0),
    TestFunction("one", 3, 1.5),
    TestFunction("cos", 1, 3.0),
    TestFunction("sin", 3),
]


def reference_first_order(spec, ensembles, mesh, battery):
    """Per-function loop over the TestFunction methods."""
    times = np.array([e.time for e in ensembles])
    dt = times[1] - times[0]
    lhs = np.empty((len(battery), len(times) - 2))
    rhs = np.empty_like(lhs)
    for i, phi in enumerate(battery):
        means = np.array([np.mean(phi.value(e.x[:, 0], e.p[:, 0])) for e in ensembles])
        lhs[i] = (means[2:] - means[:-2]) / (2 * dt)
        for j in range(1, len(times) - 1):
            x, p = ensembles[j].x, ensembles[j].p
            _, slope = noise.wz_eval(mesh, min(times[j], mesh.base.T))
            xi = float(np.reshape(slope, -1)[0])
            drift = (
                phi.dx(x[:, 0], p[:, 0]) * spec.grad_p_h0(x, p)[:, 0]
                - phi.dp(x[:, 0], p[:, 0]) * spec.grad_x_h0(x, p)[:, 0]
                - phi.dp(x[:, 0], p[:, 0]) * spec.grad_x_h1(x, p)[:, 0] * xi
            )
            rhs[i, j - 1] = np.mean(drift)
    return lhs, rhs


def reference_second_order(spec, ensemble0, n_rep, dt, times, seed, include_hessian):
    """(lhs, residual) of the full sample from a per-function loop."""
    battery = default_battery(spec.period)
    level = int(round(np.log2(times[-1] / dt)))
    obs = np.empty((n_rep, len(battery), len(times)))
    drf = np.empty_like(obs)
    for r in range(n_rep):
        path = noise.sample_brownian(seed=seed + r, T=times[-1], level=level)
        flow = strat_flow(spec, PhaseState(ensemble0.x, ensemble0.p), path, dt=dt)
        for j, t in enumerate(times):
            i = int(np.argmin(np.abs(flow.times - t)))
            x, p = flow.xs[i], flow.ps[i]
            x0, p0 = x[:, 0], p[:, 0]
            for q, phi in enumerate(battery):
                obs[r, q, j] = np.mean(phi.value(x0, p0))
                drift = (
                    phi.dx(x0, p0) * spec.grad_p_h0(x, p)[:, 0]
                    - phi.dp(x0, p0) * spec.grad_x_h0(x, p)[:, 0]
                )
                if include_hessian:
                    ds = spec.dsigma(x)[:, 0]
                    drift = drift + 0.5 * spec.eta ** 2 * ds ** 2 * phi.dpp(x0, p0)
                drf[r, q, j] = np.mean(drift)
    a, d = obs.mean(axis=0), drf.mean(axis=0)
    lhs = (a[:, 2:] - a[:, :-2]) / (2 * (times[1] - times[0]))
    return lhs, lhs - d[:, 1:-1]


class TestEvaluateBattery:
    @pytest.mark.parametrize("battery", [default_battery(), CUSTOM_BATTERY],
                             ids=["default", "custom"])
    def test_bitwise_equal_to_methods(self, battery):
        rng = np.random.default_rng(6)
        x = rng.uniform(-4, 4, 1000)
        p = rng.normal(0, 1.5, 1000)
        ref = np.array([
            [getattr(phi, name)(x, p) for phi in battery]
            for name in ("value", "dx", "dp", "dpp")
        ])
        out = evaluate_battery(battery, x, p)
        assert out.shape == (4, len(battery), 1000)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("battery", [None, CUSTOM_BATTERY], ids=["default", "custom"])
    def test_first_order_matches_per_function_loop(self, battery):
        spec = pendulum_spec()
        path = noise.sample_brownian(seed=6, T=0.5, level=4)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -2)
        series = evolve_conditional(spec, gaussian_ensemble(300, seed=7), mesh, 4,
                                    np.linspace(0, 0.5, 5))
        out = weak_residual_first_order(spec, series, mesh, battery)
        lhs, rhs = reference_first_order(
            spec, series, mesh, default_battery(spec.period) if battery is None else battery
        )
        assert np.array_equal(out["lhs"], lhs)
        assert np.array_equal(out["rhs"], rhs)

    @pytest.mark.parametrize("hessian", [True, False])
    def test_second_order_matches_per_function_loop(self, hessian):
        spec = pendulum_spec()
        e0 = gaussian_ensemble(300, seed=8)
        times = np.linspace(0, 0.5, 5)
        out = weak_residual_second_order(
            spec, e0, 30, 0.5 * 2.0 ** -4, times, seed=9, n_bootstrap=10,
            include_hessian_term=hessian,
        )
        lhs, res = reference_second_order(spec, e0, 30, 0.5 * 2.0 ** -4, times, 9, hessian)
        assert np.array_equal(out["lhs"], lhs)
        assert np.array_equal(out["residual"], res)


def test_one_dimensional_input_is_one_particle_per_entry():
    e = PhaseEnsemble(np.linspace(0, 1, 5), np.zeros(5))
    assert e.x.shape == e.p.shape == (5, 1) and e.n == 5
    assert np.array_equal(e.x[:, 0], np.linspace(0, 1, 5))
    assert PhaseEnsemble(0.3, 0.7).x.shape == (1, 1)
    spec = harmonic_spec()
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=1, T=0.5, level=4), 0.125)
    (flat,) = evolve_conditional(spec, e, mesh, 2, [0.5])
    (columns,) = evolve_conditional(spec, PhaseEnsemble(e.x, e.p), mesh, 2, [0.5])
    assert np.array_equal(flat.x, columns.x) and np.array_equal(flat.p, columns.p)


class TestEvolveConditional:
    def test_singleton_matches_wz_flow(self):
        spec = harmonic_spec()
        path = noise.sample_brownian(seed=1, T=0.5, level=4)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -2)
        e0 = PhaseEnsemble([[0.3]], [[0.7]])
        times = [0.0, 0.25, 0.5]
        series = evolve_conditional(spec, e0, mesh, 4, times)
        ref = wz_flow(spec, PhaseState([0.3], [0.7]), mesh, substeps_per_cell=4)
        for ens, t in zip(series, times):
            i = int(np.argmin(np.abs(ref.times - t)))
            assert ens.x[0, 0] == ref.xs[i, 0]
            assert ens.p[0, 0] == ref.ps[i, 0]

    def test_noise_off_is_path_independent(self):
        spec = harmonic_spec(eta=0.0)
        e0 = gaussian_ensemble(200, seed=3)
        outs = []
        for seed in (1, 2):
            path = noise.sample_brownian(seed=seed, T=0.5, level=4)
            mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -2)
            outs.append(evolve_conditional(spec, e0, mesh, 4, [0.5])[0])
        assert np.array_equal(outs[0].x, outs[1].x)
        assert np.array_equal(outs[0].p, outs[1].p)

    def test_linear_moments(self):
        # linearity of expectation: the ensemble mean follows the flow of
        # the initial mean for linear dynamics
        spec = harmonic_spec(eta=0.0)
        e0 = gaussian_ensemble(5000, seed=5)
        mx0, mp0 = e0.x.mean(), e0.p.mean()
        path = noise.sample_brownian(seed=1, T=1.0, level=4)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -4)
        out = evolve_conditional(spec, e0, mesh, 8, [1.0])[0]
        assert abs(out.x.mean() - (mx0 * np.cos(1) + mp0 * np.sin(1))) < 1e-8
        assert abs(out.p.mean() - (-mx0 * np.sin(1) + mp0 * np.cos(1))) < 1e-8


class TestFirstOrderResidual:
    def test_insufficient_times(self):
        spec = harmonic_spec()
        path = noise.sample_brownian(seed=1, T=0.5, level=2)
        mesh = noise.WongZakaiMesh(path, delta=0.25)
        e0 = gaussian_ensemble(100, seed=1)
        series = evolve_conditional(spec, e0, mesh, 2, [0.0, 0.5])
        with pytest.raises(InsufficientDataError):
            weak_residual_first_order(spec, series, mesh)

    def test_equilibrium(self):
        # all particles at the rest point of the harmonic well
        spec = harmonic_spec(eta=0.0)
        path = noise.sample_brownian(seed=2, T=0.5, level=2)
        mesh = noise.WongZakaiMesh(path, delta=0.25)
        e0 = PhaseEnsemble(np.zeros((50, 1)), np.zeros((50, 1)))
        series = evolve_conditional(spec, e0, mesh, 4, np.linspace(0, 0.5, 5))
        out = weak_residual_first_order(spec, series, mesh)
        assert np.max(out["residual"]) < 1e-13

    def test_sampling_rate_in_n(self):
        # symmetric ensemble + reflection-odd test function: the residual
        # is pure sampling noise, shrinking like N^{-1/2}
        spec = harmonic_spec(eta=0.0)
        path = noise.sample_brownian(seed=3, T=0.5, level=3)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -2)
        battery = [TestFunction("sin", 0)]
        times = np.linspace(0, 0.5, 11)
        sizes = np.array([500, 2000, 8000, 32000])
        errs = []
        for i, n in enumerate(sizes):
            e0 = gaussian_ensemble(int(n), seed=50 + i)
            series = evolve_conditional(spec, e0, mesh, 10, times)
            out = weak_residual_first_order(spec, series, mesh, battery)
            errs.append(np.sqrt(np.mean(out["residual"] ** 2)))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -0.7 <= slope <= -0.3

    def test_substep_refinement_is_inert(self):
        # the residual is dominated by sampling + time differencing, not by
        # the inner integrator
        spec = harmonic_spec(eta=1.0)
        path = noise.sample_brownian(seed=4, T=0.5, level=4)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -3)
        e0 = gaussian_ensemble(2000, seed=9)
        times = np.linspace(0, 0.5, 9)
        res = []
        for sub in (8, 16):
            series = evolve_conditional(spec, e0, mesh, sub, times)
            out = weak_residual_first_order(spec, series, mesh)
            res.append(np.max(out["residual"]))
        assert 0.5 <= res[0] / res[1] <= 2.0

    def test_exchangeability(self):
        spec = harmonic_spec(eta=1.0)
        path = noise.sample_brownian(seed=5, T=0.5, level=4)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -2)
        e0 = gaussian_ensemble(300, seed=2)
        perm = np.random.default_rng(0).permutation(300)
        e0p = PhaseEnsemble(e0.x[perm], e0.p[perm])
        times = np.linspace(0, 0.5, 5)
        a = weak_residual_first_order(spec, evolve_conditional(spec, e0, mesh, 4, times), mesh)
        b = weak_residual_first_order(spec, evolve_conditional(spec, e0p, mesh, 4, times), mesh)
        assert np.allclose(a["residual"], b["residual"], atol=1e-12)


class TestSecondOrderResidual:
    def test_replication_guard(self):
        with pytest.raises(ConfigurationError):
            weak_residual_second_order(
                linear_noise_spec(), gaussian_ensemble(100, 0), 5, 2.0 ** -6,
                np.linspace(0, 0.5, 9), seed=0,
            )

    @pytest.mark.parametrize("n_bootstrap", [0, -3])
    def test_nonpositive_bootstrap_rejected(self, n_bootstrap):
        with pytest.raises(ConfigurationError, match="n_bootstrap"):
            weak_residual_second_order(
                linear_noise_spec(), gaussian_ensemble(20, 0), 30, 2.0 ** -4,
                np.linspace(0, 0.5, 3), seed=0, n_bootstrap=n_bootstrap,
            )

    def test_noise_off_deterministic(self):
        spec = harmonic_spec(eta=0.0)
        out = weak_residual_second_order(
            spec, gaussian_ensemble(500, seed=1), 30, 0.5 * 2.0 ** -6,
            np.linspace(0, 0.5, 17), seed=10, n_bootstrap=50,
        )
        assert np.max(np.abs(out["residual"])) < 5e-3

    def test_gaussian_solvable_within_ci(self):
        # p_t = p0 - eta B_t: the averaged law satisfies the second-order
        # equation; per-test-function time-averaged residual within its
        # bootstrap confidence interval of zero
        spec = linear_noise_spec(eta=1.0)
        out = weak_residual_second_order(
            spec, gaussian_ensemble(1000, seed=2), 60, 0.5 * 2.0 ** -6,
            np.linspace(0, 0.5, 33), seed=20,
        )
        assert np.all(out["mean_ci_low"] <= 0.0)
        assert np.all(out["mean_ci_high"] >= 0.0)

    def test_hessian_ablation_detected(self):
        spec = linear_noise_spec(eta=1.0)
        out = weak_residual_second_order(
            spec, gaussian_ensemble(1000, seed=2), 60, 0.5 * 2.0 ** -6,
            np.linspace(0, 0.5, 33), seed=20, include_hessian_term=False,
        )
        idx = out["labels"].index("one*p2")
        assert out["mean_ci_low"][idx] > 0.0 or out["mean_ci_high"][idx] < 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_replication_named(self):
        # an infinite force beyond x = 0.2: replications 3, 7, 13, 14, 20, 22,
        # 25 and 27 cross it, replication 14 first
        s, ds, d2s = scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
        spec = HamiltonianSpec(dim=1, df=lambda x: np.where(x > 0.2, np.inf, 0.0),
                               sigma=s, dsigma=ds, d2sigma=d2s, eta=1.0)
        e0 = PhaseEnsemble(np.zeros((4, 1)), np.zeros((4, 1)))
        stops = []
        for r in range(30):
            path = noise.sample_brownian(seed=40 + r, T=0.5, level=5)
            flow = strat_flow(spec, PhaseState(e0.x, e0.p), path, dt=2.0 ** -5)
            if flow.status != "completed":
                stops.append((flow.times[-1] + 2.0 ** -5, r))
        t, r = min(stops)
        assert (t, r) == (0.3125, 14)
        message = r"^replication 14 \(seed 54\) is non-finite at t=0\.3125$"
        with pytest.raises(EvaluationError, match=message):
            weak_residual_second_order(spec, e0, 30, 2.0 ** -5, np.linspace(0, 0.5, 5),
                                       seed=40, n_bootstrap=10)

    def test_determinism(self):
        spec = linear_noise_spec(eta=1.0)
        args = dict(
            n_replications=30, dt=0.5 * 2.0 ** -5,
            sample_times=np.linspace(0, 0.5, 9), seed=7, n_bootstrap=100,
        )
        a = weak_residual_second_order(spec, gaussian_ensemble(200, seed=3), **args)
        b = weak_residual_second_order(spec, gaussian_ensemble(200, seed=3), **args)
        for key in ("residual", "ci_low", "ci_high"):
            assert np.array_equal(a[key], b[key])


def test_conditional_average_matches_closed_form():
    # law of total expectation: averaging the conditional ensembles over
    # independent noise paths reproduces E exp(-p_t^2) = 1/sqrt(1+2v) with
    # v = Var(p0) + t for p_t = p0 - B_t
    spec = linear_noise_spec(eta=1.0)
    t = 0.5
    p_std = 0.5
    e0 = gaussian_ensemble(1000, seed=4, p_std=p_std)
    phi = TestFunction("one", 0)
    vals = []
    for r in range(60):
        path = noise.sample_brownian(seed=300 + r, T=t, level=4)
        mesh = noise.WongZakaiMesh(path, delta=t * 2.0 ** -4)
        out = evolve_conditional(spec, e0, mesh, 2, [t])[0]
        vals.append(np.mean(phi.value(out.x[:, 0], out.p[:, 0])))
    vals = np.array(vals)
    target = 1.0 / np.sqrt(1.0 + 2.0 * (p_std ** 2 + t))
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se + 1e-3


def test_residual_table_csv(tmp_path):
    spec = harmonic_spec(eta=1.0)
    path = noise.sample_brownian(seed=5, T=0.5, level=4)
    mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -2)
    series = evolve_conditional(
        spec, gaussian_ensemble(100, seed=1), mesh, 4, np.linspace(0, 0.5, 5)
    )
    table = weak_residual_first_order(spec, series, mesh)
    out = tmp_path / "residuals.csv"
    residual_table_to_csv(table, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "time,phi,lhs,rhs,residual"
    assert len(lines) == 1 + 12 * 3


def test_residual_table_csv_bytes(tmp_path):
    table = {
        "labels": ["one*p0", "sin*p1"],
        "times": np.array([0.1, 0.2]),
        "lhs": np.array([[1.0, 2.0], [1 / 3, -0.5]]),
        "rhs": np.array([[0.5, 2.0], [0.0, 0.7]]),
        "residual": np.array([[0.5, 0.0], [1 / 3, -1.2]]),
    }
    out = tmp_path / "residuals.csv"
    residual_table_to_csv(table, out)
    assert out.read_text() == (
        "time,phi,lhs,rhs,residual\n"
        "0.10000000000000001,one*p0,1,0.5,0.5\n"
        "0.20000000000000001,one*p0,2,2,0\n"
        "0.10000000000000001,sin*p1,0.33333333333333331,0,0.33333333333333331\n"
        "0.20000000000000001,sin*p1,-0.5,0.69999999999999996,-1.2\n"
    )
    table["ci_low"] = table["residual"] - 0.25
    table["ci_high"] = table["residual"] + 0.25
    residual_table_to_csv(table, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "time,phi,lhs,rhs,residual,ci_low,ci_high"
    assert lines[4] == "0.20000000000000001,sin*p1,-0.5,0.69999999999999996,-1.2,-1.45,-0.94999999999999996"
