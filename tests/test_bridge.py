import numpy as np
import pytest

from wzflow import noise
from wzflow.bridge import (
    BridgeSpec,
    BridgeTrajectory,
    bridge_flow,
    bridge_hamiltonian,
    bridge_step,
    fb_residual,
    hopf_cole,
    hopf_cole_inverse,
)
from wzflow.errors import ConfigurationError, StabilityError, SupportError
from wzflow.fields import DensityField, GridSpec, PotentialField

L = 2 * np.pi
GRID = GridSpec(1, 32, L)


def uniform_rho(grid=GRID):
    return DensityField(grid, np.full(grid.n, 1.0 / grid.period))


def cosine_rho(grid=GRID, amp=0.3):
    return DensityField.normalized(grid, 1.0 + amp * np.cos(grid.axis()))


def make_spec(a, da, grid=GRID, rho0=None, phi0=None, T=0.2, delta=None, seed=3):
    rho0 = cosine_rho(grid) if rho0 is None else rho0
    phi0 = (
        PotentialField.projected(grid, 0.2 * np.sin(grid.axis()))
        if phi0 is None
        else phi0
    )
    path = noise.sample_brownian(seed=seed, T=T, level=6)
    mesh = noise.WongZakaiMesh(path, T if delta is None else delta)
    return BridgeSpec(grid, a, da, mesh, rho0, phi0)


ZERO_A = (lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))
SMOOTH_A = (lambda x: 0.3 + 0.1 * np.cos(x), lambda x: -0.1 * np.sin(x))


class TestHopfCole:
    def test_uniform_density_is_projection(self):
        rho = uniform_rho()
        s = 0.7 * np.sin(GRID.axis()) + 1.3
        phi, offset = hopf_cole(rho, s)
        assert np.max(np.abs(phi.values - (s - np.mean(s)))) < 1e-13
        assert offset == pytest.approx(np.mean(s) - 0.5 * np.log(1.0 / L), abs=1e-13)

    def test_roundtrip(self):
        x = GRID.axis()
        rho = cosine_rho()
        s = 0.4 * np.sin(x) + 0.2 * np.cos(2 * x) + 0.9
        phi, offset = hopf_cole(rho, s)
        back = hopf_cole_inverse(rho, phi)
        assert np.max(np.abs(back + offset - s)) < 1e-12

    def test_kernel_of_transform(self):
        rho = cosine_rho()
        phi, _ = hopf_cole(rho, 0.5 * np.log(rho.values))
        assert np.max(np.abs(phi.values)) < 1e-13

    def test_floor_violation(self):
        grid = GridSpec(1, 32, L)
        vals = np.full(grid.n, 1.0)
        vals[3] = 0.0
        rho = DensityField.normalized(grid, vals)
        with pytest.raises(SupportError):
            hopf_cole(rho, np.zeros(grid.n))


class TestFlow:
    def test_rest_point(self):
        spec = make_spec(*ZERO_A, rho0=uniform_rho(),
                         phi0=PotentialField(GRID, np.zeros(GRID.n)))
        traj = bridge_flow(spec, 0.2, 0.2 / 64)
        last = traj.states[-1]
        assert np.max(np.abs(last.rho.values - 1.0 / L)) < 1e-13
        assert np.max(np.abs(last.phi.values)) < 1e-13

    def test_constant_coupling_symmetry(self):
        spec = make_spec(lambda x: 0.8 * np.ones_like(x),
                         lambda x: np.zeros_like(x),
                         rho0=uniform_rho(),
                         phi0=PotentialField(GRID, np.zeros(GRID.n)))
        traj = bridge_flow(spec, 0.2, 0.2 / 64)
        last = traj.states[-1]
        assert np.max(np.abs(last.rho.values - 1.0 / L)) < 1e-13
        assert np.max(np.abs(last.phi.values)) < 1e-13

    def test_mass_conserved_before_renormalization(self):
        spec = make_spec(*SMOOTH_A)
        traj = bridge_flow(spec, 0.2, 0.2 / 128)
        factors = [abs(rep["mass_factor"] - 1.0) for rep in traj.reports[1:]]
        assert max(factors) < 1e-10

    def test_dt_must_divide_cell(self):
        spec = make_spec(*SMOOTH_A)
        with pytest.raises(ConfigurationError):
            bridge_flow(spec, 0.2, 0.2 / 63.5)

    def test_stability_guard(self):
        spec = make_spec(*SMOOTH_A)
        with pytest.raises(StabilityError) as e:
            bridge_step(spec.rho0, spec.phi0, 0.0, spec, 1.0)
        assert e.value.suggested_dt < 1.0

    def test_hamiltonian_closed_form(self):
        A = 0.4
        rho = uniform_rho()
        phi = PotentialField(GRID, A * np.sin(GRID.axis()))
        assert bridge_hamiltonian(rho, phi) == pytest.approx(A ** 2 / 4, rel=1e-12)

    def test_hamiltonian_drift_fourth_order(self):
        # a = 0: deterministic Hamiltonian system; RK4 drift is O(dt^4)
        drifts = []
        for steps in (10, 20):
            spec = make_spec(*ZERO_A, T=0.1)
            traj = bridge_flow(spec, 0.1, 0.1 / steps)
            h0 = bridge_hamiltonian(spec.rho0, spec.phi0)
            last = traj.states[-1]
            drifts.append(abs(bridge_hamiltonian(last.rho, last.phi) - h0))
        assert 10.0 < drifts[0] / drifts[1] < 30.0


class TestFbResidual:
    def test_rest_point_residual(self):
        spec = make_spec(*ZERO_A, rho0=uniform_rho(),
                         phi0=PotentialField(GRID, np.zeros(GRID.n)))
        traj = bridge_flow(spec, 0.2, 0.2 / 64)
        out = fb_residual(traj, spec, sample_times=np.linspace(0, 0.2, 9))
        assert np.max(out["forward"]) < 1e-12
        assert np.max(out["backward"]) < 1e-12

    def test_refinement_halves_residuals(self):
        maxima = []
        for n, steps in ((16, 64), (32, 128)):
            grid = GridSpec(1, n, L)
            spec = make_spec(*SMOOTH_A, grid=grid, rho0=cosine_rho(grid),
                             phi0=PotentialField.projected(grid, 0.2 * np.sin(grid.axis())))
            traj = bridge_flow(spec, 0.2, 0.2 / steps)
            times = np.linspace(0, 0.2, steps // 4 + 1)
            out = fb_residual(traj, spec, sample_times=times)
            maxima.append((np.max(out["forward"]), np.max(out["backward"])))
        assert maxima[0][0] / maxima[1][0] >= 2
        assert maxima[0][1] / maxima[1][1] >= 2

    def test_corruption_sensitivity(self):
        spec = make_spec(*SMOOTH_A)
        traj = bridge_flow(spec, 0.2, 0.2 / 128)
        times = np.linspace(0, 0.2, 33)
        base = np.max(fb_residual(traj, spec, sample_times=times)["backward"])

        def corrupted(eps):
            bump = eps * np.sin(GRID.axis())
            states = [
                type(st)(st.rho, PotentialField.projected(GRID, st.phi.values + bump), st.t)
                for st in traj.states
            ]
            c = BridgeTrajectory(traj.times, states, traj.reports)
            return np.max(fb_residual(c, spec, sample_times=times)["backward"])

        r1 = corrupted(1e-3) - base
        r2 = corrupted(2e-3) - base
        assert r1 > 3 * base or r1 > 1e-4   # visible response
        assert 1.5 < r2 / r1 < 2.5          # roughly proportional

    def test_nu_switch_changes_residual(self):
        spec = make_spec(*SMOOTH_A)
        traj = bridge_flow(spec, 0.2, 0.2 / 128)
        times = np.linspace(0, 0.2, 17)
        half = fb_residual(traj, spec, sample_times=times, nu=0.5)
        full = fb_residual(traj, spec, sample_times=times, nu=1.0)
        assert np.max(full["forward"]) > 10 * np.max(half["forward"])
