"""End-to-end accuracy checks at pinned tolerances.

Each test exercises one headline property of the toolkit at desk scale:
strong and in-probability noise convergence rates, conserved quantities,
transform equivalences, solver convergence orders, and bitwise
reproducibility of study artifacts.
"""

import json
import time

import numpy as np
import pytest

from wzflow import density, noise, phase
from wzflow.cli import main as cli_main
from wzflow.density import (
    Functional,
    WhfSpec,
    el_residual,
    elliptic_solve,
    pushforward_jacobian,
    pushforward_mc,
    whf_evolve,
)
from wzflow.bridge import (
    BridgeSpec,
    bridge_flow,
    fb_residual,
    hopf_cole,
    hopf_cole_inverse,
)
from wzflow.fields import DensityField, GridSpec, PotentialField, VelocityField, gradient
from wzflow.phase import HamiltonianSpec, IdentityMetric, PhaseState, scalar_potential
from wzflow.snls import NlsSpec, WaveField, evolve, madelung_residual, wz_convergence_study
from wzflow.studies import probability_convergence_study, strong_convergence_study
from wzflow.vlasov import PhaseEnsemble, weak_residual_second_order


# ---------------------------------------------------------------------------
# shared specs

def pendulum_spec(eta=1.0):
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    s, ds, d2s = scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
    return HamiltonianSpec(dim=1, f=f, df=df, sigma=s, dsigma=ds, eta=eta,
                           d2f=d2f, d2sigma=d2s)


def affine_spec(eta=1.0):
    f, df, d2f = scalar_potential(
        lambda x: 0.5 * x ** 2, lambda x: x, lambda x: np.ones_like(x)
    )
    s, ds, d2s = scalar_potential(
        lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
    )
    return HamiltonianSpec(
        dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta
    )


def gaussian_density(grid, mean, std):
    x = grid.axis()
    return DensityField.normalized(grid, np.exp(-0.5 * ((x - mean) / std) ** 2))


def forced_oscillator_mean(mesh, eta):
    """Exact mean of x'' + x = -eta xi', x(0) = x'(0) = 0, cell by cell."""
    m, mp = 0.0, 0.0
    c, s = np.cos(mesh.delta), np.sin(mesh.delta)
    for k in range(mesh.n_cells):
        drive = eta * float(mesh.cell_derivative(k).reshape(-1)[0])
        u = m + drive
        u_new = u * c + mp * s
        mp = -u * s + mp * c
        m = u_new - drive
    return m


STATE = PhaseState([0.3], [0.7])
CUBIC = dict(lam=1.0, f=lambda s: s, F=lambda s: 0.5 * s ** 2)
L = 2 * np.pi


def smooth_modes():
    return (
        (lambda x: 0.5 * np.cos(x), lambda x: -0.5 * np.sin(x)),
        (lambda x: 0.3 * np.sin(2 * x), lambda x: 0.6 * np.cos(2 * x)),
    )


# ---------------------------------------------------------------------------
# 1-2: phase-space noise convergence

class TestPhaseSpaceConvergence:
    DELTAS = [2.0 ** -k for k in range(4, 10)]

    def test_strong_order_half(self):
        t0 = time.perf_counter()
        report = strong_convergence_study(
            "phase_flow", {"spec": pendulum_spec(), "state0": STATE},
            deltas=self.DELTAS, M=100, T=1.0, dt=2.0 ** -12, seed=101,
        )
        assert 0.35 <= report.order <= 0.65
        # the bootstrap bands rule out a flat (zero-slope) error profile
        assert np.all(report.ci_low > 0.0)
        assert report.ci_low[0] > report.ci_high[-1]
        assert time.perf_counter() - t0 <= 120.0

    def test_convergence_in_probability(self):
        table = probability_convergence_study(
            "phase_flow", {"spec": pendulum_spec(), "state0": STATE},
            deltas=self.DELTAS, eps_list=[1e-1, 1e-2, 1e-3],
            M=100, T=1.0, dt=2.0 ** -12, seed=102,
        )
        # refinement never raises the exceedance frequency beyond Wilson
        # CI overlap, for every threshold
        for i in range(table["eps"].size):
            for j in range(table["deltas"].size - 1):
                assert table["freq"][j + 1, i] <= table["ci_high"][j, i] + 1e-12


# ---------------------------------------------------------------------------
# 3: commuting pair conservation along the limit flow

def test_commuting_invariants_conserved():
    # sigma = f with the identity auxiliary metric makes H1 = eta * H0;
    # both stay flat along the Stratonovich flow
    f, df, d2f = scalar_potential(
        lambda x: 0.5 * x ** 2, lambda x: x, lambda x: np.ones_like(x)
    )
    spec = HamiltonianSpec(
        dim=1, f=f, df=df, d2f=d2f, sigma=f, dsigma=df, d2sigma=d2f,
        eta=0.1, tilde_metric=phase.IdentityMetric(),
    )
    path = noise.sample_brownian(seed=6, T=1.0, level=10)
    res = phase.strat_flow(spec, PhaseState([1.0], [0.0]), path, dt=2.0 ** -10)
    assert np.max(np.abs(res.h1 - spec.eta * res.h0)) < 1e-12
    for series in (res.h0, res.h1):
        drift = np.max(np.abs(series - series[0])) / abs(series[0])
        assert drift <= 1e-6


# ---------------------------------------------------------------------------
# 4: push-forward density, Jacobian formula vs moments vs Monte Carlo

class TestPushforward:
    GRID = GridSpec(1, 256, 20.0, origin=-10.0)

    def _setup(self):
        t = 0.5
        path = noise.sample_brownian(seed=7, T=t, level=6)
        mesh = noise.WongZakaiMesh(path, delta=t * 2.0 ** -4)
        return gaussian_density(self.GRID, 0.0, 1.0), affine_spec(eta=1.0), mesh, t

    def test_jacobian_formula_matches_moment_solution(self):
        rho0, spec, mesh, t = self._setup()
        out = pushforward_jacobian(spec, rho0, mesh, t=t)
        m = forced_oscillator_mean(mesh, eta=1.0)
        exact = gaussian_density(self.GRID, m, abs(np.cos(t)))
        assert self.GRID.integrate(np.abs(out.density.values - exact.values)) <= 1e-3

    def test_monte_carlo_matches_within_stderr(self):
        rho0, spec, mesh, t = self._setup()
        jac = pushforward_jacobian(spec, rho0, mesh, t=t)
        mc = pushforward_mc(spec, rho0, mesh, t, 100_000, seed=5, substeps_per_cell=2)
        l1 = self.GRID.integrate(np.abs(mc.density.values - jac.density.values))
        assert l1 <= 3 * self.GRID.integrate(mc.stderr)


# the particle and density pictures of one flow: rho0 = 1 + 0.2 cos x and
# Phi0 = 0.05 sin x on the torus, launched at v0 = dPhi0/dx, with the noise
# Hamiltonian eta (sin x + |p|^2 / 2); WhfSpec's eta scales the kinetic term
# too, so whf_evolve is the kappa = 1 flow

def torus_flow(n, eta):
    g = GridSpec(1, n, 2 * np.pi)
    x = g.axis()
    rho0 = DensityField.normalized(g, 1.0 + 0.2 * np.cos(x))
    phi0 = PotentialField.projected(g, 0.05 * np.sin(x))
    v0 = VelocityField(g, gradient(g, phi0.values))
    zero = scalar_potential(np.zeros_like, np.zeros_like, np.zeros_like)
    sine = scalar_potential(np.sin, np.cos, lambda y: -np.sin(y))
    spec = HamiltonianSpec(1, zero[0], zero[1], sine[0], sine[1], eta=eta, d2f=zero[2],
                           d2sigma=sine[2], tilde_metric=IdentityMetric(), domain="torus")
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=0, T=0.5, level=10), 2.0 ** -5)
    return g, rho0, phi0, v0, spec, mesh


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_particles_and_density_flow_agree(eta):
    # second order in h, where launching the characteristics with the wrong
    # Jacobian (dx_t/dx0 at fixed p0) leaves a flat gap of 7e-3 to 1.6e-2
    gaps = []
    for n in (32, 64, 128):
        g, rho0, phi0, v0, spec, mesh = torus_flow(n, eta)
        wspec = WhfSpec(noise_energy=Functional(potential=np.sin), eta=eta)
        rho = whf_evolve(rho0, phi0, mesh, wspec, n // 8).rhos[-1]
        push = pushforward_jacobian(spec, rho0, mesh, 0.5, v0=v0, substeps_per_cell=n // 8)
        gaps.append(g.integrate(np.abs(rho.values - push.density.values)))
    assert gaps[1] <= 1e-5
    assert gaps[0] / gaps[1] >= 3.5 and gaps[1] / gaps[2] >= 3.5


def test_monte_carlo_with_a_varying_velocity():
    g, rho0, _, v0, spec, mesh = torus_flow(64, 0.5)
    jac = pushforward_jacobian(spec, rho0, mesh, 0.5, v0=v0, substeps_per_cell=2)
    mc = pushforward_mc(spec, rho0, mesh, 0.5, 25_000, seed=5, v0=v0, substeps_per_cell=2)
    l1 = g.integrate(np.abs(mc.density.values - jac.density.values))
    assert l1 <= 3 * g.integrate(mc.stderr)


# ---------------------------------------------------------------------------
# 5: averaged kinetic equation carries the extra diffusion term

def test_second_order_residual_and_hessian_ablation():
    s, ds, d2s = scalar_potential(
        lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
    )
    spec = HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=1.0)
    rng = np.random.default_rng(2)
    ensemble = PhaseEnsemble(rng.normal(0, 0.5, (1000, 1)), rng.normal(0, 0.5, (1000, 1)))
    args = dict(n_replications=200, dt=0.5 * 2.0 ** -6,
                sample_times=np.linspace(0, 0.5, 33), seed=1000)
    out = weak_residual_second_order(spec, ensemble, **args)
    assert np.all(out["mean_ci_low"] <= 0.0)
    assert np.all(out["mean_ci_high"] >= 0.0)
    # dropping the Hessian correction leaves a statistically visible bias
    ablated = weak_residual_second_order(spec, ensemble, include_hessian_term=False, **args)
    idx = ablated["labels"].index("one*p2")
    assert ablated["mean_ci_low"][idx] > 0.0 or ablated["mean_ci_high"][idx] < 0.0


# ---------------------------------------------------------------------------
# 6-7: wave equation mass conservation and noise convergence

class TestWaveEquation:
    def _u0(self, n=256):
        g = GridSpec(1, n, L)
        x = g.axis()
        return WaveField(g, (1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)).astype(complex))

    def test_mass_conserved_over_ten_thousand_steps(self):
        u0 = self._u0()
        path = noise.sample_brownian(seed=8, T=10.0, level=6, d_B=2)
        spec = NlsSpec(CUBIC["lam"], CUBIC["f"], CUBIC["F"], "wz_potential",
                       wiener=noise.WienerField(smooth_modes(), path), delta=0.625)
        traj = evolve(spec, u0, 10.0, 1e-3, sample_times=[10.0])
        assert abs(traj.waves[0].mass / u0.mass - 1.0) <= 1e-9

    def test_noise_refinement_order(self):
        out = wz_convergence_study(
            CUBIC["lam"], CUBIC["f"], CUBIC["F"], smooth_modes(), self._u0(), 1.0,
            [2.0 ** -k for k in range(3, 8)], 2.0 ** -8, 50, seed=13,
        )
        assert np.all(np.diff(out["rms_errors"]) < 0)
        assert out["order"] >= 0.35


# ---------------------------------------------------------------------------
# 8: hydrodynamic form of the wave equation

def test_hydrodynamic_residuals_halve_under_refinement():
    maxima = []
    for n, k in ((64, 6), (128, 7)):
        g = GridSpec(1, n, L)
        x = g.axis()
        u0 = WaveField(g, (1.0 + 0.2 * np.cos(x)).astype(complex))
        modes = ((lambda x: 0.4 * np.cos(x), lambda x: -0.4 * np.sin(x)),)
        path = noise.sample_brownian(seed=11, T=1.0, level=10)
        spec = NlsSpec(CUBIC["lam"], CUBIC["f"], CUBIC["F"], "wz_potential",
                       wiener=noise.WienerField(modes, path), delta=1.0)
        n_samples = 2 ** (k - 2)
        times = np.arange(0, n_samples + 1) * (0.1 / n_samples)
        traj = evolve(spec, u0, 0.1, 0.1 * 2.0 ** -k, sample_times=times)
        out = madelung_residual(traj.waves, spec, times)
        maxima.append((np.max(out["rho_residual"]), np.max(out["s_residual"])))
    assert maxima[0][0] / maxima[1][0] >= 2
    assert maxima[0][1] / maxima[1][1] >= 2


# ---------------------------------------------------------------------------
# 9: log-density change of variables

class TestLogDensityTransform:
    def test_roundtrip_exact(self):
        g = GridSpec(1, 64, L)
        rho = DensityField.normalized(g, 1.0 + 0.3 * np.cos(g.axis()))
        s_vals = 0.1 * np.sin(g.axis())
        phi, offset = hopf_cole(rho, s_vals)
        back = hopf_cole_inverse(rho, phi) + offset
        assert np.max(np.abs(back - s_vals)) <= 1e-12

    def test_forward_backward_residuals_halve(self):
        a = (lambda x: 0.3 + 0.1 * np.cos(x), lambda x: -0.1 * np.sin(x))
        maxima = []
        for n, steps in ((16, 64), (32, 128)):
            g = GridSpec(1, n, L)
            rho0 = DensityField.normalized(g, 1.0 + 0.3 * np.cos(g.axis()))
            phi0 = PotentialField.projected(g, 0.2 * np.sin(g.axis()))
            path = noise.sample_brownian(seed=3, T=0.2, level=6)
            spec = BridgeSpec(g, a[0], a[1], noise.WongZakaiMesh(path, 0.2), rho0, phi0)
            traj = bridge_flow(spec, 0.2, 0.2 / steps)
            times = np.linspace(0, 0.2, steps // 4 + 1)
            out = fb_residual(traj, spec, sample_times=times)
            maxima.append((np.max(out["forward"]), np.max(out["backward"])))
        assert maxima[0][0] / maxima[1][0] >= 2
        assert maxima[0][1] / maxima[1][1] >= 2


# ---------------------------------------------------------------------------
# 10: weighted elliptic solver order and residual

def test_elliptic_solver_second_order_and_residual():
    errs = []
    for n in (64, 128, 256):
        g = GridSpec(1, n, 1.0)
        x = g.axis()
        rvals = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        rho = DensityField.normalized(g, rvals)
        phi_star = np.sin(2 * np.pi * x)
        dphi = 2 * np.pi * np.cos(2 * np.pi * x)
        d2phi = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
        drho = -np.pi * np.sin(2 * np.pi * x)
        kappa = -(drho * dphi + rvals * d2phi)
        kappa -= kappa.mean()
        phi = elliptic_solve(rho, kappa)
        errs.append(np.max(np.abs(phi.values - (phi_star - phi_star.mean()))))
        applied = density._weighted_laplacian_apply(g, rho.values, phi.values)
        applied -= applied.mean()
        rel = np.linalg.norm(applied - kappa) / np.linalg.norm(kappa)
        assert rel <= 1e-10
    for a, b in zip(errs, errs[1:]):
        assert 3.5 <= a / b <= 4.5


# ---------------------------------------------------------------------------
# 11: reconstructed variational system on the density manifold

def test_geodesic_dual_residuals_halve():
    maxima = []
    for n, sub in ((64, 4), (128, 8)):
        g = GridSpec(1, n, 1.0)
        x = g.axis()
        rho0 = DensityField.normalized(g, 1.0 + 0.2 * np.cos(2 * np.pi * x))
        phi0 = PotentialField.projected(g, 0.02 * np.sin(2 * np.pi * x))
        path = noise.sample_brownian(seed=4, T=0.25, level=2)
        mesh = noise.WongZakaiMesh(path, delta=0.25 * 2.0 ** -2)
        traj = whf_evolve(rho0, phi0, mesh, WhfSpec(), substeps_per_cell=sub)
        stride = sub // 2
        out = el_residual(traj.rhos[::stride], traj.times[::stride], mesh)
        maxima.append((np.max(out["continuity"]), np.max(out["hjb"])))
    assert maxima[0][0] / maxima[1][0] >= 2
    assert maxima[0][1] / maxima[1][1] >= 2


# ---------------------------------------------------------------------------
# 12: bitwise reproducibility of study artifacts

def test_study_rerun_is_bitwise_identical(tmp_path):
    cfg = json.dumps({
        "seed": 17,
        "deltas": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
        "M": 8, "T": 1.0, "dt": 2.0 ** -9,
    })
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli_main(["converge", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        blobs.append({
            p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"
        })
    assert blobs[0] and blobs[0] == blobs[1]
