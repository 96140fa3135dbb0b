import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzflow import density, fields, noise, phase
from wzflow.density import (
    Functional,
    WhfSpec,
    continuity_residual,
    el_residual,
    elliptic_solve,
    fisher_and_bohm,
    generalized_whf_step,
    pushforward_jacobian,
    pushforward_mc,
    wasserstein_metric,
    whf_energy,
    whf_evolve,
)
from wzflow.errors import (
    ConfigurationError,
    ConvergenceError,
    DiffeomorphismLostError,
    DomainError,
    GaugeError,
    StabilityError,
    SupportError,
)
from wzflow.fields import DensityField, GridSpec, PotentialField, VelocityField
from wzflow.phase import HamiltonianSpec, scalar_potential


# ---------------------------------------------------------------------------
# helpers shared by the push-forward tests

def affine_spec(eta=1.0):
    """f = x^2/2, sigma(x) = x: the characteristics are affine in x0."""
    f, df, d2f = scalar_potential(
        lambda x: 0.5 * x ** 2, lambda x: x, lambda x: np.ones_like(x)
    )
    s, ds, d2s = scalar_potential(
        lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)
    )
    return HamiltonianSpec(
        dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta
    )


def forced_oscillator_mean(mesh, eta, n_cells=None):
    """Exact solution of m'' + m = -eta * xi_dot, m(0) = m'(0) = 0,
    propagated cell by cell (xi_dot constant per cell)."""
    m, mp = 0.0, 0.0
    tau = mesh.delta
    c, s = np.cos(tau), np.sin(tau)
    for k in range(mesh.n_cells if n_cells is None else n_cells):
        drive = eta * float(mesh.cell_derivative(k).reshape(-1)[0])
        u = m + drive
        u_new = u * c + mp * s
        mp = -u * s + mp * c
        m = u_new - drive
    return m


def gaussian_density(grid, mean, std):
    x = grid.axis()
    vals = np.exp(-0.5 * ((x - mean) / std) ** 2)
    return DensityField.normalized(grid, vals)


GRID = GridSpec(1, 256, 20.0, origin=-10.0)


# ---------------------------------------------------------------------------
# elliptic pseudo-inverse

class TestEllipticSolve:
    def test_zero_source(self):
        g = GridSpec(1, 64, 1.0)
        rho = DensityField.normalized(g, np.ones(64))
        phi = elliptic_solve(rho, np.zeros(64))
        assert np.all(phi.values == 0.0)

    def test_uniform_density_fourier_mode(self):
        L = 1.0
        for n, tol in ((64, 2.5e-5), (128, 7e-6)):
            g = GridSpec(1, n, L)
            rho = DensityField.normalized(g, np.ones(n))
            x = g.axis()
            kappa = np.cos(2 * np.pi * x / L)
            phi = elliptic_solve(rho, kappa)
            exact = (L / (2 * np.pi)) ** 2 * kappa / (1.0 / L)
            assert np.max(np.abs(phi.values - exact)) < tol

    def test_manufactured_roundtrip(self):
        g = GridSpec(1, 128, 1.0)
        x = g.axis()
        rho = DensityField.normalized(g, 1.0 + 0.5 * np.cos(2 * np.pi * x))
        phi_star = 0.3 * np.sin(4 * np.pi * x)
        kappa = density._weighted_laplacian_apply(g, rho.values, phi_star)
        phi = elliptic_solve(rho, kappa)
        assert np.max(np.abs(phi.values - phi_star)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n=st.sampled_from([8, 16, 32]), period=st.floats(0.1, 10.0),
           contrast=st.floats(0.0, 1.0))
    def test_residual_at_or_below_tol(self, seed, n, period, contrast):
        g = GridSpec(1, n, period)
        rng = np.random.default_rng(seed)
        rho = DensityField.normalized(g, np.exp(contrast * rng.standard_normal(g.shape)))
        kappa = rng.standard_normal(g.shape)
        kappa -= kappa.mean()
        phi = elliptic_solve(rho, kappa)
        lhs = density._weighted_laplacian_apply(g, rho.values, phi.values)
        assert np.linalg.norm(lhs - kappa) <= density.ELLIPTIC_TOL * np.linalg.norm(kappa)

    def test_second_order_convergence(self):
        # manufactured continuum solution; halving h divides the max error
        # by a factor close to 4
        L = 1.0
        errs = []
        for n in (64, 128, 256):
            g = GridSpec(1, n, L)
            x = g.axis()
            rvals = (1.0 + 0.5 * np.cos(2 * np.pi * x)) / L
            rho = DensityField.normalized(g, rvals)
            phi_star = np.sin(2 * np.pi * x)
            # continuum source -d/dx(rho dphi*/dx)
            dphi = 2 * np.pi * np.cos(2 * np.pi * x)
            d2phi = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
            drho = -np.pi * np.sin(2 * np.pi * x)
            kappa = -(drho * dphi + rvals * d2phi)
            kappa -= kappa.mean()
            phi = elliptic_solve(rho, kappa)
            errs.append(np.max(np.abs(phi.values - (phi_star - phi_star.mean()))))
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_gauge_error(self):
        g = GridSpec(1, 64, 1.0)
        rho = DensityField.normalized(g, np.ones(64))
        with pytest.raises(GaugeError):
            elliptic_solve(rho, np.ones(64))

    def test_support_error(self):
        g = GridSpec(1, 64, 1.0)
        vals = np.ones(64)
        vals[0] = 0.0
        rho = DensityField.normalized(g, vals)
        with pytest.raises(SupportError):
            elliptic_solve(rho, np.sin(2 * np.pi * g.axis()))

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(density, "ELLIPTIC_MAXITER", 1)
        g = GridSpec(1, 64, 1.0)
        rho = DensityField.normalized(g, 1.0 + 0.9 * np.cos(2 * np.pi * g.axis()))
        with pytest.raises(ConvergenceError):
            elliptic_solve(rho, np.sin(2 * np.pi * g.axis()))


    @pytest.mark.parametrize("grid", [GridSpec(1, 128, 1.0), GridSpec(1, 32, 3.0)])
    def test_matches_scipy_cg_bitwise(self, grid):
        # the solver's PCG follows scipy's cg operation order step for step
        linalg = pytest.importorskip("scipy.sparse.linalg")
        rng = np.random.default_rng(7)
        rho = DensityField.normalized(grid, 1.0 + 0.5 * rng.random(grid.shape))
        kappa = rng.standard_normal(grid.shape)
        kappa -= kappa.mean()
        sym = density._fd_symbol(grid) * float(np.mean(rho.values))
        inv_sym = np.where(sym > 1e-30, 1.0 / np.where(sym > 1e-30, sym, 1.0), 0.0)

        def apply_a(v):
            out = density._weighted_laplacian_apply(grid, rho.values, v.reshape(grid.shape))
            return (out - out.mean()).ravel()

        def apply_m(v):
            out = np.real(np.fft.ifftn(np.fft.fftn(v.reshape(grid.shape)) * inv_sym))
            return (out - out.mean()).ravel()

        n = rho.values.size
        b = (kappa - kappa.mean()).ravel()
        phi, info = linalg.cg(
            linalg.LinearOperator((n, n), matvec=apply_a), b, rtol=1e-12, atol=0.0,
            maxiter=5000, M=linalg.LinearOperator((n, n), matvec=apply_m),
        )
        assert info == 0
        ref = PotentialField.projected(grid, phi.reshape(grid.shape)).values
        assert np.array_equal(elliptic_solve(rho, kappa).values, ref)


class TestWassersteinMetric:
    def setup_method(self):
        self.g = GridSpec(1, 64, 1.0)
        x = self.g.axis()
        self.rho = DensityField.normalized(self.g, 1.0 + 0.3 * np.cos(2 * np.pi * x))
        self.k1 = np.sin(2 * np.pi * x)
        self.k2 = np.cos(4 * np.pi * x)

    def test_zero(self):
        assert wasserstein_metric(self.rho, np.zeros(64), np.zeros(64)) == 0.0

    def test_symmetry_and_positivity(self):
        a = wasserstein_metric(self.rho, self.k1, self.k2)
        b = wasserstein_metric(self.rho, self.k2, self.k1)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))
        assert wasserstein_metric(self.rho, self.k1, self.k1) > 0

    def test_dual_form(self):
        # g_W(k1, k2) = int k1 (-Lap_rho)^dagger k2 for the discrete operator
        a = wasserstein_metric(self.rho, self.k1, self.k2)
        phi2 = elliptic_solve(self.rho, self.k2)
        dual = self.g.integrate((self.k1 - self.k1.mean()) * phi2.values)
        assert abs(a - dual) < 1e-9 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# Fisher information

class TestFisher:
    def test_uniform(self):
        g = GridSpec(1, 64, 1.0)
        res = fisher_and_bohm(DensityField.normalized(g, np.ones(64)))
        assert res.value == pytest.approx(0.0, abs=1e-20)
        assert np.max(np.abs(res.bohm)) < 1e-12

    def test_against_dense_quadrature(self):
        L = 1.0
        g = GridSpec(1, 256, L)
        rho = DensityField.normalized(g, 1.0 + 0.5 * np.cos(2 * np.pi * g.axis()))
        # reference: analytic integrand on a 2^15-point grid, trapezoid
        # (spectrally accurate for smooth periodic integrands)
        xf = np.linspace(0, L, 2 ** 15, endpoint=False)
        r = 1.0 + 0.5 * np.cos(2 * np.pi * xf)
        dr = -np.pi * np.sin(2 * np.pi * xf)
        ref = np.sum(dr ** 2 / r) * (L / 2 ** 15)
        assert abs(fisher_and_bohm(rho).value - ref) < 1e-8

    def test_form_agreement(self):
        L = 1.0
        discs = []
        for n in (64, 128):
            g = GridSpec(1, n, L)
            x = g.axis()
            rho = DensityField.normalized(
                g, 0.05 + np.exp(-100 * (x - 0.5) ** 2)
            )
            discs.append(fisher_and_bohm(rho).form_discrepancy)
        assert discs[0] < 1e-3
        assert discs[1] < discs[0]

    def test_support_error(self):
        g = GridSpec(1, 64, 1.0)
        vals = np.ones(64)
        vals[3] = 0.0
        with pytest.raises(SupportError):
            fisher_and_bohm(DensityField.normalized(g, vals))


# ---------------------------------------------------------------------------
# push-forward

class TestPushforwardJacobian:
    def test_identity_at_t0(self):
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        spec = affine_spec()
        path = noise.sample_brownian(seed=1, T=0.5, level=6)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -4)
        out = pushforward_jacobian(spec, rho0, mesh, t=0.0)
        assert np.max(np.abs(out.density.values - rho0.values)) < 1e-12
        assert out.renorm_factor == pytest.approx(1.0, abs=1e-12)

    def test_nan_time_rejected(self):
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        path = noise.sample_brownian(seed=1, T=0.5, level=6)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -4)
        with pytest.raises(ConfigurationError, match="align"):
            pushforward_jacobian(affine_spec(), rho0, mesh, t=np.nan)

    def test_free_transport_periodic_shift(self):
        L = 2 * np.pi
        g = GridSpec(1, 128, L)
        rho0 = DensityField.normalized(g, 1.0 + 0.5 * np.cos(g.axis()))
        z = scalar_potential(
            lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)
        )
        spec = HamiltonianSpec(
            dim=1, f=z[0], df=z[1], d2f=z[2], sigma=z[0], dsigma=z[1], d2sigma=z[2],
            domain="torus", period=L,
        )
        c = 0.731
        v0 = VelocityField(g, np.full(128, c))
        path = noise.sample_brownian(seed=2, T=1.0, level=5)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -3)
        out = pushforward_jacobian(spec, rho0, mesh, t=1.0, v0=v0)
        shifted = DensityField.normalized(g, 1.0 + 0.5 * np.cos(g.axis() - c))
        assert np.max(np.abs(out.density.values - shifted.values)) < 1e-8

    def test_affine_gaussian(self):
        # x_t = x0 cos t + m(t) for the harmonic potential with additive
        # noise; the image of a centered Gaussian is the Gaussian with
        # mean m(t) and standard deviation |cos t|
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        spec = affine_spec(eta=1.0)
        t = 0.5
        path = noise.sample_brownian(seed=7, T=t, level=6)
        mesh = noise.WongZakaiMesh(path, delta=t * 2.0 ** -4)
        out = pushforward_jacobian(spec, rho0, mesh, t=t)
        m = forced_oscillator_mean(mesh, eta=1.0)
        exact = gaussian_density(GRID, m, abs(np.cos(t)))
        l1 = GRID.integrate(np.abs(out.density.values - exact.values))
        assert l1 <= 1e-3

    def test_diffeo_loss_raises(self):
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        spec = affine_spec(eta=0.0)
        path = noise.sample_brownian(seed=3, T=2.0, level=6)
        mesh = noise.WongZakaiMesh(path, delta=2.0 * 2.0 ** -4)
        with pytest.raises(DiffeomorphismLostError) as exc:
            pushforward_jacobian(spec, rho0, mesh, t=1.625)
        assert exc.value.loss_time == pytest.approx(np.pi / 2, abs=0.05)


class TestPushforwardMc:
    def test_particle_count_guard(self):
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        path = noise.sample_brownian(seed=1, T=0.5, level=4)
        mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -4)
        with pytest.raises(ConfigurationError):
            pushforward_mc(affine_spec(), rho0, mesh, 0.0, 10, seed=0)

    def test_histogram_at_t0(self):
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        z = affine_spec(eta=0.0)
        path = noise.sample_brownian(seed=1, T=0.5, level=0)
        mesh = noise.WongZakaiMesh(path, delta=0.5)
        out = pushforward_mc(z, rho0, mesh, 0.0, 100_000, seed=11, substeps_per_cell=1)
        l1 = GRID.integrate(np.abs(out.density.values - rho0.values))
        budget = 3 * GRID.integrate(out.stderr)
        assert l1 <= budget

    def test_matches_jacobian_formula(self):
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        spec = affine_spec(eta=1.0)
        t = 0.5
        path = noise.sample_brownian(seed=7, T=t, level=6)
        mesh = noise.WongZakaiMesh(path, delta=t * 2.0 ** -4)
        jac = pushforward_jacobian(spec, rho0, mesh, t=t)
        mc = pushforward_mc(
            spec, rho0, mesh, t, 100_000, seed=5, substeps_per_cell=2
        )
        l1 = GRID.integrate(np.abs(mc.density.values - jac.density.values))
        assert l1 <= 3 * GRID.integrate(mc.stderr)

    def test_monte_carlo_rate(self):
        # L1 sampling error ~ N^{-1/2}: fitted exponent 0.5 +/- 0.15
        rho0 = gaussian_density(GRID, 0.0, 1.0)
        z = affine_spec(eta=0.0)
        path = noise.sample_brownian(seed=1, T=0.5, level=0)
        mesh = noise.WongZakaiMesh(path, delta=0.5)
        sizes = np.array([2000, 8000, 32000, 128000])
        errs = []
        for i, n in enumerate(sizes):
            out = pushforward_mc(z, rho0, mesh, 0.0, int(n), seed=100 + i, substeps_per_cell=1)
            errs.append(GRID.integrate(np.abs(out.density.values - rho0.values)))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -0.65 <= slope <= -0.35


# ---------------------------------------------------------------------------
# generalized flow on the density manifold

def smooth_state(n=64, amp=0.02):
    g = GridSpec(1, n, 1.0)
    x = g.axis()
    rho = DensityField.normalized(g, 1.0 + 0.2 * np.cos(2 * np.pi * x))
    phi = PotentialField.projected(g, amp * np.sin(2 * np.pi * x))
    return g, rho, phi


class TestWhfStep:
    def test_rest_point(self):
        g, rho, _ = smooth_state()
        phi = PotentialField(g, np.zeros(g.n))
        wspec = WhfSpec()
        rho2, phi2, rep = generalized_whf_step(rho, phi, 0.3, wspec, 1e-2)
        assert np.max(np.abs(rho2.values - rho.values)) < 1e-14
        assert np.max(np.abs(phi2.values)) < 1e-14
        assert rep["clipped_fraction"] == 0.0

    def test_cfl_guard(self):
        g, rho, phi = smooth_state(amp=0.5)
        with pytest.raises(StabilityError) as exc:
            generalized_whf_step(rho, phi, 0.0, WhfSpec(), dt=1.0)
        assert exc.value.suggested_dt < 1.0

    def test_overflow_halves_the_step(self):
        # the stages overflow inside the stability bound; the guard turns
        # that into the non-finite failure, with no floating-point warning
        g, rho, _ = smooth_state()
        huge = WhfSpec(Functional(potential=lambda x: 1e300 * np.cos(2 * np.pi * x)))
        with pytest.raises(StabilityError, match="non-finite") as exc:
            generalized_whf_step(rho, PotentialField(g, np.zeros(g.n)), 0.0, huge, 1e-2)
        assert exc.value.suggested_dt == 0.5e-2

    def test_t_end_on_a_mid_cell_substep(self):
        # the march stops at the first substep that reaches t_end
        g, rho0, phi0 = smooth_state()
        mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=2, T=0.25, level=4), delta=0.0625)
        traj = whf_evolve(rho0, phi0, mesh, WhfSpec(eta=0.3), substeps_per_cell=4, t_end=0.078125)
        assert traj.times[-1] == 0.078125
        assert len(traj.rhos) == len(traj.times) == 6

    def test_t_end_beyond_the_noise_path(self):
        g, rho0, phi0 = smooth_state()
        mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=2, T=0.25, level=4), delta=0.0625)
        with pytest.raises(ConfigurationError):
            whf_evolve(rho0, phi0, mesh, WhfSpec(), substeps_per_cell=4, t_end=1.0)

    def test_deterministic_energy_conservation(self):
        # eta = 0 with a linear drift functional: H = int |grad Phi|^2 rho/2
        # + int f rho drifts at O(dt^4) over a fixed horizon
        g, rho0, phi0 = smooth_state()
        wspec = WhfSpec(
            free_energy=Functional(lambda x: 0.1 * np.cos(2 * np.pi * x))
        )
        path = noise.sample_brownian(seed=1, T=0.25, level=2)
        mesh = noise.WongZakaiMesh(path, delta=0.25 * 2.0 ** -2)
        h0 = whf_energy(rho0, phi0, wspec)
        drifts = []
        for sub in (2, 4):
            traj = whf_evolve(rho0, phi0, mesh, wspec, substeps_per_cell=sub)
            rho_T, phi_T = traj.rhos[-1], traj.phis[-1]
            drifts.append(abs(whf_energy(rho_T, phi_T, wspec) - h0))
        assert drifts[0] / drifts[1] > 8

    def test_wz_self_convergence_factor(self):
        # coupled noise: halving delta shrinks the gap to a fine reference
        # by roughly sqrt(2)
        g, rho0, phi0 = smooth_state()
        wspec = WhfSpec(eta=0.4)
        path = noise.sample_brownian(seed=9, T=0.5, level=8)
        gaps = []
        ref = whf_evolve(
            rho0, phi0, noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -6), wspec, 2
        )
        for ell in (2, 3, 4):
            mesh = noise.WongZakaiMesh(path, delta=0.5 * 2.0 ** -ell)
            traj = whf_evolve(rho0, phi0, mesh, wspec, substeps_per_cell=2 ** (6 - ell + 1))
            sup = 0.0
            for t in np.linspace(0.125, 0.5, 4):
                r1, _ = traj.at(t)
                r2, _ = ref.at(t)
                sup = max(sup, np.sqrt(g.integrate((r1.values - r2.values) ** 2)))
            gaps.append(sup)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_nan_time_matches_no_state(self):
        g, rho0, phi0 = smooth_state()
        mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=2, T=0.25, level=4), delta=0.0625)
        traj = whf_evolve(rho0, phi0, mesh, WhfSpec(eta=0.3), substeps_per_cell=4, t_end=0.0625)
        assert traj.at(0.0)[0] is traj.rhos[0]
        with pytest.raises(ConfigurationError, match="align with the step grid: it is not finite"):
            traj.at(np.nan)


class TestElResidual:
    def test_stationary(self):
        g, rho, _ = smooth_state()
        path = noise.sample_brownian(seed=1, T=1.0, level=2)
        mesh = noise.WongZakaiMesh(path, delta=2.0 ** -1)
        rhos = [rho] * 7
        times = np.linspace(0, 0.6, 7)
        out = el_residual(rhos, times, mesh)
        assert np.max(out["continuity"]) < 1e-12
        assert np.max(out["hjb"]) < 1e-12

    def test_linear_functional_variation(self):
        g = GridSpec(1, 64, 1.0)
        V = 0.3 * np.cos(2 * np.pi * g.axis())
        fun = Functional(potential=V)
        rho = DensityField.normalized(g, np.ones(64))
        assert np.array_equal(fun.variation(g, rho.values), V)

    def test_geodesic_self_consistency(self):
        # residuals of the reconstructed system shrink by >= 2 under joint
        # (h, dt) refinement of the deterministic flow
        maxima = []
        for n, sub in ((64, 4), (128, 8)):
            g = GridSpec(1, n, 1.0)
            x = g.axis()
            rho0 = DensityField.normalized(g, 1.0 + 0.2 * np.cos(2 * np.pi * x))
            phi0 = PotentialField.projected(g, 0.02 * np.sin(2 * np.pi * x))
            wspec = WhfSpec()
            path = noise.sample_brownian(seed=4, T=0.25, level=2)
            mesh = noise.WongZakaiMesh(path, delta=0.25 * 2.0 ** -2)
            traj = whf_evolve(rho0, phi0, mesh, wspec, substeps_per_cell=sub)
            stride = sub // 2
            rhos = traj.rhos[::stride]
            times = traj.times[::stride]
            out = el_residual(rhos, times, mesh)
            maxima.append((np.max(out["continuity"]), np.max(out["hjb"])))
        assert maxima[0][0] / maxima[1][0] >= 2
        assert maxima[0][1] / maxima[1][1] >= 2


class TestContinuityResidual:
    def test_static(self):
        g, rho, _ = smooth_state()
        rhos = [rho] * 5
        vs = [VelocityField(g, np.zeros(g.n))] * 5
        out = continuity_residual(rhos, vs, np.linspace(0, 1, 5))
        assert np.max(out["max_per_time"]) < 1e-15

    def test_nonuniform_times_rejected(self):
        g, rho, _ = smooth_state()
        vs = [VelocityField(g, np.zeros(g.n))] * 5
        with pytest.raises(ConfigurationError, match="uniform"):
            continuity_residual([rho] * 5, vs, np.array([0.0, 0.1, 0.2, 0.4, 0.5]))

    def test_translation_refinement_ratio(self):
        # rho(x, t) = rho0(x - ct): residual is pure centered-difference
        # error, O(dt^2)
        g = GridSpec(1, 64, 1.0)
        c = 0.37
        res = []
        for m in (9, 17):
            times = np.linspace(0, 0.2, m)
            rhos = [
                DensityField.normalized(g, 1.0 + 0.4 * np.cos(2 * np.pi * (g.axis() - c * t)))
                for t in times
            ]
            vs = [VelocityField(g, np.full(g.n, c))] * m
            out = continuity_residual(rhos, vs, times)
            res.append(np.max(out["max_per_time"]))
        assert 3.0 < res[0] / res[1] < 5.0
