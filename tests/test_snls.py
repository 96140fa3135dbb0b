import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzflow import noise, snls
from wzflow.errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    InsufficientDataError,
    SupportError,
)
from wzflow.fields import GridSpec
from wzflow.snls import (
    DRIVER_KINDS,
    MadelungFields,
    NlsSpec,
    WaveField,
    energy,
    evolve,
    madelung,
    madelung_residual,
    step,
    wave_to_csv,
    wz_convergence_study,
)

L = 2 * np.pi
GRID = GridSpec(1, 128, L)

CUBIC = dict(lam=1.0, f=lambda s: s, F=lambda s: 0.5 * s ** 2)


def smooth_modes():
    return (
        (lambda x: 0.5 * np.cos(x), lambda x: -0.5 * np.sin(x)),
        (lambda x: 0.3 * np.sin(2 * x), lambda x: 0.6 * np.cos(2 * x)),
    )


def wz_spec(seed=1, delta=2.0 ** -3, level=9, modes=None, lam=1.0, driver="wz_potential"):
    modes = smooth_modes() if modes is None else modes
    path = noise.sample_brownian(seed=seed, T=1.0, level=level, d_B=len(modes))
    wiener = noise.WienerField(modes, path)
    return NlsSpec(lam, CUBIC["f"], CUBIC["F"], driver, wiener=wiener, delta=delta)


def packet(grid=GRID, width=1.0, k=0):
    x = grid.axis()
    return WaveField(grid, np.exp(-((x - np.pi) ** 2) / width) * np.exp(1j * k * x))


class TestStep:
    def test_constant_mode_closed_form(self):
        # Laplacian kills constants: u(t) = A exp(i c xi_delta(t))
        c, A = 1.7, 0.8
        modes = ((lambda x: c * np.ones_like(x), lambda x: np.zeros_like(x)),)
        path = noise.sample_brownian(seed=3, T=1.0, level=8)
        spec = NlsSpec(0.0, CUBIC["f"], CUBIC["F"], "wz_potential",
                       wiener=noise.WienerField(modes, path), delta=2.0 ** -3)
        u0 = WaveField(GRID, A * np.ones(GRID.n, dtype=complex))
        traj = evolve(spec, u0, 1.0, 2.0 ** -6, sample_times=np.linspace(0, 1, 9))
        mesh = noise.WongZakaiMesh(path, 2.0 ** -3)
        for t, u in zip(traj.times, traj.waves):
            xi, _ = noise.wz_eval(mesh, t)
            exact = A * np.exp(1j * c * float(xi[0]))
            assert np.max(np.abs(u.values - exact)) < 1e-12

    def test_plane_wave_dispersion_relation(self):
        k, A = 3, 0.7
        spec = NlsSpec(**CUBIC)
        x = GRID.axis()
        u0 = WaveField(GRID, A * np.exp(1j * k * x))
        traj = evolve(spec, u0, 1.0, 1e-3, sample_times=[1.0])
        exact = A * np.exp(1j * (k * x + (CUBIC["lam"] * A ** 2 - k ** 2) * 1.0))
        assert np.max(np.abs(traj.waves[0].values - exact)) < 1e-8

    def test_gaussian_free_evolution(self):
        # lam = 0, no noise: closed-form dispersive spreading of exp(-x^2)
        g = GridSpec(1, 512, 40.0, origin=-20.0)
        x = g.axis()
        u0 = WaveField(g, np.exp(-(x ** 2)).astype(complex))
        spec = NlsSpec(0.0, CUBIC["f"], CUBIC["F"])
        t = 0.5
        traj = evolve(spec, u0, t, 1.0 / 64, sample_times=[t])
        z = 1 + 4j * t
        exact = np.exp(-(x ** 2) / z) / np.sqrt(z)
        assert np.max(np.abs(traj.waves[0].values - exact)) < 1e-10

    def test_cell_straddle_guard(self):
        spec = wz_spec(delta=2.0 ** -3)
        u0 = packet()
        with pytest.raises(DomainError):
            step(spec, u0, t=2.0 ** -3 - 2.0 ** -5, dt=2.0 ** -4)

    def test_mass_exact_all_drivers(self):
        u0 = packet()
        drivers = [wz_spec(), NlsSpec(**CUBIC)]
        path = noise.sample_brownian(seed=4, T=1.0, level=7)
        drivers.append(
            NlsSpec(CUBIC["lam"], CUBIC["f"], CUBIC["F"], "white_dispersion", brownian=path)
        )
        drv = noise.DispersionDriver(1.0, 1.0, 0.5, 1.0, seed=2)
        drivers.append(
            NlsSpec(CUBIC["lam"], CUBIC["f"], CUBIC["F"], "random_dispersion", dispersion=drv)
        )
        for spec in drivers:
            u1 = step(spec, u0, 0.0, 2.0 ** -7)
            assert abs(u1.mass / u0.mass - 1.0) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(driver=st.sampled_from(DRIVER_KINDS), seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(3, 9))
    def test_mass_conserved_property(self, driver, seed, k):
        if driver == "wz_potential":
            spec = wz_spec(seed=seed, driver=driver)
        elif driver == "white_dispersion":
            path = noise.sample_brownian(seed=seed, T=1.0, level=9)
            spec = NlsSpec(**CUBIC, driver=driver, brownian=path)
        elif driver == "random_dispersion":
            drv = noise.DispersionDriver(1.0, 1.0, 0.5, 1.0, seed=seed)
            spec = NlsSpec(**CUBIC, driver=driver, dispersion=drv)
        else:
            spec = NlsSpec(**CUBIC)
        u0 = packet()
        traj = evolve(spec, u0, 0.5, 2.0 ** -k)
        assert abs(traj.mass[-1] / u0.mass - 1.0) < 1e-12

    def test_mass_drift_many_steps(self):
        spec = wz_spec(delta=2.0 ** -3)
        u0 = packet()
        traj = evolve(spec, u0, 1.0, 2.0 ** -11, sample_times=[1.0])
        assert abs(traj.waves[0].mass / u0.mass - 1.0) < 1e-11

    def test_splitting_second_order(self):
        spec = wz_spec(delta=2.0 ** -3)
        u0 = packet()
        ref = evolve(spec, u0, 0.5, 2.0 ** -9, sample_times=[0.5]).waves[0].values
        errs = []
        for k in (5, 6):
            u = evolve(spec, u0, 0.5, 2.0 ** -k, sample_times=[0.5]).waves[0].values
            errs.append(np.sqrt(np.sum(np.abs(u - ref) ** 2) * GRID.h))
        assert 3.0 < errs[0] / errs[1] < 5.5

    def test_gauge_covariance(self):
        spec = wz_spec()
        u0 = packet()
        theta = 0.923
        u1 = step(spec, u0, 0.0, 2.0 ** -6)
        u1r = step(spec, WaveField(GRID, u0.values * np.exp(1j * theta)), 0.0, 2.0 ** -6)
        assert np.max(np.abs(u1r.values - u1.values * np.exp(1j * theta))) < 1e-12

    def test_translation_equivariance(self):
        h = GRID.h
        modes = smooth_modes()
        shifted_modes = tuple(
            (lambda x, q=q: q(x - h), lambda x, dq=dq: dq(x - h)) for q, dq in modes
        )
        path = noise.sample_brownian(seed=5, T=1.0, level=8, d_B=2)
        mk = lambda m: NlsSpec(1.0, CUBIC["f"], CUBIC["F"], "wz_potential",
                               wiener=noise.WienerField(m, path), delta=2.0 ** -3)
        u0 = packet()
        a = evolve(mk(modes), u0, 0.25, 2.0 ** -5, sample_times=[0.25]).waves[0]
        u0s = WaveField(GRID, np.roll(u0.values, 1))
        b = evolve(mk(shifted_modes), u0s, 0.25, 2.0 ** -5, sample_times=[0.25]).waves[0]
        assert np.max(np.abs(b.values - np.roll(a.values, 1))) < 1e-11


class TestWaveField:
    @pytest.mark.parametrize("bad", [complex(1.0, np.nan), complex(np.inf, 0.0),
                                     complex(0.0, -np.inf), complex(np.nan, 1.0)])
    def test_one_non_finite_part_raises(self, bad):
        values = packet().values.copy()
        values[7] = bad
        with pytest.raises(EvaluationError, match="non-finite"):
            WaveField(GRID, values)


class TestEvolve:
    @pytest.mark.parametrize("t", [2.0, -0.25])
    def test_sample_time_outside_horizon(self, t):
        with pytest.raises(ConfigurationError, match="outside"):
            evolve(NlsSpec(**CUBIC), packet(), 1.0, 0.25, sample_times=[0.5, t])

    @pytest.mark.parametrize("dt", [0.0, -0.25, np.nan, np.inf])
    def test_nonpositive_dt(self, dt):
        with pytest.raises(ConfigurationError, match="positive"):
            evolve(NlsSpec(**CUBIC), packet(), 1.0, dt)

    @pytest.mark.parametrize("T,dt", [(np.nan, 0.25), (np.inf, 0.25), (1.0, 1e-320)])
    def test_nonfinite_step_count(self, T, dt):
        with pytest.raises(ConfigurationError, match="not a finite number of steps"):
            evolve(NlsSpec(**CUBIC), packet(), T, dt)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_time(self, t):
        with pytest.raises(ConfigurationError, match="not finite"):
            evolve(NlsSpec(**CUBIC), packet(), 1.0, 0.25, sample_times=[0.5, t])


class TestEnergy:
    def test_constant_field(self):
        A = 0.9
        u = WaveField(GRID, A * np.ones(GRID.n, dtype=complex))
        spec = NlsSpec(**CUBIC)
        # H = -(lam/2) F(A^2) L with F(r) = r^2/2
        assert energy(spec, u) == pytest.approx(-0.25 * A ** 4 * L, rel=1e-12)

    def test_plane_wave(self):
        A, k = 0.7, 4
        u = WaveField(GRID, A * np.exp(1j * k * GRID.axis()))
        spec = NlsSpec(**CUBIC)
        expect = 0.5 * k ** 2 * A ** 2 * L - 0.25 * A ** 4 * L
        assert energy(spec, u) == pytest.approx(expect, rel=1e-12)

    def test_deterministic_drift_second_order(self):
        spec = NlsSpec(**CUBIC)
        u0 = packet()
        h0 = energy(spec, u0)
        drifts = []
        for k in (6, 7):
            traj = evolve(spec, u0, 1.0, 2.0 ** -k, sample_times=[1.0])
            drifts.append(abs(traj.energy[0] - h0))
        assert 2.5 < drifts[0] / drifts[1] < 6.0


class TestMadelung:
    def test_real_positive(self):
        u = WaveField(GRID, (1.0 + 0.5 * np.cos(GRID.axis())).astype(complex))
        m = madelung(u)
        assert np.max(np.abs(m.S)) < 1e-14
        assert m.winding == 0
        assert m.n_components == 1

    def test_pure_phase_winding(self):
        k = 2
        u = WaveField(GRID, np.exp(1j * k * GRID.axis()))
        m = madelung(u)
        assert m.winding == k
        x = GRID.axis()
        # S = kx up to a 2*pi multiple, continuous along the unwrap path
        diffs = np.diff(m.S)
        assert np.max(np.abs(diffs[np.abs(diffs) < 1] - k * GRID.h)) < 1e-12

    def test_roundtrip(self):
        x = GRID.axis()
        u = WaveField(
            GRID,
            (1.0 + 0.3 * np.cos(x)) * np.exp(1j * (0.4 * np.sin(2 * x) + 1.0)),
        )
        m = madelung(u)
        recon = np.sqrt(m.rho) * np.exp(1j * m.S)
        assert np.max(np.abs(recon[m.mask] - u.values[m.mask])) < 1e-12

    def test_disconnected_mask(self):
        x = GRID.axis()
        vals = np.exp(-80 * (x - 1.5) ** 2) + np.exp(-80 * (x - 4.5) ** 2)
        u = WaveField(GRID, vals.astype(complex))
        m = madelung(u, support_threshold=1e-3)
        assert m.n_components == 2
        recon = np.sqrt(m.rho) * np.exp(1j * m.S)
        assert np.max(np.abs(recon[m.mask] - u.values[m.mask])) < 1e-12


class TestMadelungResidual:
    def test_white_dispersion_rejected(self):
        path = noise.sample_brownian(seed=1, T=1.0, level=6)
        spec = NlsSpec(1.0, CUBIC["f"], CUBIC["F"], "white_dispersion", brownian=path)
        with pytest.raises(ConfigurationError):
            madelung_residual([packet()] * 3, spec, np.linspace(0, 0.1, 3))

    def test_constant_data_closed_form(self):
        c, A = 0.9, 1.1
        modes = ((lambda x: c * np.ones_like(x), lambda x: np.zeros_like(x)),)
        path = noise.sample_brownian(seed=7, T=1.0, level=8)
        spec = NlsSpec(0.5, CUBIC["f"], CUBIC["F"], "wz_potential",
                       wiener=noise.WienerField(modes, path), delta=1.0)
        u0 = WaveField(GRID, A * np.ones(GRID.n, dtype=complex))
        times = np.linspace(0.25, 0.75, 5)
        traj = evolve(spec, u0, 0.75, 2.0 ** -4, sample_times=times)
        out = madelung_residual(traj.waves, spec, times)
        assert np.max(out["rho_residual"]) < 1e-10
        assert np.max(out["s_residual"]) < 1e-10

    def test_support_error(self):
        g = GridSpec(1, 128, 20.0, origin=-10.0)
        x = g.axis()
        u = WaveField(g, np.exp(-50 * x ** 2).astype(complex))
        spec = NlsSpec(**CUBIC)
        with pytest.raises(SupportError):
            madelung_residual([u] * 3, spec, np.linspace(0, 0.1, 3))

    def test_nonuniform_times_rejected(self):
        with pytest.raises(ConfigurationError, match="uniform"):
            madelung_residual([packet()] * 4, NlsSpec(**CUBIC), np.array([0.0, 0.1, 0.2, 0.35]))

    def test_refinement_halves_residuals(self):
        # joint (h, dt) halving shrinks both hydrodynamic residuals by >= 2
        maxima = []
        for n, k in ((64, 6), (128, 7)):
            g = GridSpec(1, n, L)
            x = g.axis()
            u0 = WaveField(g, (1.0 + 0.2 * np.cos(x)).astype(complex))
            modes = ((lambda x: 0.4 * np.cos(x), lambda x: -0.4 * np.sin(x)),)
            path = noise.sample_brownian(seed=11, T=1.0, level=10)
            spec = NlsSpec(1.0, CUBIC["f"], CUBIC["F"], "wz_potential",
                           wiener=noise.WienerField(modes, path), delta=1.0)
            n_samples = 2 ** (k - 2)
            times = np.arange(0, n_samples + 1) * (0.25 / n_samples)
            traj = evolve(spec, u0, 0.25, 0.25 * 2.0 ** -k, sample_times=times)
            out = madelung_residual(traj.waves, spec, times)
            maxima.append((np.max(out["rho_residual"]), np.max(out["s_residual"])))
        assert maxima[0][0] / maxima[1][0] >= 2
        assert maxima[0][1] / maxima[1][1] >= 2


class TestConvergenceStudy:
    def test_level_guard(self):
        with pytest.raises(InsufficientDataError):
            wz_convergence_study(1.0, CUBIC["f"], CUBIC["F"], smooth_modes(),
                                 packet(), 1.0, [0.5, 0.25], 2.0 ** -6, 2, seed=0)

    def test_path_guard(self):
        with pytest.raises(InsufficientDataError, match="path"):
            wz_convergence_study(1.0, CUBIC["f"], CUBIC["F"], smooth_modes(), packet(),
                                 1.0, [0.5, 0.25, 0.125], 2.0 ** -6, 0, seed=0)

    @pytest.mark.parametrize("deltas", [[0.25, 0.125, 0.125], [0.25, 0.25, 0.125]])
    def test_repeated_deltas_rejected(self, deltas):
        with pytest.raises(ConfigurationError, match="distinct"):
            wz_convergence_study(1.0, CUBIC["f"], CUBIC["F"], smooth_modes(), packet(),
                                 1.0, deltas, 2.0 ** -6, 1, seed=0)

    def test_no_noise_flag(self):
        modes = ((lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),)
        out = wz_convergence_study(
            1.0, CUBIC["f"], CUBIC["F"], modes, packet(), 1.0,
            [2.0 ** -3, 2.0 ** -4, 2.0 ** -5], 2.0 ** -6, 2, seed=0,
        )
        assert out["no_noise"] is True
        assert out["order"] is None

    def test_cubic_order(self):
        g = GridSpec(1, 64, L)
        x = g.axis()
        u0 = WaveField(g, (1.0 + 0.2 * np.cos(x)).astype(complex))
        out = wz_convergence_study(
            1.0, CUBIC["f"], CUBIC["F"], smooth_modes(), u0, 1.0,
            [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
            2.0 ** -8, 8, seed=42,
        )
        assert np.all(np.diff(out["rms_errors"]) < 0)
        assert out["order"] >= 0.3


def test_wave_csv(tmp_path):
    u = packet()
    out = tmp_path / "wave.csv"
    wave_to_csv(u, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,re_u,im_u,rho,S"
    assert len(lines) == 1 + GRID.n


def test_wave_csv_bytes(tmp_path):
    u = WaveField(GridSpec(1, 8, 0.8), np.array([0.5, 0.5j, 0.25, 0, 0, 0, 0, 0]))
    out = tmp_path / "wave.csv"
    wave_to_csv(u, out)
    assert out.read_text() == (
        "x,re_u,im_u,rho,S\n"
        "0,0.5,0,0.25,0\n"
        "0.10000000000000001,0,0.5,0.25,1.5707963267948966\n"
        "0.20000000000000001,0.25,0,0.0625,0\n"
        "0.30000000000000004,0,0,0,nan\n"
        "0.40000000000000002,0,0,0,nan\n"
        "0.5,0,0,0,nan\n"
        "0.60000000000000009,0,0,0,nan\n"
        "0.70000000000000007,0,0,0,nan\n"
    )
