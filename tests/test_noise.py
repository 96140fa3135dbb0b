import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wzflow import noise
from wzflow.errors import CapacityError, ConfigurationError, DomainError


def test_two_node_path():
    p = noise.sample_brownian(seed=1, T=1.0, level=0, d_B=1)
    assert p.values.shape == (2, 1)
    assert p.values[0, 0] == 0.0
    assert np.isfinite(p.values[1, 0])


def test_determinism():
    a = noise.sample_brownian(seed=1, T=1.0, level=5, d_B=2)
    b = noise.sample_brownian(seed=1, T=1.0, level=5, d_B=2)
    assert np.array_equal(a.values, b.values)


def test_endpoint_variance():
    # ensemble moment check: Var B(T) within 5% of T
    n = 10_000
    ends = np.array(
        [noise.sample_brownian(seed=s, T=1.0, level=6).values[-1, 0] for s in range(n)]
    )
    assert abs(ends.var() - 1.0) < 0.05


def test_increment_gaussianity_ks():
    p = noise.sample_brownian(seed=7, T=1.0, level=6, d_B=200)
    incs = np.diff(p.values, axis=0).ravel()
    z = incs / np.sqrt(p.dt)
    assert z.size >= 10_000
    _, pval = stats.kstest(z, "norm")
    assert pval > 0.01


def test_refine_consistency_bitwise():
    p = noise.sample_brownian(seed=3, T=2.0, level=4)
    q = noise.refine(p)
    assert q.level == 5
    assert np.array_equal(q.values[::2], p.values)


def test_refine_determinism():
    p = noise.sample_brownian(seed=3, T=1.0, level=3)
    a = noise.refine(noise.refine(p))
    b = noise.refine(noise.refine(p))
    assert np.array_equal(a.values, b.values)


def test_sampling_at_level_matches_refinement():
    # levels of the same seed are couplings of one path
    coarse = noise.sample_brownian(seed=11, T=1.0, level=3)
    fine = noise.sample_brownian(seed=11, T=1.0, level=6)
    assert np.array_equal(fine.at_level(3), coarse.values)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.floats(0.01, 100.0),
       fine=st.integers(0, 10), d_B=st.integers(1, 3), data=st.data())
def test_refinement_preserves_coarse_nodes(seed, T, fine, d_B, data):
    coarse = data.draw(st.integers(0, fine))
    path = noise.sample_brownian(seed=seed, T=T, level=fine, d_B=d_B)
    want = noise.sample_brownian(seed=seed, T=T, level=coarse, d_B=d_B).values
    assert np.array_equal(path.at_level(coarse), want)
    assert np.array_equal(np.signbit(path.at_level(coarse)), np.signbit(want))


def bridge_values(seed, T, level, d_B):
    """Brownian-bridge construction spelled out: the level-0 endpoint, then
    0.5 * (left + right) + noise midpoints, each level from the Philox
    stream keyed by (seed, level)."""
    def normals(ell, shape):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(ell,))
        return np.random.Generator(np.random.Philox(ss)).standard_normal(shape)

    values = np.vstack([np.zeros(d_B), normals(0, d_B) * np.sqrt(T)])
    for ell in range(level):
        z = normals(ell + 1, (2 ** ell, d_B)) * np.sqrt(T * 2.0 ** (-(ell + 2)))
        mid = 0.5 * (values[:-1] + values[1:]) + z
        new = np.empty((2 * len(values) - 1, d_B))
        new[::2], new[1::2] = values, mid
        values = new
    return values


@pytest.mark.parametrize("seed", [0, 7, 4070900])
@pytest.mark.parametrize("level", [0, 1, 6, 11])
@pytest.mark.parametrize("d_B", [1, 3, 50])
def test_sample_brownian_matches_bridge_construction(seed, level, d_B):
    got = noise.sample_brownian(seed=seed, T=1.7, level=level, d_B=d_B).values
    want = bridge_values(seed, 1.7, level, d_B)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("T,d", [(1.0, 0.0), (1.0, -0.25), (0.0, 0.25), (-1.0, 0.25),
                                 (1.0, np.inf), (np.inf, 0.25), (1.0, np.nan), (np.nan, 0.25)])
def test_dyadic_level_rejects_nonpositive_or_nonfinite_ratio(T, d):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        noise.dyadic_level(T, d)


def test_dyadic_level_rejects_ratio_past_the_largest_float_power():
    # T/d is finite, but its nearest power of two, 2**1024, is not a float
    with pytest.raises(ConfigurationError, match="power of two"):
        noise.dyadic_level(1.0, 5.6e-309)
    assert noise.dyadic_level(1.0, 2.0 ** -1023) == 1023


def test_bridge_midpoint_law():
    # midpoint mean = neighbor average within 3 standard errors over 1e4 samples
    n = 10_000
    devs = np.empty(n)
    for s in range(n):
        p = noise.sample_brownian(seed=s, T=1.0, level=0)
        q = noise.refine(p)
        devs[s] = q.values[1, 0] - 0.5 * (p.values[0, 0] + p.values[1, 0])
    se = devs.std() / np.sqrt(n)
    assert abs(devs.mean()) < 3 * se
    # bridge variance T/4 at level 0 -> 1
    assert abs(devs.var() - 0.25) < 0.02


def test_capacity_guard():
    with pytest.raises(CapacityError):
        noise.sample_brownian(seed=1, T=1.0, level=40)


def test_csv_export(tmp_path):
    p = noise.sample_brownian(seed=9, T=0.5, level=3)
    f = tmp_path / "p.csv"
    noise.path_to_csv(p, f)
    data = np.loadtxt(f, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], p.times)
    assert np.allclose(data[:, 1], p.values[:, 0])


def test_csv_bytes(tmp_path):
    values = np.array([[0.0, 0.0], [0.1, -1 / 3], [0.25, 1e-300]])
    p = noise.BrownianPath(T=1.0, level=1, seed=0, d_B=2, values=values)
    f = tmp_path / "p.csv"
    noise.path_to_csv(p, f)
    assert f.read_text() == (
        "t,B0,B1\n"
        "0,0,0\n"
        "0.5,0.10000000000000001,-0.33333333333333331\n"
        "1,0.25,1e-300\n"
    )


def test_csv_roundtrip_exact(tmp_path):
    p = noise.sample_brownian(seed=9, T=0.7, level=5, d_B=2)
    f = tmp_path / "p.csv"
    noise.path_to_csv(p, f)
    data = np.loadtxt(f, delimiter=",", skiprows=1)
    assert (data[:, 0] == p.times).all()
    assert (data[:, 1:] == p.values).all()


def test_uniform_step():
    assert noise.uniform_step(np.linspace(0.0, 1.0, 5)) == 0.25
    with pytest.raises(ConfigurationError, match="uniform"):
        noise.uniform_step([0.0, 0.25, 0.5, 1.0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [np.nan, 0.5, 1.0], [0.0, 0.5, np.nan],
                                   [np.inf, np.inf, np.inf]])
def test_uniform_step_rejects_nonfinite_times(times):
    with pytest.raises(ConfigurationError, match="uniform"):
        noise.uniform_step(times)


def test_time_index_matches_no_time_to_nan():
    times = np.linspace(0.0, 1.0, 5)
    assert noise.time_index(times, 0.25) == 1
    with pytest.raises(DomainError, match="align"):
        noise.time_index(times, np.nan)


class TestWongZakaiMesh:
    def setup_method(self):
        self.path = noise.sample_brownian(seed=5, T=1.0, level=8)
        self.mesh = noise.WongZakaiMesh(self.path, delta=2.0 ** -3)

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            noise.WongZakaiMesh(self.path, delta=0.3)
        with pytest.raises(ConfigurationError):
            noise.WongZakaiMesh(self.path, delta=2.0 ** -9)

    def test_node_interpolation(self):
        for k in range(self.mesh.n_cells + 1):
            v, _ = noise.wz_eval(self.mesh, k * self.mesh.delta)
            assert np.allclose(v, self.mesh.node_values[k])

    def test_midpoint(self):
        d = self.mesh.delta
        v, _ = noise.wz_eval(self.mesh, 1.5 * d)
        expect = 0.5 * (self.mesh.node_values[1] + self.mesh.node_values[2])
        assert np.allclose(v, expect)

    def test_derivative_integrates_to_endpoint(self):
        # telescoping: integral of the cell-constant slope equals B(T)
        total = self.mesh.cell_derivative(np.arange(self.mesh.n_cells)).sum(axis=0)
        assert np.allclose(total * self.mesh.delta, self.path.values[-1], atol=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            noise.wz_eval(self.mesh, -0.1)
        with pytest.raises(DomainError):
            noise.wz_eval(self.mesh, 1.5)

    def test_cross_level_coupling(self):
        fine = noise.WongZakaiMesh(self.path, delta=2.0 ** -5)
        shared = fine.node_values[:: 2 ** 2]
        assert np.array_equal(shared, self.mesh.node_values)

    def test_uniform_convergence_monotone(self):
        # E sup |xi_delta - B| decreases as delta halves (100 paths)
        gaps = []
        for ell in (2, 4, 6):
            tot = 0.0
            for s in range(100):
                p = noise.sample_brownian(seed=1000 + s, T=1.0, level=8)
                m = noise.WongZakaiMesh(p, delta=2.0 ** -ell)
                t = p.times
                v, _ = noise.wz_eval(m, t)
                tot += np.max(np.abs(v - p.values))
            gaps.append(tot / 100)
        assert gaps[0] > gaps[1] > gaps[2]


class TestWienerField:
    def _field(self, seed=2):
        path = noise.sample_brownian(seed=seed, T=1.0, level=6, d_B=2)
        modes = (
            (lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
            (lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)),
        )
        return noise.WienerField(modes, path)

    def test_mode_count_mismatch(self):
        path = noise.sample_brownian(seed=2, T=1.0, level=4, d_B=1)
        with pytest.raises(ConfigurationError):
            noise.WienerField(((lambda x: x, lambda x: x),) * 2, path)

    def test_constant_mode_equals_scalar_path(self):
        f = self._field()
        x = np.linspace(0, 1, 9)
        vals, _, _ = noise.wiener_field_eval(f, 2.0 ** -2, 0.37, x)
        mesh = noise.WongZakaiMesh(f.components, 2.0 ** -2)
        v, _ = noise.wz_eval(mesh, 0.37)
        assert np.allclose(vals, v[0])

    def test_null_mode_is_inert(self):
        f = self._field()
        x = np.linspace(0, 1, 9)
        a, da, ga = noise.wiener_field_eval(f, 2.0 ** -2, 0.6, x)
        path1 = noise.BrownianPath(
            T=1.0, level=6, seed=2, d_B=1, values=f.components.values[:, :1]
        )
        g = noise.WienerField((f.modes[0],), path1)
        b, db, gb = noise.wiener_field_eval(g, 2.0 ** -2, 0.6, x)
        assert np.allclose(a, b) and np.allclose(da, db) and np.allclose(ga, gb)

    def test_linearity(self):
        path = noise.sample_brownian(seed=4, T=1.0, level=5, d_B=1)
        modes = ((np.sin, np.cos),)
        f = noise.WienerField(modes, path)
        doubled = noise.BrownianPath(T=1.0, level=5, seed=4, d_B=1, values=2 * path.values)
        g = noise.WienerField(modes, doubled)
        x = np.linspace(0, 2 * np.pi, 16)
        a, _, _ = noise.wiener_field_eval(f, 2.0 ** -2, 0.8, x)
        b, _, _ = noise.wiener_field_eval(g, 2.0 ** -2, 0.8, x)
        assert np.allclose(a + a, b, atol=1e-14)


class TestDispersionDriver:
    def test_empty_interval(self):
        d = noise.DispersionDriver(ou_rate=1.0, ou_scale=1.0, epsilon=0.5, T_outer=1.0, seed=0)
        assert noise.dispersion_integral(d, 0.3, 0.3) == 0.0

    def test_additivity(self):
        d = noise.DispersionDriver(ou_rate=1.0, ou_scale=1.0, epsilon=0.5, T_outer=1.0, seed=1)
        whole = noise.dispersion_integral(d, 0.0, 0.9)
        parts = (
            noise.dispersion_integral(d, 0.0, 0.21)
            + noise.dispersion_integral(d, 0.21, 0.55)
            + noise.dispersion_integral(d, 0.55, 0.9)
        )
        assert abs(whole - parts) < 1e-12

    def test_domain_guard(self):
        d = noise.DispersionDriver(ou_rate=1.0, ou_scale=1.0, epsilon=0.5, T_outer=1.0, seed=1)
        with pytest.raises(DomainError):
            noise.dispersion_integral(d, 0.0, 2.0)

    def test_integrated_variance_approaches_limit(self, monkeypatch):
        # Var of the full integrated driver ~ sigma0^2 * T as eps shrinks;
        # sigma0^2 = scale^2 / rate^2 in closed form for OU. A coarser inner
        # grid keeps the 2,000 drivers quick
        monkeypatch.setattr(noise, "OU_POINTS", 16)
        rate, scale, T = 2.0, 1.5, 1.0
        sigma0_sq = scale ** 2 / rate ** 2
        n = 1000
        for eps, tol in ((0.4, 0.35), (0.15, 0.15)):
            vals = np.array(
                [
                    noise.dispersion_integral(
                        noise.DispersionDriver(rate, scale, eps, T, seed=s), 0.0, T
                    )
                    for s in range(n)
                ]
            )
            assert abs(vals.var() / (sigma0_sq * T) - 1.0) < tol
