import numpy as np
import pytest

from conftest import traced_peak_mib
from wzflow import fields
from wzflow.errors import ConfigurationError, DomainError, SupportError
from wzflow.fields import DensityField, GridSpec, PotentialField, VelocityField


def test_grid_invariants():
    with pytest.raises(ConfigurationError):
        GridSpec(3, 16, 1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(1, 12, 1.0)  # not a power of two
    with pytest.raises(ConfigurationError):
        GridSpec(1, 4, 1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(1, 16, -1.0)
    g = GridSpec(1, 16, 2.0, origin=-1.0)
    assert g.h == pytest.approx(0.125)
    assert g.axis()[0] == -1.0 and g.axis()[-1] == pytest.approx(1.0 - 0.125)


def test_spectral_derivatives():
    g = GridSpec(1, 64, 2 * np.pi)
    x = g.axis()
    f = np.sin(3 * x)
    df = fields.gradient(g, f)
    assert np.max(np.abs(df - 3 * np.cos(3 * x))) < 1e-12
    lap = fields.laplacian(g, f)
    assert np.max(np.abs(lap + 9 * f)) < 1e-11


def test_dealias_preserves_low_modes_and_idempotent():
    g = GridSpec(1, 64, 2 * np.pi)
    x = g.axis()
    low = np.cos(5 * x)
    assert np.max(np.abs(fields.dealias(g, low) - low)) < 1e-12
    high = np.cos(30 * x)
    assert np.max(np.abs(fields.dealias(g, high))) < 1e-12
    mixed = low + high
    once = fields.dealias(g, mixed)
    assert np.max(np.abs(fields.dealias(g, once) - once)) < 1e-13


def test_resample_exact_for_band_limited():
    g = GridSpec(1, 32, 2.0, origin=-1.0)
    x = g.axis()
    f = 1.0 + np.sin(np.pi * x) + 0.3 * np.cos(3 * np.pi * x)
    # exact at the nodes
    assert np.max(np.abs(fields.resample(g, f, x) - f)) < 1e-12
    pts = np.array([-0.713, 0.0, 0.2345, 0.9])
    exact = 1.0 + np.sin(np.pi * pts) + 0.3 * np.cos(3 * np.pi * pts)
    assert np.max(np.abs(fields.resample(g, f, pts) - exact)) < 1e-12


def dense_resample(grid, f, points):
    """The dense complex sum: every point against every FFT mode, the Nyquist
    exponential replaced by its cosine."""
    coeffs = np.fft.fft(f) / grid.n
    k = grid.wavenumbers()
    dx = np.asarray(points, dtype=float) - grid.origin
    phase = np.exp(1j * np.outer(dx, k))
    phase[:, grid.n // 2] = np.cos(k[grid.n // 2] * dx)
    return np.real(phase @ coeffs)


@pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_resample_matches_the_dense_sum(n, seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(1, n, 3.7, origin=-1.3)
    f = rng.standard_normal(n)
    # off the grid, and up to two periods either side of it; 300 points span several blocks
    pts = rng.uniform(g.origin - 2 * g.period, g.origin + 3 * g.period, 300)
    gap = np.max(np.abs(fields.resample(g, f, pts) - dense_resample(g, f, pts)))
    assert gap <= 1e-14 * np.max(np.abs(f))


def test_resample_shapes():
    g = GridSpec(1, 16, 1.0)
    f = np.cos(2 * np.pi * g.axis())
    assert fields.resample(g, f, 0.25).shape == (1,)
    assert fields.resample(g, f, np.float64(0.25)).shape == (1,)
    assert fields.resample(g, f, []).shape == (0,)
    assert fields.resample(g, f, np.zeros(130)).shape == (130,)


def test_resample_memory_does_not_grow_with_the_points():
    # the dense (points, n) complex phase matrix peaked at 32 MiB at this size
    g = GridSpec(1, 256, 20.0, origin=-10.0)
    f = np.exp(-0.5 * g.axis() ** 2)
    pts = np.linspace(-12.0, 12.0, 4096)
    assert traced_peak_mib(lambda: fields.resample(g, f, pts)) < 1.0


def test_density_field_invariants():
    g = GridSpec(1, 16, 1.0)
    with pytest.raises(SupportError):
        DensityField.normalized(g, -np.ones(16))
    with pytest.raises(ConfigurationError):
        DensityField(g, np.ones(16) * 2.0)
    rho = DensityField.normalized(g, np.ones(16) * 7.0)
    assert rho.mass == pytest.approx(1.0, abs=1e-14)


def test_potential_field_gauge():
    g = GridSpec(1, 16, 1.0)
    with pytest.raises(ConfigurationError):
        PotentialField(g, np.ones(16))
    phi = PotentialField.projected(g, np.ones(16) + np.sin(2 * np.pi * g.axis()))
    assert abs(g.integrate(phi.values)) < 1e-12


def test_velocity_field_finite():
    g = GridSpec(1, 16, 1.0)
    with pytest.raises(DomainError):
        VelocityField(g, np.full(16, np.inf))
    with pytest.raises(ConfigurationError):
        VelocityField(g, np.ones(8))


def test_csv_export(tmp_path):
    g = GridSpec(1, 16, 1.0)
    rho = DensityField.normalized(g, np.ones(16))
    out = tmp_path / "rho.csv"
    fields.field_to_csv(rho, out)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], g.axis())
    assert np.allclose(data[:, 1], rho.values)


def test_write_csv_bytes(tmp_path):
    out = tmp_path / "rows.csv"
    fields._write_csv(out, "a,label,b", [(1, "sin*p1", 0.1), (np.float64(1 / 3), "one", -2.5e-300)])
    assert out.read_text() == (
        "a,label,b\n"
        "1,sin*p1,0.10000000000000001\n"
        "0.33333333333333331,one,-2.5e-300\n"
    )


def test_csv_bytes_1d(tmp_path):
    g = GridSpec(1, 8, 0.8)
    rho = DensityField(g, np.array([0.5, 1.5] * 4) * 1.25)
    out = tmp_path / "rho.csv"
    fields.field_to_csv(rho, out)
    assert out.read_text() == (
        "x,value\n"
        "0,0.625\n"
        "0.10000000000000001,1.875\n"
        "0.20000000000000001,0.625\n"
        "0.30000000000000004,1.875\n"
        "0.40000000000000002,0.625\n"
        "0.5,1.875\n"
        "0.60000000000000009,0.625\n"
        "0.70000000000000007,1.875\n"
    )
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], g.axis())  # .17g round-trips float64


# ---------------------------------------------------------------------------
# the spectral operators against a spelled-out n-D FFT calculus, bitwise

def ref_wavenumbers(g):
    return 2 * np.pi * np.fft.fftfreq(g.n, d=g.h)


def ref_ik(g, axis):
    shape = [1] * g.dimension
    shape[axis] = g.n
    return 1j * ref_wavenumbers(g).reshape(shape)


def ref_grad(g, f):
    return [np.real(np.fft.ifftn(ref_ik(g, a) * np.fft.fftn(f))) for a in range(g.dimension)]


def ref_divergence(g, comps):
    out = np.zeros(g.shape)
    for axis, c in enumerate(comps):
        out += np.real(np.fft.ifftn(ref_ik(g, axis) * np.fft.fftn(c)))
    return out


def ref_laplacian(g, f):
    sym = np.zeros(g.shape)
    for axis in range(g.dimension):
        shape = [1] * g.dimension
        shape[axis] = g.n
        sym = sym + (ref_wavenumbers(g) ** 2).reshape(shape)
    return np.real(np.fft.ifftn(-sym * np.fft.fftn(f)))


def ref_dealias(g, f):
    keep = np.abs(np.fft.fftfreq(g.n) * g.n) < g.n / 3.0
    mask = np.outer(keep, keep) if g.dimension == 2 else keep
    return np.real(np.fft.ifftn(mask * np.fft.fftn(f)))


def ref_band_limit(g, f):
    c = np.fft.fft(f)
    c[np.abs(np.fft.fftfreq(g.n) * g.n) >= g.n // 4] = 0.0
    return np.real(np.fft.ifft(c))


def same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def spectral_inputs(g, seed):
    """Rough, smooth and constant data on g; the constant gives signed zeros."""
    rng = np.random.default_rng(seed)
    x = g.axis()
    w = 2 * np.pi / g.period
    smooth = np.sin(w * x) + np.cos(3 * w * x)
    return [rng.normal(size=g.shape), smooth, np.full(g.shape, 0.75)]


@pytest.mark.parametrize("dimension", [1])  # grids are 1-D; the parameter keeps the case ids
@pytest.mark.parametrize("n", [8, 32, 128])
@pytest.mark.parametrize("period,origin", [(2 * np.pi, 0.0), (20.0, -10.0)])
def test_spectral_operators_match_fftn_spelling(dimension, n, period, origin):
    from wzflow import bridge

    g = GridSpec(dimension, n, period, origin=origin)
    for f in spectral_inputs(g, n + dimension):
        (want,) = ref_grad(g, f)
        assert same_bits(fields.gradient(g, f), want)
        comps = [f * (a + 1.5) for a in range(dimension)]
        assert same_bits(fields.divergence(g, comps[0]), ref_divergence(g, comps))
        assert same_bits(fields.laplacian(g, f), ref_laplacian(g, f))
        rho = np.exp(0.3 * f)
        want = -4.0 * ref_laplacian(g, np.sqrt(np.maximum(rho, 1e-3))) / np.sqrt(
            np.maximum(rho, 1e-3))
        assert same_bits(fields.bohm(g, rho, 1e-3), want)
        assert same_bits(fields.dealias(g, f), ref_dealias(g, f))
        assert same_bits(bridge._band_limit(g, f), ref_band_limit(g, f))


# the stacked field marches and the density-flow study reduce and transform
# (..., n) stacks along the last axis: every row must keep its 1-D bits
ROW_OPS = {
    "sum": lambda a: np.sum(a, axis=-1, keepdims=True),
    "mean": lambda a: np.mean(a, axis=-1, keepdims=True),
    "max": lambda a: np.max(a, axis=-1, keepdims=True),
    "fft": np.fft.fft,
    "ifft": np.fft.ifft,
}


@pytest.mark.parametrize("n", [2 ** k for k in range(3, 11)])
@pytest.mark.parametrize("shape", [(1,), (3,), (16,), (2, 5)])
def test_row_stacks_reduce_and_transform_like_single_rows(shape, n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=shape + (n,))
    stack.reshape(-1, n)[0] = 0.75  # a constant row: signed zeros in its transform
    rows = stack.reshape(-1, n)
    for name, op in ROW_OPS.items():
        got = op(stack).reshape(rows.shape[0], -1)
        for row, out in zip(rows, got):
            assert out.tobytes() == op(row).tobytes(), name
