import numpy as np
import pytest

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
    (df,) = fields.grad_components(g, f)
    assert np.max(np.abs(df - 3 * np.cos(3 * x))) < 1e-12
    lap = fields.laplacian(g, f)
    assert np.max(np.abs(lap + 9 * f)) < 1e-11


def test_spectral_derivatives_2d():
    g = GridSpec(2, 32, 2 * np.pi)
    X, Y = g.nodes()
    f = np.sin(X) * np.cos(2 * Y)
    dx, dy = fields.grad_components(g, f)
    assert np.max(np.abs(dx - np.cos(X) * np.cos(2 * Y))) < 1e-12
    assert np.max(np.abs(dy + 2 * np.sin(X) * np.sin(2 * Y))) < 1e-12
    lap = fields.laplacian(g, f)
    assert np.max(np.abs(lap + 5 * f)) < 1e-11


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


def test_csv_bytes_2d_vector(tmp_path):
    g = GridSpec(2, 8, 0.8)
    X, Y = g.nodes()
    out = tmp_path / "v.csv"
    fields.field_to_csv(fields.VelocityField(g, np.stack([X, -Y], axis=-1)), out)
    lines = out.read_text().split("\n")
    assert len(lines) == 1 + 64 + 1 and lines[-1] == ""
    assert lines[:3] == ["x,y,value", "0,0,0,-0", "0,0.10000000000000001,0,-0.10000000000000001"]
    assert lines[9] == "0.10000000000000001,0,0.10000000000000001,-0"
    assert lines[64] == "0.70000000000000007,0.70000000000000007,0.70000000000000007,-0.70000000000000007"
