"""Periodic grids and the field containers living on them, plus the
spectral calculus (gradient, divergence, Laplacian, 2/3-rule dealiasing)
shared by the density-manifold solvers.

Scalar fields store values of shape (n,) in 1D and (n, n) in 2D; vector
fields append a component axis of length d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, SupportError


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [origin, origin + period)^dimension."""

    dimension: int
    n: int
    period: float
    origin: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigurationError("dimension must be 1 or 2")
        if self.n < 8 or self.n & (self.n - 1):
            raise ConfigurationError("n must be a power of two, n >= 8")
        if not self.period > 0:
            raise ConfigurationError("period must be positive")

    @property
    def h(self) -> float:
        return self.period / self.n

    @property
    def shape(self):
        return (self.n,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dimension

    def axis(self) -> np.ndarray:
        return self.origin + self.h * np.arange(self.n)

    def nodes(self):
        """Node coordinates: (n,) in 1D, a pair of (n, n) arrays in 2D."""
        if self.dimension == 1:
            return self.axis()
        return np.meshgrid(self.axis(), self.axis(), indexing="ij")

    def wavenumbers(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(values) * self.cell_volume)

    # Spectral symbols, built on first use and kept read-only on the grid.
    # Only arrays are cached: the transforms are looked up on np.fft at each
    # call, so a wrapper installed there later still sees every transform.

    def _axis_shape(self, axis):
        shape = [1] * self.dimension
        shape[axis] = self.n
        return shape

    @cached_property
    def ik(self) -> tuple:
        """i k along each axis, shaped to broadcast against a grid array."""
        k = self.wavenumbers()
        return tuple(_frozen(1j * k.reshape(self._axis_shape(a))) for a in range(self.dimension))

    @cached_property
    def neg_k2(self) -> np.ndarray:
        """-|k|^2, the symbol of the Laplacian."""
        k2 = self.wavenumbers() ** 2
        sym = np.zeros(self.shape)
        for axis in range(self.dimension):
            sym = sym + k2.reshape(self._axis_shape(axis))
        return _frozen(-sym)

    @cached_property
    def two_thirds(self) -> np.ndarray:
        """Modes kept by the 2/3 rule: |k| < n/3 along every axis."""
        keep = np.abs(np.fft.fftfreq(self.n) * self.n) < self.n / 3.0
        return _frozen(np.outer(keep, keep) if self.dimension == 2 else keep)

    @cached_property
    def outer_half(self) -> np.ndarray:
        """Modes |k| >= n/4 of a 1D grid, the outer half of its spectrum."""
        return _frozen(np.abs(np.fft.fftfreq(self.n) * self.n) >= self.n // 4)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _apply(grid: GridSpec, sym: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Real part of the Fourier multiplier sym applied to f; 1D grids take
    the 1D transforms, which equal fftn/ifftn bitwise on 1D input."""
    if grid.dimension == 1:
        return np.real(np.fft.ifft(sym * np.fft.fft(f)))
    return np.real(np.fft.ifftn(sym * np.fft.fftn(f)))


def grad_components(grid: GridSpec, f: np.ndarray) -> list:
    """Spectral partial derivatives, one array per spatial axis."""
    return [_apply(grid, ik, f) for ik in grid.ik]


def divergence(grid: GridSpec, comps) -> np.ndarray:
    out = np.zeros(grid.shape)
    for ik, c in zip(grid.ik, comps):
        out += _apply(grid, ik, c)
    return out


def laplacian(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    return _apply(grid, grid.neg_k2, f)


def bohm(grid: GridSpec, rho: np.ndarray, floor: float) -> np.ndarray:
    """Bohm potential -4 lap(sqrt rho) / sqrt rho, with rho clipped at floor."""
    s = np.sqrt(np.maximum(rho, floor))
    return -4.0 * laplacian(grid, s) / s


def dealias(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum along each axis (2/3 rule)."""
    return _apply(grid, grid.two_thirds, f)


def resample(grid: GridSpec, f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of a 1D grid function at arbitrary
    points (exact for band-limited data).

    The Nyquist exponential is replaced by its cosine so the interpolant
    stays real and matches the grid values exactly.
    """
    if grid.dimension != 1:
        raise ConfigurationError("resample is one-dimensional")
    coeffs = np.fft.fft(f) / grid.n
    k = grid.wavenumbers()
    dx = np.asarray(points, dtype=float) - grid.origin
    phase = np.exp(1j * np.outer(dx, k))
    phase[:, grid.n // 2] = np.cos(k[grid.n // 2] * dx)
    return np.real(phase @ coeffs)


@dataclass
class DensityField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError("values do not match the grid shape")
        if np.any(self.values < 0):
            raise SupportError("density must be nonnegative")
        mass = self.grid.integrate(self.values)
        if abs(mass - 1.0) > 1e-12:
            raise ConfigurationError(
                f"density mass {mass!r} differs from 1 beyond 1e-12; "
                "use DensityField.normalized"
            )

    @classmethod
    def normalized(cls, grid: GridSpec, values) -> "DensityField":
        values = np.asarray(values, dtype=float)
        if np.any(values < 0):
            raise SupportError("density must be nonnegative")
        mass = grid.integrate(values)
        if mass <= 0:
            raise SupportError("density has no mass")
        return cls(grid, values / mass)

    @property
    def mass(self) -> float:
        return self.grid.integrate(self.values)


@dataclass
class PotentialField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError("values do not match the grid shape")
        if abs(self.grid.integrate(self.values)) > 1e-12 * max(
            1.0, float(np.max(np.abs(self.values)))
        ):
            raise ConfigurationError(
                "potential is not zero-mean; use PotentialField.projected"
            )

    @classmethod
    def projected(cls, grid: GridSpec, values) -> "PotentialField":
        values = np.asarray(values, dtype=float)
        return cls(grid, values - values.mean())


@dataclass
class VelocityField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = self.grid.shape if self.grid.dimension == 1 else self.grid.shape + (2,)
        if self.values.shape != expect:
            raise ConfigurationError("velocity components do not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("velocity field has non-finite entries")


# ---------------------------------------------------------------------------
# serialization

def _write_csv(path, header: str, rows) -> None:
    """The one CSV row writer: strings (labels) are written as they are,
    every other cell as ``.17g``, which round-trips float64 exactly."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row) + "\n")


def field_to_csv(field, path):
    g = field.grid
    vals = field.values
    if g.dimension == 1:
        rows = ((x, *v) for x, v in zip(g.axis(), np.atleast_2d(vals.T).T))
        _write_csv(path, "x,value", rows)
    else:
        X, Y = g.nodes()
        rows = ((x, y, *v) for x, y, v in zip(X.ravel(), Y.ravel(), vals.reshape(g.n * g.n, -1)))
        _write_csv(path, "x,y,value", rows)
