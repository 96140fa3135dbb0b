"""Periodic grids and the field containers living on them, plus the
spectral calculus (gradient, divergence, Laplacian, 2/3-rule dealiasing)
shared by the density-manifold solvers.

Grids are one-dimensional: a field stores values of shape (n,), and the
spectral operators act along the last axis, so a series of fields may be
stacked along leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, SupportError


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise ConfigurationError naming ``name`` unless value is an integer >= least."""
    if not _is_integer(value) or value < least:
        raise ConfigurationError(f"{name} = {value!r} must be an integer >= {least}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [origin, origin + period); ``dimension`` is
    kept as the first field and must be 1."""

    dimension: int
    n: int
    period: float
    origin: float = 0.0

    def __post_init__(self):
        if self.dimension != 1:
            raise ConfigurationError("grids are one-dimensional: dimension must be 1")
        if not _is_integer(self.n) or self.n < 8 or self.n & (self.n - 1):
            raise ConfigurationError("n must be an integer power of two, n >= 8")
        if not 0 < self.period < np.inf:
            raise ConfigurationError("period must be positive and finite")
        if not np.isfinite(self.origin):
            raise ConfigurationError("origin must be finite")

    @property
    def h(self) -> float:
        return self.period / self.n

    @property
    def shape(self):
        return (self.n,)

    def axis(self) -> np.ndarray:
        return self.origin + self.h * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(values) * self.h)

    # Spectral symbols, built on first use and kept read-only on the grid.
    # Only arrays are cached: the transforms are looked up on np.fft at each
    # call, so a wrapper installed there later still sees every transform.

    @cached_property
    def ik(self) -> np.ndarray:
        """i k, the symbol of the derivative."""
        return _frozen(1j * self.wavenumbers())

    @cached_property
    def neg_k2(self) -> np.ndarray:
        """-k^2, the symbol of the Laplacian."""
        return _frozen(-(self.wavenumbers() ** 2))

    @cached_property
    def two_thirds(self) -> np.ndarray:
        """Modes kept by the 2/3 rule: |k| < n/3."""
        return _frozen(np.abs(np.fft.fftfreq(self.n) * self.n) < self.n / 3.0)

    @cached_property
    def outer_half(self) -> np.ndarray:
        """Modes |k| >= n/4, the outer half of the spectrum."""
        return _frozen(np.abs(np.fft.fftfreq(self.n) * self.n) >= self.n // 4)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _apply(grid: GridSpec, sym: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Real part of the Fourier multiplier sym applied to each row of f."""
    return np.real(np.fft.ifft(sym * np.fft.fft(f)))


def gradient(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """The spectral derivative df/dx."""
    return _apply(grid, grid.ik, f)


def divergence(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """Spectral divergence dv/dx; the leading 0 + turns a -0.0 result into
    +0.0."""
    return 0 + _apply(grid, grid.ik, v)


def laplacian(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    return _apply(grid, grid.neg_k2, f)


def bohm(grid: GridSpec, rho: np.ndarray, floor: float) -> np.ndarray:
    """Bohm potential -4 lap(sqrt rho) / sqrt rho, with rho clipped at floor."""
    s = np.sqrt(np.maximum(rho, floor))
    return -4.0 * laplacian(grid, s) / s


def dealias(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum (2/3 rule)."""
    return _apply(grid, grid.two_thirds, f)


def resample(grid: GridSpec, f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of a grid function at arbitrary points
    (exact for band-limited data).

    The Nyquist exponential is replaced by its cosine so the interpolant
    stays real and matches the grid values exactly.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise DomainError("resample points must be finite")
    coeffs = np.fft.fft(f) / grid.n
    k = grid.wavenumbers()
    dx = points - grid.origin
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
        if not np.isfinite(mass):
            raise DomainError("density field has a non-finite entry or sum")
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
        total = self.grid.integrate(self.values)
        if not np.isfinite(total):
            raise DomainError("potential field has a non-finite entry or sum")
        if abs(total) > 1e-12 * max(1.0, float(np.max(np.abs(self.values)))):
            raise ConfigurationError(
                "potential is not zero-mean; use PotentialField.projected"
            )

    @classmethod
    def projected(cls, grid: GridSpec, values) -> "PotentialField":
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise DomainError("potential field has a non-finite entry")
        return cls(grid, values - values.mean())


@dataclass
class VelocityField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
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
    _write_csv(path, "x,value", zip(field.grid.axis(), field.values))
