"""Periodic grids and the field containers living on them, plus the
spectral calculus (gradient, divergence, Laplacian, 2/3-rule dealiasing)
shared by the density-manifold solvers.

Scalar fields store values of shape (n,) in 1D and (n, n) in 2D; vector
fields append a component axis of length d.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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


def grad_components(grid: GridSpec, f: np.ndarray) -> list:
    """Spectral partial derivatives, one array per spatial axis."""
    k = grid.wavenumbers()
    out = []
    for axis in range(grid.dimension):
        shape = [1] * grid.dimension
        shape[axis] = grid.n
        ik = 1j * k.reshape(shape)
        out.append(np.real(np.fft.ifftn(ik * np.fft.fftn(f))))
    return out


def divergence(grid: GridSpec, comps) -> np.ndarray:
    out = np.zeros(grid.shape)
    k = grid.wavenumbers()
    for axis, c in enumerate(comps):
        shape = [1] * grid.dimension
        shape[axis] = grid.n
        ik = 1j * k.reshape(shape)
        out += np.real(np.fft.ifftn(ik * np.fft.fftn(c)))
    return out


def laplacian(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    k2 = grid.wavenumbers() ** 2
    sym = np.zeros(grid.shape)
    for axis in range(grid.dimension):
        shape = [1] * grid.dimension
        shape[axis] = grid.n
        sym = sym + k2.reshape(shape)
    return np.real(np.fft.ifftn(-sym * np.fft.fftn(f)))


def bohm(grid: GridSpec, rho: np.ndarray, floor: float) -> np.ndarray:
    """Bohm potential -4 lap(sqrt rho) / sqrt rho, with rho clipped at floor."""
    s = np.sqrt(np.maximum(rho, floor))
    return -4.0 * laplacian(grid, s) / s


def dealias(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum along each axis (2/3 rule)."""
    keep = np.abs(np.fft.fftfreq(grid.n) * grid.n) < grid.n / 3.0
    mask = keep
    if grid.dimension == 2:
        mask = np.outer(keep, keep)
    return np.real(np.fft.ifftn(mask * np.fft.fftn(f)))


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

_FIELD_MAGIC = b"WZFLD01\x00"


def field_to_bytes(field) -> bytes:
    g = field.grid
    head = _FIELD_MAGIC + struct.pack("<qqdd", g.dimension, g.n, g.period, g.origin)
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    return head + struct.pack("<q", field.values.ndim) + payload


def field_values_from_bytes(blob: bytes):
    """Returns (GridSpec, values); the caller picks the field type."""
    if blob[:8] != _FIELD_MAGIC:
        raise ConfigurationError("bad field container magic")
    dim, n, period, origin = struct.unpack_from("<qqdd", blob, 8)
    (ndim,) = struct.unpack_from("<q", blob, 8 + 32)
    grid = GridSpec(dim, n, period, origin)
    flat = np.frombuffer(blob, dtype="<f8", offset=8 + 40)
    shape = grid.shape if ndim == dim else grid.shape + (2,)
    return grid, flat.reshape(shape).copy()


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
