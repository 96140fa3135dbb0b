"""Periodic grids and the field containers living on them, plus the
spectral calculus (gradient, divergence, Laplacian, 2/3-rule dealiasing)
shared by the density-manifold solvers.

Grids are one-dimensional: a field stores values of shape (n,), and the
spectral operators act along the last axis, so a series of fields may be
stacked along leading axes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import numbers
import os
import typing
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import ConfigurationError, DomainError, SupportError

PathLike = Union[str, os.PathLike]  # where the writers put their files


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise ConfigurationError naming ``name`` unless value is an integer >= least."""
    if not _is_integer(value) or value < least:
        raise ConfigurationError(f"{name} = {value!r} must be an integer >= {least}")


def _is_real_array(value) -> bool:
    try:
        return (value if isinstance(value, np.ndarray) else np.asarray(value)).dtype.kind in "iuf"
    except ValueError:  # a ragged nest of sequences
        return False


_KINDS = {float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
                  "a real number"),
          int: (_is_integer, "an integer"), np.ndarray: (_is_real_array, "real numbers")}


def _rule(hint) -> tuple:
    """(test, description) of an annotation under the argument contract: a
    class means isinstance, but float a real number, int an integer (a bool
    is neither) and np.ndarray a real numeric array-like; Sequence[X] a
    sequence or array, not a string, of Xs; another generic an instance of
    its origin (Callable: callable); a Union any member, so None only where
    Optional."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        rules = [_rule(a) for a in args]
        return (lambda v: any(test(v) for test, _ in rules)), " or ".join(d for _, d in rules)
    if Sequence in (origin, hint):
        item = _rule(args[0] if args else object)[0]
        return (lambda v: isinstance(v, (Sequence, np.ndarray)) and not isinstance(v, str)
                and all(map(item, v))), "a sequence"
    cls = origin or hint
    return _KINDS.get(hint) or ((lambda v: isinstance(v, cls)),
                                "None" if cls is type(None) else f"a {cls.__name__}")


def _complaint(name: str, value, hint) -> str:
    """The ConfigurationError message for an argument ``name`` = value that
    breaks its annotation."""
    item = typing.get_args(hint)[0] if typing.get_origin(hint) is Sequence else None
    if item is not None and _rule(Sequence)[0](value):  # a sequence: name its first wrong item
        return _complaint(f"each of {name}", next(v for v in value if not _rule(item)[0](v)), item)
    plain = value is None or isinstance(value, (str, numbers.Number))
    return f"{name} must be {_rule(hint)[1]}, not {repr(value) if plain else type(value).__name__}"


def _contract(namespace: dict) -> None:
    """Put each public function of the module whose globals are
    ``namespace`` behind the argument contract (_rule): an argument passed
    that breaks its annotation raises ConfigurationError naming it before
    the function runs. Each module calls this once, at its end."""
    for name, fn in list(namespace.items()):
        if inspect.isfunction(fn) and fn.__module__ == namespace["__name__"] \
                and not name.startswith("_"):
            namespace[name] = _checked(fn, [])


def _checked(fn, contract: list):
    """fn behind its contract, whose first call reads into ``contract`` the
    hints (at import, np.random.Generator would import numpy.random), each
    parameter's test, the positional names and that of *args, if any."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        if not contract:
            hints = typing.get_type_hints(fn)
            params = inspect.signature(fn).parameters.values()
            contract[:] = (hints, {p.name: _rule(hints[p.name])[0] for p in params},
                           [p.name for p in params if p.kind == p.POSITIONAL_OR_KEYWORD],
                           [p.name for p in params if p.kind == p.VAR_POSITIONAL])
        hints, tests, names, star = contract
        names = itertools.chain(names, itertools.repeat(star[0])) if star else names
        for name, value in itertools.chain(zip(names, args), kwargs.items()):
            if name in tests and not tests[name](value):
                raise ConfigurationError(_complaint(name, value, hints[name]))
        return fn(*args, **kwargs)

    return checked


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

    @cached_property
    def dealiased_ik(self) -> np.ndarray:
        """(2, n) rows [i k 1(|k| < n/3), 1(|k| < n/3)]: divergence after
        dealiasing, and dealiasing, as one multiplier on a stacked pair."""
        return _frozen(np.stack([self.ik * self.two_thirds, self.two_thirds]))

    @cached_property
    def inner_ik(self) -> np.ndarray:
        """i k 1(|k| < n/4): the derivative band-limited to the inner half of
        the spectrum."""
        return _frozen(self.ik * ~self.outer_half)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _apply(grid: GridSpec, sym: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Real part of the Fourier multiplier sym applied to each row of f,
    whose last axis must hold the grid's points (ConfigurationError)."""
    if np.shape(f)[-1:] != grid.shape:
        raise ConfigurationError(f"values of shape {np.shape(f)} do not end in the grid's "
                                 f"{grid.n} points")
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
    """Trigonometric interpolation of a real grid function at arbitrary points
    (exact for band-limited data), summed over the real FFT's modes 0..n/2 a
    block of points at a time with no BLAS product, so memory does not grow
    with the point count. Each mode between 0 and Nyquist stands for itself
    and its conjugate; the Nyquist coefficient is real, so that mode enters as
    its cosine only and the interpolant matches the grid values exactly."""
    if np.shape(f) != grid.shape:
        raise ConfigurationError(f"f of shape {np.shape(f)} must be real on the grid {grid.shape}")
    points = np.asarray(points, dtype=float)
    if points.ndim > 1:
        raise ConfigurationError(f"points of shape {points.shape} must be a scalar or 1-D")
    if not np.isfinite(points).all():
        raise DomainError("resample points must be finite")
    c = np.fft.rfft(f) / grid.n
    c[1:-1] *= 2
    k = 2 * np.pi * np.fft.rfftfreq(grid.n, d=grid.h)
    dx = points.ravel() - grid.origin
    out = np.empty(dx.size)
    for s in range(0, dx.size, 64):  # 64 points a block: each temporary is (64, n/2 + 1)
        theta = np.multiply.outer(dx[s:s + 64], k)
        out[s:s + 64] = (np.einsum("pk,k->p", np.cos(theta), c.real)
                         - np.einsum("pk,k->p", np.sin(theta), c.imag))
    return out


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


def field_to_csv(field: Union[DensityField, PotentialField, VelocityField], path: PathLike):
    _write_csv(path, "x,value", zip(field.grid.axis(), field.values))


_contract(globals())
