"""Stochastic drivers: Brownian paths on dyadic grids, piecewise-linear
interpolants, finite-mode Wiener fields, and the scaled ergodic dispersion
driver.

All randomness is derived from explicit 64-bit seeds through counter-based
Philox streams keyed by (seed, level), so construction and dyadic refinement
are reproducible independent of evaluation order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError, InsufficientDataError
from .fields import _check_count, _contract

NODE_CAP = 2 ** 26
ERROR_FLOOR = 1e-10  # a study whose RMS errors all lie below this has no order to fit
N_BOOTSTRAP = 1000  # resamples behind every bootstrap confidence interval
BRIDGE_BLOCK = 2 ** 14  # normals per draw when a bridge level fills its midpoints
OU_POINTS = 64  # DispersionDriver grid points per unit of inner time


def dyadic_level(T: float, d: float) -> int:
    """The integer l >= 0 with d = T * 2**-l (to relative 1e-9)."""
    ratio = T / d if d else np.inf
    if not 0 < ratio < np.inf:
        raise ConfigurationError(f"T/d = {T}/{d} must be positive and finite")
    ell = int(round(np.log2(ratio)))
    # 2**1024 is not a float, and no float ratio rounding to it is a power of two
    if not 0 <= ell < 1024 or abs(ratio - 2 ** ell) > 1e-9 * ratio:
        raise ConfigurationError(f"T/d = {T}/{d} is not a power of two")
    return ell


def _check_deltas(deltas, T: float) -> list:
    """The distinct noise levels deltas, dyadic in T, as floats, coarsest first."""
    out = sorted(float(d) for d in deltas)
    if not out:
        raise InsufficientDataError("a study needs at least one delta level")
    if len(set(out)) != len(out):
        raise ConfigurationError("delta levels must be distinct")
    for d in out:
        dyadic_level(T, d)
    return out[::-1]


def grid_index(t: np.ndarray, dt: float, n: int) -> np.ndarray:
    """The step counts j in [0, n] with j * dt = t (to 1e-9) of the time(s)
    t on a march of n steps of width dt; a time with none raises
    ConfigurationError naming it."""
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN fail quietly
        j = np.rint(t / dt)
        bad = ~((np.abs(j * dt - t) <= 1e-9) & (0 <= j) & (j <= n))
        if bad.any():
            s, k = t[bad][0], j[bad][0]
            why = ("not finite" if not np.isfinite(s)
                   else f"outside [0, {n * dt:g}]" if not 0 <= k <= n
                   else f"not a multiple of {dt:g}")
            raise ConfigurationError(f"t={s} does not align with the step grid: it is {why}")
        return j.astype(int)


def uniform_step(times: np.ndarray, *series: Sequence, least: int = 3) -> tuple:
    """(times, dt): a residual diagnostic's sample times as floats and their
    spacing. The times lie in at most one dimension, each series holds one
    entry per time and the spacing is positive, finite and uniform to 1e-9
    (else ConfigurationError), and there are ``least`` times or more (else
    InsufficientDataError; a scalar is one)."""
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ConfigurationError(f"sample times of shape {times.shape} must be 1-D")
    for s in series:
        if len(s) != times.size:
            raise ConfigurationError(f"a series of {len(s)} samples does not match "
                                     f"{times.size} sample times")
    if times.size < least:
        raise InsufficientDataError(f"need at least {least} sample times, got {times.size}")
    steps = np.diff(times)
    dt = steps[0]
    if not (0 < dt < np.inf and np.max(np.abs(steps - dt)) <= 1e-9):
        raise ConfigurationError("sample times must be uniform with a positive, finite spacing")
    return times, dt


def centered_rate(series: np.ndarray, dt: float) -> np.ndarray:
    """Centered time difference (s[j+1] - s[j-1]) / (2 dt) at every interior
    sample of a series stacked along its first axis."""
    return (series[2:] - series[:-2]) / (2 * dt)


def fit_order(points: Sequence[tuple]) -> tuple:
    """Ordinary least squares of log(error) on log(delta) over (delta,
    error) points.

    Returns (slope, intercept, slope standard error); two points are fitted
    exactly, and their standard error is None."""
    pts = [(float(d), float(e)) for d, e in points]
    if len(pts) < 2:
        raise InsufficientDataError("order fit needs at least 2 points")
    if not all(0 < v < np.inf for pt in pts for v in pt):
        raise DomainError("order fit needs positive, finite deltas and errors")
    x = np.log([d for d, _ in pts])
    if x.min() == x.max():  # np.unique would import numpy.ma
        raise ConfigurationError("order fit needs at least 2 distinct deltas")
    y = np.log([e for _, e in pts])
    n = len(pts)
    xm = x - x.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    intercept = float(y.mean() - slope * x.mean())
    if n == 2:
        return slope, intercept, None
    resid = y - (intercept + slope * x)
    s2 = float(np.dot(resid, resid)) / (n - 2)
    stderr = float(np.sqrt(s2 / np.dot(xm, xm)))
    return slope, intercept, stderr


def percentile_interval(samples: np.ndarray) -> tuple:
    """The 2.5% and 97.5% quantiles of samples along axis 0, bitwise those
    of numpy's ``quantile`` with axis=0 (default linear method), sign bits
    included.

    Each takes that method step for step: the virtual index (n - 1) q, a
    partition of a copy at the sorted kth set numpy passes, its two-sided
    lerp, and NaN for a column whose largest entry is NaN.  numpy's own
    function also calls np.unique, which imports numpy.ma (1.2 MiB) on
    first use.  Needs at least one sample (InsufficientDataError)."""
    n = np.shape(samples)[0] if np.ndim(samples) else 0
    if not n:
        raise InsufficientDataError("a percentile interval needs at least one sample")
    out = []
    for q in (0.025, 0.975):
        vi = (n - 1) * q
        lo = hi = -1  # numpy's index for a virtual index at or past the last sample
        if vi < n - 1:
            lo = math.floor(vi)
            hi = lo + 1
        part = np.partition(samples, sorted({0, -1, lo, hi}), axis=0)
        a, b, gamma = part[lo], part[hi], vi - lo
        diff = b - a
        value = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
        nan = np.isnan(part[-1])
        out.append(np.where(nan, part[-1], value)[()] if nan.any() else value)
    return tuple(out)


def cell_slopes(mesh: WongZakaiMesh, times: np.ndarray) -> np.ndarray:
    """Slope of the first noise component at each of the times (a scalar is
    one), which must lie in [0, T] as wz_eval requires (DomainError)."""
    return wz_eval(mesh, np.atleast_1d(np.asarray(times, dtype=float)))[1][:, 0]


def _level_rng(seed: int, level: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(level),))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class BrownianPath:
    """Sample path of a d_B-component Brownian motion on the dyadic grid
    t_j = j * T * 2**-level, refinable by Brownian-bridge midpoint insertion.

    ``values`` has shape (2**level + 1, d_B) with values[0] == 0.
    Instances are immutable; refinement returns a new path.
    """

    T: float
    level: int
    seed: int
    d_B: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        self.values.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return 2 ** self.level + 1

    @property
    def dt(self) -> float:
        return self.T * 2.0 ** (-self.level)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_nodes)

    def at_level(self, level: int) -> np.ndarray:
        """Node values restricted to the coarser dyadic grid at ``level``."""
        if level > self.level:
            raise DomainError(f"level {level} finer than stored level {self.level}")
        stride = 2 ** (self.level - level)
        return self.values[::stride]


def sample_brownian(seed: int, T: float, level: int, d_B: int = 1) -> BrownianPath:
    """Sample a Brownian path at dyadic depth ``level``.

    The construction starts from the level-0 endpoint and bridges down, so
    paths of the same seed at different levels are restrictions of one
    another (the coupling required by the convergence studies).  Each
    level's midpoints are filled in place in the final (2**level + 1, d_B)
    array, bitwise what ``level`` calls of ``refine`` give.
    """
    _check_count("seed", seed, 0)
    if not 0 < T < np.inf:
        raise DomainError("horizon T must be positive and finite")
    if level < 0:
        raise DomainError("level must be nonnegative")
    _check_count("d_B", d_B)
    _check_cap(level, d_B)
    level, d_B = int(level), int(d_B)
    ends = np.zeros((2, d_B))
    ends[1] = _level_rng(seed, 0).standard_normal(d_B) * np.sqrt(T)
    rngs = [_level_rng(seed, ell) for ell in range(1, level + 1)]
    values = _refine_nodes(ends, float(T), 0, rngs)
    return BrownianPath(T=float(T), level=level, seed=int(seed), d_B=d_B, values=values)


def refine(path: BrownianPath) -> BrownianPath:
    """Insert Brownian-bridge midpoints, increasing the dyadic level by 1.

    Coarse node values are kept bit-for-bit; midpoints are conditional
    Gaussians with variance T * 2**-(level + 2), drawn from the Philox
    stream keyed by (seed, level + 1).
    """
    new_level = path.level + 1
    _check_cap(new_level, path.d_B)
    new = _refine_nodes(path.values, path.T, path.level, [_level_rng(path.seed, new_level)])
    return BrownianPath(T=path.T, level=new_level, seed=path.seed, d_B=path.d_B, values=new)


def refine_blocks(path: BrownianPath, level: int):
    """The nodes of ``path`` refined to dyadic ``level``, in time order, as
    an iterator of (n, d_B) blocks of about BRIDGE_BLOCK values; consecutive
    blocks share their end node.

    Each finer level draws its (seed, level) Philox stream in order, so a
    path from ``sample_brownian`` yields bitwise the nodes of
    sample_brownian(path.seed, path.T, level, path.d_B), while only one
    block of them is live."""
    if level < path.level:
        raise DomainError(f"level {level} is coarser than the path's level {path.level}")
    _check_cap(level, path.d_B)
    rngs = [_level_rng(path.seed, ell) for ell in range(path.level + 1, int(level) + 1)]
    cells = max(1, BRIDGE_BLOCK // path.d_B >> len(rngs))  # path cells per block
    return (_refine_nodes(path.values[lo:lo + cells + 1], path.T, path.level, rngs)
            for lo in range(0, 2 ** path.level, cells))


def _check_cap(level, d_B) -> None:
    if (2 ** level + 1) * d_B > NODE_CAP:
        raise CapacityError(f"level {level} with d_B={d_B} exceeds node cap {NODE_CAP}")


def _refine_nodes(nodes: np.ndarray, T: float, level: int, rngs) -> np.ndarray:
    """The consecutive level ``level`` nodes refined by len(rngs) levels, the
    k-th finer level's midpoints drawn from rngs[k] where its stream stands."""
    stride = 2 ** len(rngs)
    values = np.empty(((len(nodes) - 1) * stride + 1, nodes.shape[1]))
    values[::stride] = nodes
    for k, rng in enumerate(rngs):
        _bridge_midpoints(values, stride >> k, T, level + k, rng)
    return values


def _bridge_midpoints(values: np.ndarray, stride: int, T: float, level: int, rng) -> None:
    """Fill the level + 1 midpoints values[stride // 2::stride] from the
    level nodes values[::stride] in place: 0.5 * (left + right) plus
    sqrt(T * 2**-(level + 2)) times normals from rng.

    The stream is drawn in row blocks of about BRIDGE_BLOCK normals, in
    order, so the values are those of one draw and no (n_mid, d_B) noise
    array is live beside the path."""
    nodes, mid = values[::stride], values[stride // 2::stride]
    np.add(nodes[:-1], nodes[1:], out=mid)
    mid *= 0.5
    std = np.sqrt(T * 2.0 ** (-(level + 2)))
    rows = max(1, BRIDGE_BLOCK // values.shape[1])
    for lo in range(0, len(mid), rows):
        noise = rng.standard_normal((min(rows, len(mid) - lo), values.shape[1]))
        noise *= std
        mid[lo:lo + rows] += noise


@dataclass(frozen=True)
class WongZakaiMesh:
    """Piecewise-linear interpolant of a Brownian path on cells of width
    delta = T * 2**-l; the derivative is the cell-constant increment / delta."""

    base: BrownianPath
    delta: float

    def __post_init__(self):
        ell = dyadic_level(self.base.T, self.delta)
        if ell > self.base.level:
            raise ConfigurationError(
                f"delta level {ell} exceeds path level {self.base.level}; refine first"
            )
        object.__setattr__(self, "_ell", ell)

    @property
    def n_cells(self) -> int:
        return 2 ** self._ell

    @property
    def node_values(self) -> np.ndarray:
        return self.base.at_level(self._ell)

    def cell_derivative(self, k) -> np.ndarray:
        """Constant slope on cell k, shape (d_B,) (or (len(k), d_B))."""
        vals = self.node_values
        k = np.asarray(k)
        return (vals[k + 1] - vals[k]) / self.delta


def wz_eval(mesh: WongZakaiMesh, t: np.ndarray):
    """Interpolant value and cell derivative at time(s) t.

    The value is continuous and matches the Brownian path at mesh nodes;
    the derivative is the right-cell constant (last cell at t = T).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((t_arr >= 0) & (t_arr <= mesh.base.T * (1 + 1e-12))):  # NaN fails too
        raise DomainError("evaluation time outside [0, T]")
    k = np.minimum((t_arr / mesh.delta).astype(int), mesh.n_cells - 1)
    vals = mesh.node_values
    slope = (vals[k + 1] - vals[k]) / mesh.delta
    value = vals[k] + slope * (t_arr - k * mesh.delta)[:, None]
    if np.isscalar(t) or np.ndim(t) == 0:
        return value[0], slope[0]
    return value, slope


@dataclass(frozen=True)
class WienerField:
    """Finite-mode Wiener field W(t, x) = sum_k q_k(x) beta_k(t).

    ``modes`` is a list of (q_k, dq_k) spatial callables; ``components`` is a
    single Brownian path whose d_B components are the independent beta_k.
    """

    modes: tuple
    components: BrownianPath

    def __post_init__(self):
        if len(self.modes) != self.components.d_B:
            raise ConfigurationError(
                f"{len(self.modes)} modes but path has d_B={self.components.d_B}"
            )

    def mode_values(self, x_grid) -> np.ndarray:
        """Shape (n_modes, len(x_grid)) array of q_k(x)."""
        x = np.asarray(x_grid, dtype=float)
        return np.stack([np.broadcast_to(q(x), x.shape) for q, _ in self.modes])

    def increment(self, delta: float, t0: float, t1: float, x_grid) -> np.ndarray:
        """WZ-interpolated field increment W_delta(t1, x) - W_delta(t0, x)."""
        mesh = WongZakaiMesh(self.components, delta)
        v0, _ = wz_eval(mesh, t0)
        v1, _ = wz_eval(mesh, t1)
        return (v1 - v0) @ self.mode_values(x_grid)


@dataclass(frozen=True)
class DispersionDriver:
    """Stationary Ornstein-Uhlenbeck realization of the dispersion process m,
    stored on a fine grid over [0, T_outer / epsilon**2].

    The integrated driver t -> epsilon * int_0^{t/eps^2} m(s) ds converges in
    law to sigma0 * B(t) with sigma0**2 = ou_scale**2 / ou_rate**2.
    """

    ou_rate: float
    ou_scale: float
    epsilon: float
    T_outer: float
    seed: int

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        if not all(0 < v < np.inf for v in (self.ou_rate, self.epsilon, self.T_outer)):
            raise ConfigurationError("ou_rate, epsilon, T_outer must be positive and finite")
        if not np.isfinite(self.ou_scale):
            raise ConfigurationError("ou_scale must be finite")
        tau_max = self.T_outer / self.epsilon ** 2
        n = int(np.ceil(tau_max * OU_POINTS)) + 1
        if n > NODE_CAP:
            raise CapacityError(f"dispersion grid of {n} nodes exceeds cap {NODE_CAP}")
        dtau = tau_max / (n - 1)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))
        stat_std = self.ou_scale / np.sqrt(2 * self.ou_rate)
        decay = np.exp(-self.ou_rate * dtau)
        kick = stat_std * np.sqrt(1 - decay ** 2)
        m = np.empty(n)
        m[0] = stat_std * rng.standard_normal()
        noise = rng.standard_normal(n - 1)
        for j in range(1, n):
            m[j] = decay * m[j - 1] + kick * noise[j - 1]
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (m[:-1] + m[1:]) * dtau)])
        object.__setattr__(self, "_dtau", dtau)
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "_cum", cum)

    def m_at(self, tau):
        """Piecewise-linear interpolation of the stored inner-time process."""
        grid = np.arange(len(self._m)) * self._dtau
        return np.interp(tau, grid, self._m)


def dispersion_integral(driver: DispersionDriver, t1: np.ndarray, t2: np.ndarray):
    """int_{t1}^{t2} (1/eps) m(s/eps**2) ds, elementwise over arrays of
    bounds and additive over adjacent intervals: the trapezoidal rule on the
    driver's fine grid.  A bound outside [0, T_outer], NaN included, raises
    DomainError."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not np.all((0 <= t1) & (t1 <= t2) & (t2 <= driver.T_outer * (1 + 1e-12))):
        raise DomainError(f"interval [{t1}, {t2}] outside [0, {driver.T_outer}]")
    m, dtau, eps = driver._m, driver._dtau, driver.epsilon
    tau = np.array(np.broadcast_arrays(t1, t2)) / eps ** 2
    j = np.minimum((tau / dtau).astype(int), len(m) - 2)
    frac = tau - j * dtau
    m_tau = m[j] + (m[j + 1] - m[j]) * frac / dtau
    cum = driver._cum[j] + 0.5 * (m[j] + m_tau) * frac  # int_0^tau m(s) ds
    return (eps * (cum[1] - cum[0]))[()]


_contract(globals())
