"""Stochastic drivers: Brownian paths on dyadic grids, piecewise-linear
interpolants, finite-mode Wiener fields, and the scaled ergodic dispersion
driver.

All randomness is derived from explicit 64-bit seeds through counter-based
Philox streams keyed by (seed, level), so construction and dyadic refinement
are reproducible independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError, InsufficientDataError
from .fields import _check_count, _is_integer, _write_csv

NODE_CAP = 2 ** 26
ERROR_FLOOR = 1e-10  # a study whose RMS errors all lie below this has no order to fit
BRIDGE_BLOCK = 2 ** 14  # normals per draw when refine fills a level's midpoints
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


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the stored sample time equal to t (to 1e-9); NaN matches none."""
    gap = np.abs(times - t)
    if gap.size == 0 or not gap.min() <= 1e-9:
        raise DomainError(f"t={t} does not align with stored sample times")
    return int(np.argmin(gap))


def uniform_step(times) -> float:
    """The spacing t[1] - t[0] of sample times, which must be finite and
    uniform (to 1e-9)."""
    times = np.asarray(times, dtype=float)
    dt = times[1] - times[0]
    if not np.max(np.abs(np.diff(times) - dt)) <= 1e-9:
        raise ConfigurationError("sample times must be uniform")
    return dt


def centered_rate(series: np.ndarray, dt: float) -> np.ndarray:
    """Centered time difference (s[j+1] - s[j-1]) / (2 dt) at every interior
    sample of a series stacked along its first axis."""
    return (series[2:] - series[:-2]) / (2 * dt)


def fit_order(points) -> tuple:
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


def cell_slopes(mesh: WongZakaiMesh, times) -> np.ndarray:
    """Slope of the first noise component at each time; a time past the
    path's horizon T reads the last cell."""
    return wz_eval(mesh, np.minimum(times, mesh.base.T))[1][:, 0]


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
    another (the coupling required by the convergence studies).
    """
    _check_count("seed", seed, 0)
    if not 0 < T < np.inf:
        raise DomainError("horizon T must be positive and finite")
    if not _is_integer(level):
        raise ConfigurationError(f"level = {level!r} must be an integer")
    if level < 0:
        raise DomainError("level must be nonnegative")
    _check_count("d_B", d_B)
    if (2 ** level + 1) * d_B > NODE_CAP:
        raise CapacityError(f"level {level} with d_B={d_B} exceeds node cap {NODE_CAP}")
    endpoint = _level_rng(seed, 0).standard_normal(d_B) * np.sqrt(T)
    values = np.vstack([np.zeros(d_B), endpoint])
    path = BrownianPath(T=float(T), level=0, seed=int(seed), d_B=int(d_B), values=values)
    for _ in range(level):
        path = refine(path)
    return path


def refine(path: BrownianPath) -> BrownianPath:
    """Insert Brownian-bridge midpoints, increasing the dyadic level by 1.

    Coarse node values are kept bit-for-bit; midpoints are conditional
    Gaussians with variance T * 2**-(level + 2), drawn from the Philox
    stream keyed by (seed, level + 1).
    """
    new_level = path.level + 1
    if (2 ** new_level + 1) * path.d_B > NODE_CAP:
        raise CapacityError(f"refining to level {new_level} exceeds node cap {NODE_CAP}")
    old = path.values
    n_mid = 2 ** path.level
    std = np.sqrt(path.T * 2.0 ** (-(path.level + 2)))
    rng = _level_rng(path.seed, new_level)
    new = np.empty((2 ** new_level + 1, path.d_B))
    new[::2] = old
    mid = new[1::2]  # 0.5 * (old[:-1] + old[1:]) + noise, built in place
    np.add(old[:-1], old[1:], out=mid)
    mid *= 0.5
    # the stream is drawn in row blocks of about BRIDGE_BLOCK normals, in
    # order, so the values are those of one draw and no (n_mid, d_B) noise
    # array is live beside old and new
    rows = max(1, BRIDGE_BLOCK // path.d_B)
    for lo in range(0, n_mid, rows):
        noise = rng.standard_normal((min(rows, n_mid - lo), path.d_B))
        noise *= std
        mid[lo:lo + rows] += noise
    return BrownianPath(T=path.T, level=new_level, seed=path.seed, d_B=path.d_B, values=new)


def path_to_csv(path: BrownianPath, fname) -> None:
    header = "t," + ",".join(f"B{i}" for i in range(path.d_B))
    _write_csv(fname, header, np.column_stack([path.times, path.values]))


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


def wz_eval(mesh: WongZakaiMesh, t):
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

    def mode_gradients(self, x_grid) -> np.ndarray:
        x = np.asarray(x_grid, dtype=float)
        return np.stack([np.broadcast_to(dq(x), x.shape) for _, dq in self.modes])

    def increment(self, delta: float, t0: float, t1: float, x_grid) -> np.ndarray:
        """WZ-interpolated field increment W_delta(t1, x) - W_delta(t0, x)."""
        mesh = WongZakaiMesh(self.components, delta)
        v0, _ = wz_eval(mesh, t0)
        v1, _ = wz_eval(mesh, t1)
        return (v1 - v0) @ self.mode_values(x_grid)


def wiener_field_eval(field: WienerField, delta: float, t, x_grid):
    """Evaluate (W_delta(t, x), dW_delta/dt(t, x), grad_x W_delta(t, x)) on a grid."""
    mesh = WongZakaiMesh(field.components, delta)
    value, slope = wz_eval(mesh, t)
    qs = field.mode_values(x_grid)
    dqs = field.mode_gradients(x_grid)
    return value @ qs, slope @ qs, value @ dqs


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

    def _antiderivative(self, tau: float) -> float:
        """int_0^tau m(s) ds with trapezoidal quadrature on the fine grid."""
        tau_max = (len(self._m) - 1) * self._dtau
        if tau < -1e-12 or tau > tau_max * (1 + 1e-12):
            raise DomainError(f"inner time {tau} outside stored horizon {tau_max}")
        j = min(int(tau / self._dtau), len(self._m) - 2)
        t_j = j * self._dtau
        frac = tau - t_j
        m_tau = self._m[j] + (self._m[j + 1] - self._m[j]) * frac / self._dtau
        return self._cum[j] + 0.5 * (self._m[j] + m_tau) * frac


def dispersion_integral(driver: DispersionDriver, t1: float, t2: float) -> float:
    """int_{t1}^{t2} (1/eps) m(s/eps**2) ds, additive over adjacent intervals."""
    if not 0 <= t1 <= t2 <= driver.T_outer * (1 + 1e-12):
        raise DomainError(f"interval [{t1}, {t2}] outside [0, {driver.T_outer}]")
    eps = driver.epsilon
    return eps * (driver._antiderivative(t2 / eps ** 2) - driver._antiderivative(t1 / eps ** 2))
