"""Split-step spectral solvers for the stochastic nonlinear Schrodinger
equation in its three noise variants: Wong-Zakai multiplicative
potential, white-noise dispersion, and fast random (OU) dispersion.

Every sub-flow of the Strang splitting is computed exactly -- Fourier
multipliers for the kinetic part, pointwise real phase rotations for the
potential part -- so the discrete mass h * sum |u|^2 is conserved to
round-off by construction.

A march completes only the steps whose end state is recorded, and its last
step; between them it merges each step's closing kinetic half-step with the
next step's opening one into one multiplier on the kept spectrum (see
_march), which is the same flow in exact arithmetic at half the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ConfigurationError,
    EvaluationError,
    InsufficientDataError,
    SupportError,
)
from .fields import GridSpec, PathLike, _check_count, _contract, _write_csv, bohm, gradient
from .noise import (
    ERROR_FLOOR,
    NODE_CAP,
    BrownianPath,
    DispersionDriver,
    WienerField,
    WongZakaiMesh,
    _check_deltas,
    centered_rate,
    dispersion_integral,
    dyadic_level,
    fit_order,
    grid_index,
    sample_brownian,
    uniform_step,
    wz_eval,
)


@dataclass
class WaveField:
    grid: GridSpec
    values: np.ndarray  # complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError("wave field values do not match the grid shape")
        if not np.isfinite(self.values).all():
            raise EvaluationError("wave field has non-finite entries")

    @property
    def mass(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.h)


DRIVER_KINDS = (
    "none",
    "wz_potential",
    "white_dispersion",
    "random_dispersion",
)


@dataclass
class NlsSpec:
    """Nonlinearity and noise driver of the equation
    du = i lap(u) dt + i lam f(|u|^2) u dt + (noise term).

    ``f`` must be real-valued (unitarity of the phase rotation); ``F`` is
    its primitive, used only by the energy functional.
    """

    lam: float
    f: Callable
    F: Callable
    driver: str = "none"
    wiener: Optional[WienerField] = None
    delta: Optional[float] = None
    brownian: Optional[BrownianPath] = None
    dispersion: Optional[DispersionDriver] = None

    def __post_init__(self):
        if self.driver not in DRIVER_KINDS:
            raise ConfigurationError(f"unknown driver kind {self.driver!r}")
        needs = {
            "wz_potential": self.wiener is not None and self.delta is not None,
            "white_dispersion": self.brownian is not None,
            "random_dispersion": self.dispersion is not None,
            "none": True,
        }
        if not needs[self.driver]:
            raise ConfigurationError(f"driver {self.driver!r} is missing its data")


def _multiplier(k: np.ndarray, tau: float) -> np.ndarray:
    """Fourier multiplier of the kinetic flow over time tau."""
    return np.exp(-1j * k ** 2 * tau)


def _rotation(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{i theta} of real theta written into the complex array out as
    cos theta + i sin theta, bitwise equal to np.exp(1j * theta) for finite
    theta: 1j * theta has imaginary part +0 + theta, so theta = -0.0 enters
    the sine as +0.0 there, and here through the added 0.0."""
    theta = theta + 0.0
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _check_horizon(ts: np.ndarray, dt: float, T: float) -> None:
    """ConfigurationError unless every interval [t, t + dt], t in ts, lies in [0, T]."""
    outside = ~((ts >= 0) & (ts + dt <= T * (1 + 1e-12)))  # NaN is outside too
    if outside.any():
        t = ts[np.argmax(outside)]
        raise ConfigurationError(f"[{t}, {t + dt}] leaves the noise horizon [0, {T}]")


def _wz_increments(wiener: WienerField, delta: float, ts: np.ndarray, dt: float) -> np.ndarray:
    """W_delta(t + dt) - W_delta(t) of the field's components for every step
    start t in ts, shape (len(ts), d_B). A step that leaves the noise path's
    horizon or straddles a noise cell raises ConfigurationError."""
    _check_horizon(ts, dt, wiener.components.T)
    eps = 1e-9 * delta
    straddles = (ts + eps) // delta != (ts + dt - eps) // delta
    if straddles.any():
        t = ts[np.argmax(straddles)]
        raise ConfigurationError(f"step [{t}, {t + dt}] straddles a noise cell of width {delta}")
    w, _ = wz_eval(WongZakaiMesh(wiener.components, delta), np.concatenate([ts, ts + dt]))
    return w[len(ts):] - w[:len(ts)]


def _march(spec, grid, v, t0, dt, n_steps, wanted=(), record=None, dw=None):
    """Advance the rows of v, a (B, n) complex array, by n_steps Strang steps
    from t0, calling record(j, v) for each step count j in wanted (0 is the
    start); returns the rows after the last step.

    Every driver's noise is resolved before the first step, so a step past
    its horizon raises ConfigurationError before any kick.  Row r is kicked
    by _rotation of lam f(|v|^2) dt + dw[r] @ Q into a buffer reused across
    steps, where dw is (B, n_steps, d_B) (spec's own noise for one row when
    omitted) and Q holds the potential driver's mode values (a zero noise
    phase for the other drivers); one stacked matmul gives every row's
    noise phase, bitwise each row's vector-matrix product.

    A step whose end is recorded, and the last step, is completed as
    ifft(second * fft(kicked wave)), and the next step starts from fft of
    that wave, so a march that records every step makes 4 transforms a
    step.  Any other step keeps the spectrum of its kicked wave and carries
    its second half multiplier into the next step, which applies
    second * first in its one inverse transform: 2 transforms a step, the
    same flow in exact arithmetic.
    """
    if not 0 < dt < np.inf:
        raise ConfigurationError(f"dt = {dt!r} must be positive and finite")
    k = grid.wavenumbers()
    ts = t0 + np.arange(n_steps) * dt
    # each step's kinetic half-step times where they are not dt / 2: (first,
    # second), or one time that both halves share
    taus = None
    if spec.driver == "white_dispersion":
        b = spec.brownian
        nodes = b.values[grid_index(ts[:, None] + [0.0, dt], b.dt, b.n_nodes - 1), 0]
        taus = (np.diff(nodes) / 2).tolist()
    elif spec.driver == "random_dispersion":
        _check_horizon(ts, dt, spec.dispersion.T_outer)
        ends = ts[:, None] + [0.0, dt / 2, dt]
        taus = dispersion_integral(spec.dispersion, ends[:, :-1], ends[:, 1:]).tolist()
    if spec.driver == "wz_potential":
        if dw is None:
            dw = _wz_increments(spec.wiener, spec.delta, ts, dt)[None]
        q = spec.wiener.mode_values(grid.axis())
    else:
        dw, q = np.zeros((1, n_steps, 1)), np.zeros((1, grid.n))
    if taus is None:
        first = second = _multiplier(k, dt / 2)
    rotation = np.empty(v.shape, dtype=complex)
    if 0 in wanted:
        record(0, v)
    carried = None  # the previous step's second half multiplier, not yet applied to spectrum
    with np.errstate(all="ignore"):  # a non-finite kick fails the wave check below
        for j, t in enumerate(ts.tolist()):
            if taus is not None:
                halves = [_multiplier(k, tau) for tau in taus[j]]
                first, second = halves[0], halves[-1]
            if carried is None:
                v = np.fft.ifft(first * np.fft.fft(v))
            else:
                v = np.fft.ifft(carried * first * spectrum)
            d_w = np.matmul(dw[:, j, None, :], q)[:, 0]
            _rotation(spec.lam * spec.f(np.abs(v) ** 2) * dt + d_w, rotation)
            # named: numpy may reuse a temporary as rotation * v, which rounds differently
            v = v * rotation
            if not np.isfinite(v).all():
                raise EvaluationError(f"wave became non-finite during step at t={t}")
            spectrum = np.fft.fft(v)
            recorded = j + 1 in wanted
            if recorded or j + 1 == n_steps:
                v, carried = np.fft.ifft(second * spectrum), None
                if recorded:
                    record(j + 1, v)
            else:
                carried = second
    return v


def step(spec: NlsSpec, u: WaveField, t: float, dt: float) -> WaveField:
    """One Strang step; see the module docstring for the sub-flows."""
    return WaveField(u.grid, _march(spec, u.grid, u.values[None], t, dt, 1)[0])


@dataclass
class NlsTrajectory:
    times: np.ndarray
    waves: list
    mass: np.ndarray
    energy: np.ndarray


def _schedule(T: float, dt: float, sample_times) -> tuple:
    """The step count for [0, T] and the set of steps to record."""
    if not 0 < dt < np.inf:
        raise ConfigurationError(f"dt = {dt!r} must be positive and finite")
    if not np.isfinite(T / dt):
        raise ConfigurationError(f"T={T} is not a finite number of steps")
    n_steps = int(round(T / dt))
    if n_steps > NODE_CAP:
        raise CapacityError(
            f"T={T} at dt={dt} is {T / dt:.3g} steps, over the node cap {NODE_CAP}")
    if abs(n_steps * dt - T) > 1e-9:
        raise ConfigurationError("T must be an integer number of steps")
    return n_steps, set(grid_index(sample_times, dt, n_steps).tolist())


def evolve(
    spec: NlsSpec,
    u0: WaveField,
    T: float,
    dt: float,
    sample_times: Optional[np.ndarray] = None,
) -> NlsTrajectory:
    n_steps, wanted = _schedule(T, dt, [0.0, T] if sample_times is None else sample_times)
    steps, waves = [], []

    def record(j, v):
        steps.append(j)
        waves.append(WaveField(u0.grid, v[0]) if j else u0)

    _march(spec, u0.grid, u0.values[None], 0.0, dt, n_steps, wanted, record)
    return NlsTrajectory(np.array(steps) * dt, waves, np.array([u.mass for u in waves]),
                         np.array([energy(spec, u) for u in waves]))


def energy(spec: NlsSpec, u: WaveField) -> float:
    """H(u) = int |grad u|^2 / 2 - (lam/2) int F(|u|^2)."""
    k = u.grid.wavenumbers()
    du = np.fft.ifft(1j * k * np.fft.fft(u.values))
    dens = 0.5 * np.abs(du) ** 2 - 0.5 * spec.lam * spec.F(np.abs(u.values) ** 2)
    return float(np.sum(dens) * u.grid.h)


# ---------------------------------------------------------------------------
# Madelung transform

@dataclass
class MadelungFields:
    rho: np.ndarray          # |u|^2, unnormalized
    raw_mass: float
    S: np.ndarray            # unwrapped phase (NaN off the mask)
    mask: np.ndarray
    winding: Optional[int]   # total winding when the mask covers the torus
    n_components: int


def _wrap_angle(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def madelung(u: WaveField, support_threshold: float = 1e-6) -> MadelungFields:
    """u = sqrt(rho) e^{iS} with S unwrapped along each circularly contiguous
    run of the support mask by one cumulative sum each way from the run's
    density maximum (a sequential sum, so S[j] = S[j-1] + wrapped step)."""
    if not np.isfinite(support_threshold):
        raise ConfigurationError(f"support_threshold = {support_threshold!r} must be finite")
    rho = np.abs(u.values) ** 2
    raw_mass = float(np.sum(rho) * u.grid.h)
    mask = rho >= support_threshold * np.max(rho)
    ang = np.angle(u.values)
    n = u.grid.n
    S = np.full(n, np.nan)
    winding = None
    if mask.all():
        runs = [np.arange(n)]
        winding = int(round(np.sum(_wrap_angle(np.diff(np.concatenate([ang, ang[:1]])))) / (2 * np.pi)))
    else:
        starts = np.flatnonzero(mask & ~np.roll(mask, 1))
        stops = np.flatnonzero(mask & ~np.roll(mask, -1))
        if len(stops) and stops[0] < starts[0]:
            stops = np.roll(stops, -1)  # the last run wraps round the end
        runs = [np.arange(a, b + 1 + (n if b < a else 0)) % n for a, b in zip(starts, stops)]
    for run in runs:
        k = int(np.argmax(rho[run]))
        d = _wrap_angle(np.diff(ang[run]))
        anchor = ang[run[k:k + 1]]
        S[run[k:]] = np.cumsum(np.concatenate([anchor, d[k:]]))
        S[run[:k + 1]] = np.cumsum(np.concatenate([anchor, -d[:k][::-1]]))[::-1]
    return MadelungFields(rho, raw_mass, S, mask, winding, len(runs))


def madelung_residual(
    waves: Sequence[WaveField],
    spec: NlsSpec,
    times: np.ndarray,
) -> dict:
    """Residuals of the hydrodynamic pair on the common support mask:

        d rho/dt = -2 r(t) div(rho grad S)
        d S/dt   = r(t) (-|grad S|^2 - bohm(rho)/4) + lam f(rho) + Wdot

    with r = 1 for the potential driver and the instantaneous dispersion
    rate for random dispersion, whose snapshot times must lie in
    [0, T_outer].  Centered time differences; the S residual is zero-mean
    projected on the mask.  A snapshot of known winding w is differentiated
    as S - 2 pi w (x - origin) / L, which is periodic, plus 2 pi w / L.
    """
    if spec.driver == "white_dispersion":
        raise ConfigurationError(
            "the white-dispersion form has no classical hydrodynamic residual"
        )
    times, dt = uniform_step(times, waves)
    if spec.driver == "random_dispersion":
        _check_horizon(times, 0.0, spec.dispersion.T_outer)
    grid = waves[0].grid
    mads = [madelung(u) for u in waves]
    mask = np.logical_and.reduce([m.mask for m in mads])
    if mask.mean() < 0.5:
        raise SupportError("common support mask covers less than half the grid")
    ref = int(np.nonzero(mask)[0][0])
    S = np.array([m.S for m in mads])
    S = np.where(np.isnan(S), 0.0, S)
    # remove 2*pi ambiguities between consecutive snapshots at a reference node
    for j in range(1, len(mads)):
        S[j] += 2 * np.pi * np.round((S[j - 1, ref] - S[j, ref]) / (2 * np.pi))
    rho = np.array([m.rho for m in mads])

    rate, w_dot = 1.0, 0.0
    if spec.driver == "random_dispersion":
        eps = spec.dispersion.epsilon
        rate = (spec.dispersion.m_at(times[1:-1] / eps ** 2) / eps)[:, None]
    elif spec.driver == "wz_potential":
        _, slope = wz_eval(WongZakaiMesh(spec.wiener.components, spec.delta), times[1:-1])
        w_dot = np.matmul(slope[:, None, :], spec.wiener.mode_values(grid.axis()))[:, 0]
    rho_j, s_j = rho[1:-1], S[1:-1]
    ramp_slope = 2 * np.pi / grid.period * np.array([[m.winding or 0] for m in mads[1:-1]])
    grad_s = gradient(grid, s_j - ramp_slope * (grid.axis() - grid.origin)) + ramp_slope
    r1 = centered_rate(rho, dt) + 2.0 * rate * gradient(grid, rho_j * grad_s)
    r2 = (
        centered_rate(S, dt)
        + rate * (grad_s ** 2 + 0.25 * bohm(grid, rho_j, 1e-14))
        - spec.lam * spec.f(rho_j)
        - w_dot
    )
    # the masked columns as a C-ordered copy, so each row mean sums like a 1-D mean
    r2 -= np.ascontiguousarray(r2[:, mask]).mean(axis=1, keepdims=True)
    return {
        "times": times[1:-1],
        "rho_residual": np.max(np.abs(r1[:, mask]), axis=1),
        "s_residual": np.max(np.abs(r2[:, mask]), axis=1),
        "mask_fraction": float(mask.mean()),
    }


# ---------------------------------------------------------------------------
# Wong-Zakai convergence study

def wz_convergence_study(
    lam: float,
    f: Callable,
    F: Callable,
    modes: Sequence[Sequence[Callable]],
    u0: WaveField,
    T: float,
    deltas: Sequence[float],
    dt: float,
    n_paths: int,
    seed: int,
) -> dict:
    """E[max_t ||u^delta - u^ref||_{L^2}^2]^{1/2} against the finest level
    over n_paths coupled paths, the max taken over the 9 times
    np.linspace(0, T, 9).

    Every level of a path is coupled to one Wiener field, sampled at the
    finest level, and every (path, level) pair is one row of a single
    batched march.  Returns the coarse levels' deltas, their RMS errors, the
    log-log fitted order, the per-path errors (rows) of each coarse level
    (columns), and a ``no_noise`` flag when every error sits at the
    splitting floor (fit meaningless)."""
    deltas = _check_deltas(deltas, T)
    _check_count("n_paths", n_paths)
    if any(len(m) != 2 for m in modes):
        raise ConfigurationError(f"modes = {modes!r} must be (q, dq) pairs of callables")
    if len(deltas) < 3:
        raise InsufficientDataError("need at least 3 delta levels")
    level = dyadic_level(T, deltas[-1])
    n_steps, wanted = _schedule(T, dt, np.linspace(0, T, 9))
    ts = np.arange(n_steps) * dt
    dw = []
    for m in range(n_paths):
        path = sample_brownian(seed=seed + m, T=T, level=level, d_B=len(modes))
        wiener = WienerField(modes, path)
        dw += [_wz_increments(wiener, d, ts, dt) for d in deltas]
    L = len(deltas)
    errors = np.zeros((n_paths, L - 1))

    def record(j, v):
        rows = v.reshape(n_paths, L, -1)
        err = np.sqrt(np.sum(np.abs(rows[:, :-1] - rows[:, -1:]) ** 2, axis=-1) * u0.grid.h)
        np.maximum(errors, err, out=errors)

    # every row has the same modes, so the last path's field gives Q
    spec = NlsSpec(lam, f, F, "wz_potential", wiener=wiener, delta=deltas[-1])
    rows = np.repeat(u0.values[None], n_paths * L, axis=0)
    _march(spec, u0.grid, rows, 0.0, dt, n_steps, wanted, record, np.array(dw))
    rms = np.sqrt(np.mean(errors ** 2, axis=0))
    no_noise = bool(np.max(rms) < ERROR_FLOOR)
    return {
        "deltas": np.array(deltas[:-1]),
        "rms_errors": rms,
        "order": None if no_noise else fit_order(list(zip(deltas[:-1], rms)))[0],
        "no_noise": no_noise,
        "per_path_errors": errors,
    }


def wave_to_csv(u: WaveField, path: PathLike) -> None:
    mad = madelung(u)
    rows = zip(u.grid.axis(), u.values.real, u.values.imag, mad.rho, mad.S)
    _write_csv(path, "x,re_u,im_u,rho,S", rows)


_contract(globals())
