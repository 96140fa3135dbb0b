"""Split-step spectral solvers for the stochastic nonlinear Schrodinger
equation in its three noise variants: Wong-Zakai multiplicative
potential, white-noise dispersion, and fast random (OU) dispersion.

Every sub-flow of the Strang splitting is computed exactly -- Fourier
multipliers for the kinetic part, pointwise real phase rotations for the
potential part -- so the discrete mass h * sum |u|^2 is conserved to
round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    InsufficientDataError,
    SupportError,
)
from .fields import GridSpec, bohm
from .noise import (
    BrownianPath,
    DispersionDriver,
    WienerField,
    dispersion_integral,
    dyadic_level,
    sample_brownian,
    wiener_field_eval,
)


@dataclass
class WaveField:
    grid: GridSpec
    values: np.ndarray  # complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.grid.dimension != 1 or self.values.shape != self.grid.shape:
            raise ConfigurationError("wave fields are 1D and must match the grid")
        if not np.all(np.isfinite(self.values.real) & np.isfinite(self.values.imag)):
            raise EvaluationError("wave field has non-finite entries")

    @property
    def mass(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.h)


DRIVER_KINDS = (
    "none",
    "wz_potential",
    "strat_potential_limit",
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
    lipschitz: Optional[Callable] = None  # R -> L_f(R) metadata

    def __post_init__(self):
        if self.driver not in DRIVER_KINDS:
            raise ConfigurationError(f"unknown driver kind {self.driver!r}")
        needs = {
            "wz_potential": self.wiener is not None and self.delta is not None,
            "strat_potential_limit": self.wiener is not None and self.delta is not None,
            "white_dispersion": self.brownian is not None,
            "random_dispersion": self.dispersion is not None,
            "none": True,
        }
        if not needs[self.driver]:
            raise ConfigurationError(f"driver {self.driver!r} is missing its data")


def _kinetic(grid: GridSpec, values: np.ndarray, tau: float) -> np.ndarray:
    k = grid.wavenumbers()
    return np.fft.ifft(np.exp(-1j * k ** 2 * tau) * np.fft.fft(values))


def _same_cell(t: float, dt: float, delta: float):
    eps = 1e-9 * delta
    if int((t + eps) // delta) != int((t + dt - eps) // delta):
        raise DomainError(
            f"step [{t}, {t + dt}] straddles a noise-cell boundary (delta={delta})"
        )


def step(spec: NlsSpec, u: WaveField, t: float, dt: float) -> WaveField:
    """One Strang step; see the module docstring for the sub-flows."""
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    grid = u.grid
    x = grid.axis()
    v = u.values
    if spec.driver in ("wz_potential", "strat_potential_limit"):
        _same_cell(t, dt, spec.delta)
        v = _kinetic(grid, v, dt / 2)
        d_w = spec.wiener.increment(spec.delta, t, t + dt, x)
        v = v * np.exp(1j * (spec.lam * spec.f(np.abs(v) ** 2) * dt + d_w))
        v = _kinetic(grid, v, dt / 2)
    elif spec.driver == "white_dispersion":
        db = float(spec.brownian.values[_node_index(spec.brownian, t + dt), 0]
                   - spec.brownian.values[_node_index(spec.brownian, t), 0])
        v = _kinetic(grid, v, db / 2)
        v = v * np.exp(1j * spec.lam * spec.f(np.abs(v) ** 2) * dt)
        v = _kinetic(grid, v, db / 2)
    elif spec.driver == "random_dispersion":
        g1 = dispersion_integral(spec.dispersion, t, t + dt / 2)
        g2 = dispersion_integral(spec.dispersion, t + dt / 2, t + dt)
        v = _kinetic(grid, v, g1)
        v = v * np.exp(1j * spec.lam * spec.f(np.abs(v) ** 2) * dt)
        v = _kinetic(grid, v, g2)
    else:
        v = _kinetic(grid, v, dt / 2)
        v = v * np.exp(1j * spec.lam * spec.f(np.abs(v) ** 2) * dt)
        v = _kinetic(grid, v, dt / 2)
    if not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
        raise EvaluationError(f"wave became non-finite during step at t={t}")
    return WaveField(grid, v)


def _node_index(path: BrownianPath, t: float) -> int:
    i = int(round(t / path.dt))
    if abs(i * path.dt - t) > 1e-9 or not 0 <= i < path.n_nodes:
        raise DomainError(f"time {t} is not a stored node of the Brownian path")
    return i


@dataclass
class NlsTrajectory:
    times: np.ndarray
    waves: list
    mass: np.ndarray
    energy: np.ndarray


def evolve(
    spec: NlsSpec,
    u0: WaveField,
    T: float,
    dt: float,
    sample_times: Optional[Sequence[float]] = None,
) -> NlsTrajectory:
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9:
        raise ConfigurationError("T must be an integer number of steps")
    if sample_times is None:
        sample_times = [0.0, T]
    wanted = {int(round(t / dt)) for t in sample_times}
    for t in sample_times:
        if abs(round(t / dt) * dt - t) > 1e-9:
            raise ConfigurationError(f"sample time {t} not on the step grid")
    u = u0
    out_t, out_u, out_m, out_e = [], [], [], []

    def record(j, u):
        out_t.append(j * dt)
        out_u.append(u)
        out_m.append(u.mass)
        out_e.append(energy(spec, u))

    if 0 in wanted:
        record(0, u)
    for j in range(n_steps):
        u = step(spec, u, j * dt, dt)
        if (j + 1) in wanted:
            record(j + 1, u)
    return NlsTrajectory(np.array(out_t), out_u, np.array(out_m), np.array(out_e))


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


def _mask_components(mask: np.ndarray):
    """Circularly contiguous runs of True indices, each as an index list."""
    n = len(mask)
    if mask.all():
        return [list(range(n))]
    comps, current = [], []
    for i in range(n):
        if mask[i]:
            current.append(i)
        elif current:
            comps.append(current)
            current = []
    if current:
        if comps and mask[0] and comps[0][0] == 0:
            comps[0] = current + comps[0]  # wrap-around run
        else:
            comps.append(current)
    return comps


def madelung(u: WaveField, support_threshold: float = 1e-6) -> MadelungFields:
    """u = sqrt(rho) e^{iS} with S unwrapped along each connected piece of
    the support mask, anchored at that piece's density maximum."""
    rho = np.abs(u.values) ** 2
    raw_mass = float(np.sum(rho) * u.grid.h)
    mask = rho >= support_threshold * np.max(rho)
    ang = np.angle(u.values)
    S = np.full(u.grid.n, np.nan)
    comps = _mask_components(mask)
    for comp in comps:
        arr = np.array(comp)
        anchor_pos = int(np.argmax(rho[arr]))
        S_comp = np.empty(len(arr))
        S_comp[anchor_pos] = ang[arr[anchor_pos]]
        for j in range(anchor_pos + 1, len(arr)):
            S_comp[j] = S_comp[j - 1] + _wrap_angle(ang[arr[j]] - ang[arr[j - 1]])
        for j in range(anchor_pos - 1, -1, -1):
            S_comp[j] = S_comp[j + 1] - _wrap_angle(ang[arr[j + 1]] - ang[arr[j]])
        S[arr] = S_comp
    winding = None
    if mask.all():
        winding = int(round(np.sum(_wrap_angle(np.diff(np.concatenate([ang, ang[:1]])))) / (2 * np.pi)))
    return MadelungFields(rho, raw_mass, S, mask, winding, len(comps))


def madelung_residual(
    waves: Sequence[WaveField],
    spec: NlsSpec,
    times: np.ndarray,
    support_threshold: float = 1e-6,
) -> dict:
    """Residuals of the hydrodynamic pair on the common support mask:

        d rho/dt = -2 r(t) div(rho grad S)
        d S/dt   = r(t) (-|grad S|^2 - bohm(rho)/4) + lam f(rho) + Wdot

    with r = 1 for the potential drivers and the instantaneous dispersion
    rate for random dispersion.  Centered time differences; the S residual
    is zero-mean projected on the mask.
    """
    if spec.driver == "white_dispersion":
        raise ConfigurationError(
            "the white-dispersion form has no classical hydrodynamic residual"
        )
    times = np.asarray(times, dtype=float)
    if len(waves) != len(times) or len(times) < 3:
        raise InsufficientDataError("need at least 3 aligned snapshots")
    dt = times[1] - times[0]
    grid = waves[0].grid
    mads = [madelung(u, support_threshold) for u in waves]
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

    x = grid.axis()
    k = grid.wavenumbers()
    d_dx = lambda g: np.real(np.fft.ifft(1j * k * np.fft.fft(g)))
    rho_res, s_res = [], []
    for j in range(1, len(times) - 1):
        if spec.driver == "random_dispersion":
            rate = spec.dispersion.m_at(times[j] / spec.dispersion.epsilon ** 2) / spec.dispersion.epsilon
            w_dot = 0.0
        else:
            rate = 1.0
            w_dot = 0.0
            if spec.driver in ("wz_potential", "strat_potential_limit"):
                _, w_dot, _ = wiener_field_eval(spec.wiener, spec.delta, times[j], x)
        drho = (rho[j + 1] - rho[j - 1]) / (2 * dt)
        ds = (S[j + 1] - S[j - 1]) / (2 * dt)
        grad_s = d_dx(S[j])
        r1 = drho + 2.0 * rate * d_dx(rho[j] * grad_s)
        r2 = (
            ds
            + rate * (grad_s ** 2 + 0.25 * bohm(grid, rho[j], 1e-14))
            - spec.lam * spec.f(rho[j])
            - w_dot
        )
        r2 = r2 - np.mean(r2[mask])
        rho_res.append(float(np.max(np.abs(r1[mask]))))
        s_res.append(float(np.max(np.abs(r2[mask]))))
    return {
        "times": times[1:-1],
        "rho_residual": np.array(rho_res),
        "s_residual": np.array(s_res),
        "mask_fraction": float(mask.mean()),
    }


# ---------------------------------------------------------------------------
# Wong-Zakai convergence study

def wz_convergence_study(
    lam: float,
    f: Callable,
    F: Callable,
    modes: tuple,
    u0: WaveField,
    T: float,
    deltas: Sequence[float],
    dt: float,
    n_paths: int,
    seed: int,
    noise_floor: float = 1e-10,
) -> dict:
    """Couple all delta levels to one Wiener field per path and measure
    E[sup_t ||u^delta - u^ref||_{L^2}^2]^{1/2} against the finest level.

    Returns per-level RMS errors, the log-log fitted order, a pathwise
    monotonicity table, and a ``no_noise`` flag when every error sits at
    the splitting floor (fit meaningless)."""
    deltas = sorted(deltas, reverse=True)
    if len(deltas) < 3:
        raise InsufficientDataError("need at least 3 delta levels")
    level = max(dyadic_level(T, d) for d in deltas) + 2
    sample_times = np.linspace(0, T, 9)
    errors = np.zeros((n_paths, len(deltas) - 1))
    for m in range(n_paths):
        path = sample_brownian(seed=seed + m, T=T, level=level, d_B=len(modes))
        wiener = WienerField(modes, path)

        def run(delta):
            spec = NlsSpec(lam, f, F, "wz_potential", wiener=wiener, delta=delta)
            return evolve(spec, u0, T, dt, sample_times).waves

        ref = run(deltas[-1])
        for i, d in enumerate(deltas[:-1]):
            ws = run(d)
            sup = max(
                np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * u0.grid.h)
                for a, b in zip(ws, ref)
            )
            errors[m, i] = sup
    rms = np.sqrt(np.mean(errors ** 2, axis=0))
    no_noise = bool(np.max(rms) < noise_floor)
    order = None
    if not no_noise:
        order = float(np.polyfit(np.log(deltas[:-1]), np.log(rms), 1)[0])
    monotone = np.all(np.diff(errors, axis=1) <= 0, axis=1)
    return {
        "deltas": np.array(deltas[:-1]),
        "rms_errors": rms,
        "order": order,
        "no_noise": no_noise,
        "pathwise_monotone": monotone,
        "per_path_errors": errors,
    }


def wave_to_csv(u: WaveField, path) -> None:
    mad = madelung(u)
    with open(path, "w") as fh:
        fh.write("x,re_u,im_u,rho,S\n")
        for x, v, r, s in zip(u.grid.axis(), u.values, mad.rho, mad.S):
            fh.write(
                f"{x:.17g},{v.real:.17g},{v.imag:.17g},{r:.17g},{s:.17g}\n"
            )
