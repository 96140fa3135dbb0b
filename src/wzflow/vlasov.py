"""Weak-form verification of the kinetic (phase-space law) equations.

Conditioned on one shared noise path the particle law satisfies a
first-order transport equation; averaging over the noise adds a
second-order momentum diffusion with coefficient eta^2 (grad sigma x
grad sigma) / 2.  Both statements are checked against particle
ensembles through a battery of smooth test functions, never through a
phase-space grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError, InsufficientDataError
from .fields import _check_count, _write_csv
from .noise import (
    WongZakaiMesh, cell_slopes, centered_rate, dyadic_level, sample_brownian, time_index,
    uniform_step,
)
from .phase import HamiltonianSpec, PhaseState, _heun_step, _march, _start, _wz_integrate


def _particles(a) -> np.ndarray:
    """Coordinates as an (N, d) float array; a scalar or a 1-D array of N
    values is N one-dimensional particles, shape (N, 1)."""
    a = np.asarray(a, dtype=float)
    return a.reshape(-1, 1) if a.ndim < 2 else a


@dataclass
class PhaseEnsemble:
    """Uniformly weighted particle cloud (x_i, p_i) at one time. A 1-D array
    of N coordinates is N one-dimensional particles, shape (N, 1)."""

    x: np.ndarray  # (N, d)
    p: np.ndarray  # (N, d)
    time: float = 0.0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x, self.p = (_particles(a) for a in (self.x, self.p))
        if self.x.shape != self.p.shape or self.x.shape[0] < 1:
            raise ConfigurationError("particle arrays must match and be nonempty")
        if not (np.isfinite(self.x).all() and np.isfinite(self.p).all()):
            raise DomainError("particle ensemble has non-finite coordinates")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class TestFunction:
    """phi(x, p) = T(x) * p^m exp(-p^2) with T a low trigonometric mode.

    One-dimensional in x and p; all derivatives are analytic, and the
    Gaussian damping keeps every moment finite.
    """

    __test__ = False  # not a pytest class despite the name

    trig: str          # "one", "sin", "cos"
    power: int         # 0..3
    length: float = 2 * np.pi

    def __post_init__(self):
        if self.trig not in ("one", "sin", "cos") or not 0 <= self.power <= 3:
            raise ConfigurationError("unsupported test-function descriptor")

    @property
    def label(self) -> str:
        return f"{self.trig}*p{self.power}"

    def _t(self, x):
        w = 2 * np.pi / self.length
        if self.trig == "one":
            return np.ones_like(x), np.zeros_like(x)
        if self.trig == "sin":
            return np.sin(w * x), w * np.cos(w * x)
        return np.cos(w * x), -w * np.sin(w * x)

    def _m(self, pw, e):
        m = self.power
        val = pw(m) * e
        dp = (m * pw(max(m - 1, 0)) * (1 if m else 0) - 2 * pw(m + 1)) * e
        dpp = (
            (m * (m - 1) * pw(max(m - 2, 0)) if m >= 2 else 0.0)
            - 2 * (2 * m + 1) * pw(m)
            + 4 * pw(m + 2)
        ) * e
        return val, dp, dpp

    def value(self, x, p):
        return self._t(x)[0] * self._m(*_p_factors(p))[0]

    def dx(self, x, p):
        return self._t(x)[1] * self._m(*_p_factors(p))[0]

    def dp(self, x, p):
        return self._t(x)[0] * self._m(*_p_factors(p))[1]

    def dpp(self, x, p):
        return self._t(x)[0] * self._m(*_p_factors(p))[2]


def _p_factors(p):
    """pw(k) = p^k for k <= 5 by repeated products, within 3 ulp of libm
    ``pow`` (p^2 is bitwise ``p ** 2``), and e = exp(-p^2)."""
    pows = [np.ones_like(p), p, p * p]
    for _ in range(3):
        pows.append(pows[-1] * p)
    return pows.__getitem__, np.exp(-pows[2])


def default_battery(length: float = 2 * np.pi) -> list:
    """12 functions: {1, sin, cos} x {p^0..p^3} e^{-p^2}."""
    return [
        TestFunction(trig, power, length)
        for trig in ("one", "sin", "cos")
        for power in range(4)
    ]


def evaluate_battery(battery: Sequence[TestFunction], x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """value, dx, dp and dpp of every test function at the particles (x, p),
    stacked as (4, len(battery), N). The p-factors are built once, each mode
    once per (trig, length) and each moment once per power; every entry is
    bitwise equal to the corresponding ``TestFunction`` method."""
    out = np.empty((4, len(battery)) + np.shape(x))
    pf, modes, moments = _p_factors(p), {}, {}
    for q, phi in enumerate(battery):
        if (phi.trig, phi.length) not in modes:
            modes[phi.trig, phi.length] = phi._t(x)
        if phi.power not in moments:
            moments[phi.power] = phi._m(*pf)
        t, dt = modes[phi.trig, phi.length]
        m, dm, dmm = moments[phi.power]
        out[0, q], out[1, q], out[2, q], out[3, q] = t * m, dt * m, t * dm, t * dmm
    return out


# ---------------------------------------------------------------------------
# evolution

def evolve_conditional(
    spec: HamiltonianSpec,
    ensemble0: PhaseEnsemble,
    mesh: WongZakaiMesh,
    substeps_per_cell: int,
    sample_times: Sequence[float],
) -> list:
    """Advance every particle with the SAME noise interpolant and return
    the ensemble at each requested sample time. Only the states at the
    sample times are stored, and the march stops at the last of them; a
    sample time off the step grid raises ``DomainError`` before the march,
    and one the march stops short of (a non-finite state) raises it after."""
    flow = _wz_integrate(
        spec,
        _start(spec, PhaseState(ensemble0.x, ensemble0.p)),
        mesh,
        substeps_per_cell,
        at=sample_times,
    )
    out = []
    for t in sample_times:
        i = time_index(flow.times, t)
        out.append(PhaseEnsemble(flow.xs[i], flow.ps[i], time=float(flow.times[i]),
                                 provenance={"seed": mesh.base.seed}))
    return out


# ---------------------------------------------------------------------------
# weak residuals

def _check_times(sample_times):
    t = np.asarray(sample_times, dtype=float)
    if t.size < 3:
        raise InsufficientDataError("need at least 3 sample times")
    return t, uniform_step(t)


def weak_residual_first_order(
    spec: HamiltonianSpec,
    ensembles: Sequence[PhaseEnsemble],
    mesh: WongZakaiMesh,
    battery: Optional[list] = None,
) -> dict:
    """Residual of the conditional (first-order) transport equation in weak
    form, per test function and interior sample time. With kappa = 1 the
    noise also moves x, which adds dphi/dx * eta * p * xi' to the drift."""
    battery = default_battery(spec.period) if battery is None else battery
    times, dt = _check_times([e.time for e in ensembles])
    n_t = len(times)
    xis = cell_slopes(mesh, times[1:-1])
    means = np.empty((len(battery), n_t))
    rhs = np.empty((len(battery), n_t - 2))
    for j, e in enumerate(ensembles):
        x, p = e.x, e.p
        val, dx, dp, _ = evaluate_battery(battery, x[:, 0], p[:, 0])
        means[:, j] = val.mean(axis=1)
        if 0 < j < n_t - 1:
            xi = xis[j - 1]
            drift = (
                dx * spec.grad_p_h0(x, p)[:, 0]
                - dp * spec.grad_x_h0(x, p)[:, 0]
                - dp * spec.grad_x_h1(x, p)[:, 0] * xi
            )
            if spec.kappa:
                drift = drift + dx * spec.grad_p_h1(x, p)[:, 0] * xi
            rhs[:, j - 1] = drift.mean(axis=1)
    lhs = centered_rate(means.T, dt).T
    return {
        "labels": [phi.label for phi in battery],
        "times": times[1:-1],
        "lhs": lhs,
        "rhs": rhs,
        "residual": np.abs(lhs - rhs),
    }


def weak_residual_second_order(
    spec: HamiltonianSpec,
    ensemble0: PhaseEnsemble,
    n_replications: int,
    dt: float,
    sample_times: Sequence[float],
    seed: int,
    battery: Optional[list] = None,
    include_hessian_term: bool = True,
    n_bootstrap: int = 1000,
) -> dict:
    """Residual of the noise-averaged (second-order) equation with
    bootstrap confidence intervals over independent Brownian replications.

    Replication r is the ensemble driven by ``sample_brownian(seed + r)``
    with Stratonovich Heun steps of size ``dt``. All replications advance
    as one stacked array of R*N particles, and the battery is evaluated on
    each replication's particles as the march reaches a sample time, so no
    trajectory is stored. The bootstrap resamples replications with the
    ``seed ^ 0x5EED`` stream. Raises ``EvaluationError`` naming the first
    replication that goes non-finite.

    Setting ``include_hessian_term=False`` drops the eta^2/2 momentum
    diffusion; on noisy data this ablation must push the residual out of
    its confidence interval. The averaged generator is built for kappa = 0
    only: with kappa = 1 it needs d2phi/dx2 and d2phi/dxdp, which the
    battery does not carry, so kappa = 1 raises ``ConfigurationError``.
    """
    if spec.kappa == 1:
        raise ConfigurationError(
            "the second-order residual needs kappa = 0 (tilde_metric=None)"
        )
    _check_count("n_replications", n_replications, 30)
    _check_count("n_bootstrap", n_bootstrap)
    battery = default_battery(spec.period) if battery is None else battery
    times, dt_out = _check_times(sample_times)
    t_end = float(times[-1])
    level = dyadic_level(t_end, dt)
    n_rep, n_phi, n_t = n_replications, len(battery), len(times)
    steps = np.linspace(0.0, t_end, 2 ** level + 1)  # the Heun step times
    column = {time_index(steps, t): j for j, t in enumerate(times)}

    obs = np.empty((n_rep, n_phi, n_t))      # <phi> per replication
    drf = np.empty((n_rep, n_phi, n_t - 2))  # drift observable at the interior times

    def observe(r, j, x, p):
        val, dx, dp, dpp = evaluate_battery(battery, x[:, 0], p[:, 0])
        obs[r, :, j] = val.mean(axis=1)
        if 0 < j < n_t - 1:
            drift = dx * spec.grad_p_h0(x, p)[:, 0] - dp * spec.grad_x_h0(x, p)[:, 0]
            if include_hessian_term:
                drift = drift + 0.5 * spec.eta ** 2 * spec.dsigma(x)[:, 0] ** 2 * dpp
            drf[r, :, j - 1] = drift.mean(axis=1)

    y0 = _start(spec, PhaseState(ensemble0.x, ensemble0.p))
    n = y0[0].shape[0]
    if 0 in column:  # every replication starts from the same state
        observe(0, 0, *y0)
        obs[1:, :, 0] = obs[0, :, 0]

    def accept(k, y):
        y[0] = spec.wrap(y[0])
        if not all(np.isfinite(a).all() for a in y):
            r = int(np.argmin(np.isfinite(np.hstack(y)).reshape(n_rep, -1).all(axis=1)))
            raise EvaluationError(
                f"replication {r} (seed {seed + r}) is non-finite at t={steps[k]:.6g}"
            )
        if k in column:
            for r in range(n_rep):
                rows = slice(r * n, (r + 1) * n)
                observe(r, column[k], y[0][rows], y[1][rows])
        return y

    incs = np.stack([
        np.diff(sample_brownian(seed=seed + r, T=t_end, level=level).values[:, 0])
        for r in range(n_rep)
    ], axis=1)  # (n_steps, R)
    heun = _heun_step(spec, dt)
    dbs = (np.repeat(inc, n)[:, None] for inc in incs)  # each step's (R*N, 1) noise
    _march(lambda y, e: heun(e, *y), [np.tile(a, (n_rep, 1)) for a in y0], dbs, accept)

    def residual_of(a, d):
        """(lhs, residual) from the replication means a of obs and d of drf."""
        lhs = centered_rate(a.T, dt_out).T
        return lhs, lhs - d

    lhs, res = residual_of(obs.mean(axis=0), drf.mean(axis=0))
    idx = np.random.default_rng(seed ^ 0x5EED).integers(0, n_rep, (n_bootstrap, n_rep))
    boots = np.empty((n_bootstrap,) + res.shape)
    for b in range(0, n_bootstrap, 100):  # 100 draws bound the gathered (100, R, ...) copy
        i = idx[b:b + 100]
        boots[b:b + 100] = residual_of(obs[i].mean(axis=1), drf[i].mean(axis=1))[1]
    ci_low = np.quantile(boots, 0.025, axis=0)
    ci_high = np.quantile(boots, 0.975, axis=0)
    mean_boots = boots.mean(axis=2)  # time-averaged residual per phi
    return {
        "labels": [phi.label for phi in battery],
        "times": times[1:-1],
        "lhs": lhs,
        "rhs": lhs - res,
        "residual": res,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "mean_residual": res.mean(axis=1),
        "mean_ci_low": np.quantile(mean_boots, 0.025, axis=0),
        "mean_ci_high": np.quantile(mean_boots, 0.975, axis=0),
    }


def residual_table_to_csv(table: dict, path) -> None:
    """Rows: time, phi-id, lhs, rhs, residual[, ci_low, ci_high]."""
    cols = ["lhs", "rhs", "residual"] + (["ci_low", "ci_high"] if "ci_low" in table else [])
    rows = (
        [t, lab] + [table[c][i, j] for c in cols]
        for i, lab in enumerate(table["labels"])
        for j, t in enumerate(table["times"])
    )
    _write_csv(path, ",".join(["time", "phi"] + cols), rows)
