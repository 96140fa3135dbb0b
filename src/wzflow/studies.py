"""Convergence-study harness.

Couples every noise-mesh level of a study to one underlying Brownian
path per replication, measures sup-in-time strong errors against a
reference (Stratonovich limit scheme, exact solution, or the finest
level), aggregates RMS errors with bootstrap confidence intervals, and
fits the convergence order on log-log axes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    InsufficientDataError,
)
from .fields import _write_csv
from .noise import WongZakaiMesh, dyadic_level, sample_brownian
from .phase import (
    HamiltonianSpec,
    PhaseState,
    _check_width,
    _field,
    _heun_drivers,
    _heun_step,
    _rk4,
)

SYSTEMS = ("phase_flow", "snls", "wasserstein.generalized")

BOOTSTRAP_SALT = 0xB007  # a study's bootstrap stream is seeded with seed ^ BOOTSTRAP_SALT


# ---------------------------------------------------------------------------
# order fitting and resampling

def fit_order(points: Sequence) -> tuple:
    """Ordinary least squares of log(error) on log(delta).

    Returns (slope, intercept, slope standard error)."""
    pts = [(float(d), float(e)) for d, e in points]
    if len(pts) < 3:
        raise InsufficientDataError("order fit needs at least 3 points")
    if not all(0 < v < np.inf for pt in pts for v in pt):
        raise DomainError("order fit needs positive, finite deltas and errors")
    x = np.log([d for d, _ in pts])
    if np.unique(x).size < 2:
        raise ConfigurationError("order fit needs at least 2 distinct deltas")
    y = np.log([e for _, e in pts])
    n = len(pts)
    xm = x - x.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    s2 = float(np.dot(resid, resid)) / (n - 2)
    stderr = float(np.sqrt(s2 / np.dot(xm, xm)))
    return slope, intercept, stderr


def bootstrap_rms_ci(samples: np.ndarray, n_bootstrap: int, rng) -> tuple:
    """95% percentile interval for sqrt(mean(samples^2)) under resampling."""
    if n_bootstrap < 1:
        raise ConfigurationError(f"n_bootstrap = {n_bootstrap} must be at least 1")
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[0]
    if m == 0:
        raise InsufficientDataError("bootstrap needs at least one sample")
    idx = rng.integers(0, m, size=(n_bootstrap, m))
    stats = np.sqrt(np.mean(samples[idx] ** 2, axis=1))
    return float(np.quantile(stats, 0.025)), float(np.quantile(stats, 0.975))


# ---------------------------------------------------------------------------
# per-path error engines

def _check_deltas(deltas, T):
    out = sorted(float(d) for d in deltas)
    if len(set(out)) != len(out):
        raise ConfigurationError("delta levels must be distinct")
    for d in out:
        dyadic_level(T, d)
    return out[::-1]  # descending


def _grid_indices(times: np.ndarray, sample_times: np.ndarray) -> np.ndarray:
    dt = times[1] - times[0]
    idx = np.rint(sample_times / dt).astype(int)
    if np.max(np.abs(times[idx] - sample_times)) > 1e-9:
        raise EvaluationError("sample times are not on the stored grid")
    return idx


def _heun_reference(spec, x0, p0, path, dt):
    """(states, times): the Stratonovich Heun reference from [x0, p0] as an
    iterator of its wrapped states [x, p] after steps 1, 2, ..., n, and the
    n + 1 step times. The states are not checked here: the march checks them
    with _check_reference."""
    y = [spec.wrap(x0), p0]
    dbs, times = _heun_drivers(path, dt, y)
    step = _heun_step(spec, dt)

    def states(y):
        for db in dbs:
            y = step(y, db)
            y[0] = spec.wrap(y[0])
            yield y

    return states(y), times


def _check_reference(x, p, t):
    """Stop with the status strat_flow would report if the reference state
    [x, p] at time t is non-finite."""
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise EvaluationError(f"reference integration failed: nonfinite({t:.6g})")


def _phase_errors(payload, deltas, M, T, dt, seed, substeps_per_cell):
    spec: HamiltonianSpec = payload["spec"]
    state0: PhaseState = payload["state0"]
    reference = payload.get("reference", "strat")
    _check_width(spec, state0)
    x0 = np.broadcast_to(state0.x, (M,) + state0.x.shape).copy()
    p0 = np.broadcast_to(state0.p, (M,) + state0.p.shape).copy()

    # the sup is taken over each level's own substep times (spacing
    # delta / substeps): a coarser common grid would only hit noise-cell
    # boundaries at fine delta, where the interpolant equals the Brownian
    # path and the error is invisible
    sub_bits = dyadic_level(substeps_per_cell, 1)  # substeps_per_cell = 2**sub_bits
    ell_min = dyadic_level(T, deltas[-1])
    ref_bits = dyadic_level(T, dt) if reference == "strat" else 0
    level = max(ell_min + sub_bits, ref_bits)
    path = sample_brownian(seed=seed, T=T, level=level, d_B=M)

    # refs yields the reference state (x or None, p) after each reference step
    if reference == "strat":
        if ref_bits < ell_min + sub_bits:
            raise ConfigurationError(
                "reference dt must resolve the finest level's substep grid"
            )
        refs, ref_times = _heun_reference(spec, x0, p0, path, dt)
    elif reference == "exact_additive":
        # sigma(x) = x, f = 0: p(t) = p0 - eta B(t) exactly
        nodes = path.at_level(level)  # (n+1, M)
        refs = ((None, p0 - spec.eta * b[:, None]) for b in nodes[1:])
        ref_times = np.linspace(0.0, T, nodes.shape[0])
    else:
        raise ConfigurationError(f"unknown phase-flow reference {reference!r}")

    # one time-ordered march: after reference step j, one RK4 step advances
    # every level whose substep ends at j. The levels are stacked finest
    # first, M rows each; their strides in reference steps are increasing
    # powers of two, so the levels that step at j are a prefix of the rows,
    # and its length depends only on j modulo the coarsest stride
    meshes = [WongZakaiMesh(path, d) for d in deltas[::-1]]
    times = [np.linspace(0.0, T, m.n_cells * substeps_per_cell + 1) for m in meshes]
    strides = [int(_grid_indices(ref_times, t)[1]) for t in times]
    cycle = strides[-1]
    stepping = [sum(j % s == 0 for s in strides) for j in range(cycle)]
    rows = [slice(i * M, (i + 1) * M) for i in range(len(meshes))]
    h = np.repeat([m.delta / substeps_per_cell for m in meshes], M)[:, None]
    xi = np.empty_like(h)  # each row's slope in its level's current noise cell
    start = spec.wrap(np.concatenate([x0] * len(meshes)))
    y = [start.copy(), np.concatenate([p0] * len(meshes))]
    sup, census = np.zeros((len(meshes), M)), {}
    # views of the rows of the first n levels, n = 1, 2, ...: x and p flat
    # and as (n, M, d) blocks, xi, h and the first n rows of sup
    prefix = [None] + [
        (y[0][:n * M], y[1][:n * M], y[0][:n * M].reshape(n, M, -1),
         y[1][:n * M].reshape(n, M, -1), xi[:n * M], h[:n * M], sup[:n])
        for n in range(1, len(meshes) + 1)
    ]
    rhs = _field(spec)
    torus, period, half = spec.domain == "torus", spec.period, spec.period / 2
    for j, (ref_x, ref_p) in enumerate(refs, 1):
        n = stepping[j % cycle]
        if n == 0:
            if ref_x is not None and not math.isfinite(ref_x.sum() + ref_p.sum()):
                _check_reference(ref_x, ref_p, ref_times[j])
            continue
        x_n, p_n, xv, pv, xi_n, h_n, sup_n = prefix[n]
        for i in range(n):
            cell, substep = divmod(j // strides[i] - 1, substeps_per_cell)
            if substep == 0:  # level i enters a new noise cell
                xi[rows[i], 0] = meshes[i].cell_derivative(cell)
        x, p = _rk4(lambda z: rhs(xi_n, *z), [x_n, p_n], h_n)
        x_n[:], p_n[:] = spec.wrap(x), p
        d2 = (pv - ref_p) ** 2
        if ref_x is not None:
            dx = xv - ref_x
            if torus:
                dx = np.mod(dx + half, period) - half
            d2 = dx ** 2 + d2
        dist = np.sqrt(d2.sum(axis=-1))
        # one test per step: a non-finite reference or level state makes its
        # distance non-finite; exact_additive has no x term, so x joins the
        # sum. A finite sum that overflows only costs the exact check below
        total = dist.sum() if ref_x is not None else dist.sum() + x_n.sum()
        if not math.isfinite(total):
            if ref_x is not None:
                _check_reference(ref_x, ref_p, ref_times[j])
            # a level with a non-finite row stops, as its own wz_flow would: its
            # rows rest at the start with h = 0, so no field sees them non-finite
            bad = ~np.isfinite(np.hstack([x_n, p_n])).reshape(n, -1).all(1)
            for i in np.flatnonzero(bad):
                k = j // strides[i]
                census.setdefault(meshes[i].delta, f"all paths: nonfinite({times[i][k]:.6g})")
                y[0][rows[i]], y[1][rows[i]], h[rows[i]] = start[rows[i]], p0, 0.0
        np.maximum(sup_n, dist, out=sup_n)  # a stopped level's sup is dropped below

    census = {d: census[d] for d in deltas if d in census}  # in level order
    errors = sup[::-1].T.copy()
    errors[:, [d in census for d in deltas]] = np.nan
    return np.array(deltas), errors, census


def _snls_errors(payload, deltas, M, T, dt, seed):
    from .snls import wz_convergence_study

    out = wz_convergence_study(
        payload["lam"],
        payload["f"],
        payload["F"],
        payload["modes"],
        payload["u0"],
        T,
        list(deltas) ,
        dt,
        M,
        seed,
    )
    return out["deltas"], out["per_path_errors"], {}


def _whf_errors(payload, deltas, M, T, dt, seed, substeps_per_cell):
    from .density import whf_evolve
    from .errors import StabilityError

    rho0, phi0, wspec = payload["rho0"], payload["phi0"], payload["wspec"]
    grid = rho0.grid
    ell_min = dyadic_level(T, deltas[-1])
    n_coarse = int(round(T / deltas[0])) * substeps_per_cell
    sample_times = np.linspace(0.0, T, n_coarse + 1)
    errors = np.full((M, len(deltas) - 1), np.nan)
    failures = {d: 0 for d in deltas}
    for m in range(M):
        path = sample_brownian(seed=seed + m, T=T, level=ell_min, d_B=1)

        def run(delta):
            mesh = WongZakaiMesh(path, delta)
            return whf_evolve(rho0, phi0, mesh, wspec, substeps_per_cell, T)

        try:
            ref = run(deltas[-1])
        except StabilityError:
            for d in deltas:
                failures[d] += 1
            continue
        ii_ref = _grid_indices(ref.times, sample_times)
        for j, d in enumerate(deltas[:-1]):
            try:
                traj = run(d)
            except StabilityError:
                failures[d] += 1
                continue
            ii = _grid_indices(traj.times, sample_times)
            gap = np.array([traj.rhos[a].values - ref.rhos[b].values for a, b in zip(ii, ii_ref)])
            errors[m, j] = np.max(np.sqrt(np.sum(gap ** 2, axis=1) * grid.h))
    census = {d: n for d, n in failures.items() if n}
    return np.array(deltas[:-1]), errors, census


def _per_path_errors(system, payload, deltas, M, T, dt, seed, substeps_per_cell):
    deltas = _check_deltas(deltas, T)
    if system == "phase_flow":
        return _phase_errors(payload, deltas, M, T, dt, seed, substeps_per_cell)
    if system == "snls":
        return _snls_errors(payload, deltas, M, T, dt, seed)
    if system == "wasserstein.generalized":
        return _whf_errors(payload, deltas, M, T, dt, seed, substeps_per_cell)
    raise ConfigurationError(f"unknown system {system!r}; expected one of {SYSTEMS}")


def _failure_check(errors: np.ndarray, census: dict, deltas):
    bad = ~np.isfinite(errors)
    frac = bad.mean(axis=0)
    worst = float(np.max(frac)) if frac.size else 0.0
    if worst > 0.2:
        table = {float(d): float(f) for d, f in zip(deltas, frac)}
        raise EvaluationError(
            f"integration failed on more than 20% of paths: {table}; census {census}"
        )


# ---------------------------------------------------------------------------
# public studies

@dataclass
class ConvergenceReport:
    deltas: np.ndarray          # strictly decreasing
    errors: np.ndarray          # RMS over paths, per level
    ci_low: np.ndarray
    ci_high: np.ndarray
    order: Optional[float]
    order_stderr: Optional[float]
    intercept: Optional[float]
    degenerate: bool
    norm: str
    metadata: dict = field(default_factory=dict)


def strong_convergence_study(
    system: str,
    payload: dict,
    deltas: Sequence[float],
    M: int,
    T: float,
    dt: float,
    seed: int = 0,
    substeps_per_cell: int = 8,
    n_bootstrap: int = 1000,
    noise_floor: float = 1e-10,
) -> ConvergenceReport:
    """RMS of per-path sup-in-time errors per delta level, with bootstrap
    CIs and a log-log least-squares order fit (flagged degenerate when all
    errors sit at the integrator floor)."""
    if n_bootstrap < 1:
        raise ConfigurationError(f"n_bootstrap = {n_bootstrap} must be at least 1")
    used, errors, census = _per_path_errors(
        system, payload, deltas, M, T, dt, seed, substeps_per_cell
    )
    _failure_check(errors, census, used)
    rng = np.random.default_rng(seed ^ BOOTSTRAP_SALT)
    rms = np.empty(len(used))
    lo = np.empty_like(rms)
    hi = np.empty_like(rms)
    for j in range(len(used)):
        col = errors[:, j]
        col = col[np.isfinite(col)]
        rms[j] = float(np.sqrt(np.mean(col ** 2)))
        lo[j], hi[j] = bootstrap_rms_ci(col, n_bootstrap, rng)
    degenerate = bool(np.max(rms) < noise_floor)
    order = order_stderr = intercept = None
    if not degenerate and len(used) >= 3:
        order, intercept, order_stderr = fit_order(list(zip(used, rms)))
    norm = {
        "phase_flow": "sup-in-time phase-space distance",
        "snls": "sup-in-time L2 wave distance",
        "wasserstein.generalized": "sup-in-time L2 density distance",
    }[system]
    return ConvergenceReport(
        deltas=np.asarray(used),
        errors=rms,
        ci_low=lo,
        ci_high=hi,
        order=order,
        order_stderr=order_stderr,
        intercept=intercept,
        degenerate=degenerate,
        norm=norm,
        metadata={
            "system": system,
            "seed": seed,
            "M": M,
            "T": T,
            "dt": dt,
            "failures": {float(k): v for k, v in census.items()},
        },
    )


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if not n > 0:
        raise ConfigurationError("need at least one trial")
    if not 0 <= successes <= n:
        raise ConfigurationError(f"successes = {successes} must lie in [0, n = {n}]")
    p = successes / n
    denom = 1.0 + z ** 2 / n
    center = (p + z ** 2 / (2 * n)) / denom
    half = z / denom * np.sqrt(p * (1 - p) / n + z ** 2 / (4 * n ** 2))
    return max(center - half, 0.0), min(center + half, 1.0)


def probability_convergence_study(
    system: str,
    payload: dict,
    deltas: Sequence[float],
    eps_list: Sequence[float],
    M: int,
    T: float,
    dt: float,
    seed: int = 0,
    substeps_per_cell: int = 8,
) -> dict:
    """Empirical P(sup error > eps) per (delta, eps) with Wilson 95% CIs."""
    if M < 100:
        raise ConfigurationError("probability study needs M >= 100")
    used, errors, census = _per_path_errors(
        system, payload, deltas, M, T, dt, seed, substeps_per_cell
    )
    _failure_check(errors, census, used)
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    freq = np.empty((len(used), eps.size))
    lo = np.empty_like(freq)
    hi = np.empty_like(freq)
    for j in range(len(used)):
        col = errors[:, j]
        col = col[np.isfinite(col)]
        for i, e in enumerate(eps):
            k = int(np.sum(col > e))
            freq[j, i] = k / col.size
            lo[j, i], hi[j, i] = wilson_interval(k, col.size)
    return {
        "deltas": np.asarray(used),
        "eps": eps,
        "freq": freq,
        "ci_low": lo,
        "ci_high": hi,
        "M": M,
        "failures": census,
    }


# ---------------------------------------------------------------------------
# persistence

def report_to_csv(report: ConvergenceReport, path) -> None:
    rows = zip(report.deltas, report.errors, report.ci_low, report.ci_high)
    _write_csv(path, "delta,rms_error,ci_low,ci_high", rows)


def report_to_json(report: ConvergenceReport, path) -> None:
    body = {
        "deltas": list(map(float, report.deltas)),
        "errors": list(map(float, report.errors)),
        "ci_low": list(map(float, report.ci_low)),
        "ci_high": list(map(float, report.ci_high)),
        "order": report.order,
        "order_stderr": report.order_stderr,
        "intercept": report.intercept,
        "degenerate": report.degenerate,
        "norm": report.norm,
        "metadata": report.metadata,
    }
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)


def probability_table_to_csv(table: dict, path) -> None:
    rows = (
        (d, e, table["freq"][j, i], table["ci_low"][j, i], table["ci_high"][j, i])
        for j, d in enumerate(table["deltas"])
        for i, e in enumerate(table["eps"])
    )
    _write_csv(path, "delta,eps,freq,ci_low,ci_high", rows)
