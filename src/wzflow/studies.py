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
from .fields import _check_count, _write_csv
from .noise import ERROR_FLOOR, WongZakaiMesh, dyadic_level, fit_order, sample_brownian
from .phase import HamiltonianSpec, PhaseState, _check_width, _heun_drivers, _heun_step, _rk4_step

SYSTEMS = ("phase_flow", "snls", "wasserstein.generalized")

BOOTSTRAP_SALT = 0xB007  # a study's bootstrap stream is seeded with seed ^ BOOTSTRAP_SALT
WILSON_Z = 1.959963984540054  # the standard normal's 97.5% quantile: 95% Wilson intervals


# ---------------------------------------------------------------------------
# resampling; fit_order comes from noise, so snls shares it without importing studies

def bootstrap_rms_ci(samples: np.ndarray, n_bootstrap: int, rng) -> tuple:
    """95% percentile interval for sqrt(mean(samples^2)) under resampling."""
    _check_count("n_bootstrap", n_bootstrap)
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[0]
    if m == 0:
        raise InsufficientDataError("bootstrap needs at least one sample")
    if not np.isfinite(samples).all():
        raise DomainError("bootstrap samples must be finite")
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

    if substeps_per_cell & (substeps_per_cell - 1):
        raise ConfigurationError(f"substeps_per_cell = {substeps_per_cell} must be a power of two")

    # the sup is taken over each level's own substep times (spacing
    # delta / substeps): a coarser common grid would only hit noise-cell
    # boundaries at fine delta, where the interpolant equals the Brownian
    # path and the error is invisible
    sub_bits = dyadic_level(substeps_per_cell, 1)  # substeps_per_cell = 2**sub_bits
    ell_min = dyadic_level(T, deltas[-1])
    ref_bits = dyadic_level(T, dt) if reference == "strat" else 0
    level = max(ell_min + sub_bits, ref_bits)
    path = sample_brownian(seed=seed, T=T, level=level, d_B=M)

    if reference == "strat":
        if ref_bits < ell_min + sub_bits:
            raise ConfigurationError(
                "reference dt must resolve the finest level's substep grid"
            )
        drivers, ref_times = _heun_drivers(path, dt, x0.shape)
        heun, ref_x, ref_p = _heun_step(spec, dt), spec.wrap(x0), p0
    elif reference == "exact_additive":
        # sigma(x) = x, f = 0: p(t) = p0 - eta B(t) exactly
        drivers = path.at_level(level)[1:, :, None]  # B(t) after each step, (n, M, 1)
        ref_times = np.linspace(0.0, T, drivers.shape[0] + 1)
        ref_x = None
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
    half, sixth = 0.5 * h, h / 6.0
    xi = np.empty_like(h)  # each row's slope in its level's current noise cell
    start = spec.wrap(np.concatenate([x0] * len(meshes)))
    y = [start.copy(), np.concatenate([p0] * len(meshes))]
    # the running sup of each row's squared distance: sqrt is monotone and
    # correctly rounded, so one sqrt at the end gives the sup of the distances
    sup, census = np.zeros((len(meshes), M)), {}
    # views of the rows of the first n levels, n = 1, 2, ...: x and p flat
    # and as (n, M, d) blocks, xi, h, half, sixth and the first n rows of sup
    prefix = [None] + [
        (y[0][:n * M], y[1][:n * M], y[0][:n * M].reshape(n, M, -1),
         y[1][:n * M].reshape(n, M, -1), xi[:n * M], h[:n * M], half[:n * M],
         sixth[:n * M], sup[:n])
        for n in range(1, len(meshes) + 1)
    ]
    rk4 = _rk4_step(spec)
    torus, period, half_period = spec.domain == "torus", spec.period, spec.period / 2
    for j, v in enumerate(drivers, 1):
        if ref_x is None:
            ref_p = p0 - spec.eta * v
        else:
            ref_x, ref_p = heun(v, ref_x, ref_p)
            ref_x = spec.wrap(ref_x)
        n = stepping[j % cycle]
        if n == 0:
            if ref_x is not None and not math.isfinite(ref_x.sum() + ref_p.sum()):
                _check_reference(ref_x, ref_p, ref_times[j])
            continue
        x_n, p_n, xv, pv, xi_n, h_n, half_n, sixth_n, sup_n = prefix[n]
        for i in range(n):
            cell, substep = divmod(j // strides[i] - 1, substeps_per_cell)
            if substep == 0:  # level i enters a new noise cell
                xi[rows[i], 0] = meshes[i].cell_derivative(cell)
        x, p = rk4(xi_n, h_n, half_n, sixth_n, x_n, p_n)
        x_n[:], p_n[:] = spec.wrap(x), p
        d2 = (pv - ref_p) ** 2
        if ref_x is not None:
            dx = xv - ref_x
            if torus:
                dx = np.mod(dx + half_period, period) - half_period
            d2 = dx ** 2 + d2
        d2 = np.add.reduce(d2, axis=-1)
        # one test per step: a non-finite reference or level state makes its
        # squared distance non-finite; exact_additive has no x term, so x joins
        # the sum. A finite sum that overflows only costs the exact check below
        total = d2.sum() if ref_x is not None else d2.sum() + x_n.sum()
        if not math.isfinite(total):
            if ref_x is not None:
                _check_reference(ref_x, ref_p, ref_times[j])
            # a level with a non-finite row stops, as its own wz_flow would: its
            # rows rest at the start with h = 0, so no field sees them non-finite
            bad = ~np.isfinite(np.hstack([x_n, p_n])).reshape(n, -1).all(1)
            for i in np.flatnonzero(bad):
                k = j // strides[i]
                census.setdefault(meshes[i].delta, f"all paths: nonfinite({times[i][k]:.6g})")
                y[0][rows[i]], y[1][rows[i]] = start[rows[i]], p0
                h[rows[i]] = half[rows[i]] = sixth[rows[i]] = 0.0
        np.maximum(sup_n, d2, out=sup_n)  # a stopped level's sup is dropped below

    census = {d: census[d] for d in deltas if d in census}  # in level order
    errors = np.sqrt(sup[::-1].T)
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
    from .density import _whf_rows

    rho0, phi0, wspec = payload["rho0"], payload["phi0"], payload["wspec"]
    ell_min = dyadic_level(T, deltas[-1])
    paths = [sample_brownian(seed=seed + m, T=T, level=ell_min, d_B=1) for m in range(M)]
    n_coarse = int(round(T / deltas[0])) * substeps_per_cell

    def march(delta):
        """One level's (M, n) densities at the coarsest level's substep times."""
        meshes = [WongZakaiMesh(path, delta) for path in paths]
        xis = np.hstack([mesh.cell_derivative(np.arange(mesh.n_cells)) for mesh in meshes])
        xis = np.repeat(xis, substeps_per_cell, axis=0)[:, :, None]  # (steps, M, 1)
        stride, h = len(xis) // n_coarse, delta / substeps_per_cell
        rho, phi = (np.tile(f.values, (M, 1)) for f in (rho0, phi0))
        out = [rho]
        for k, xi in enumerate(xis, 1):
            rho, phi = _whf_rows(rho0.grid, wspec, xi, rho, phi, h)[:2]
            if k % stride == 0:
                out.append(rho)
        return np.array(out)

    # the finest level is the reference. A failed row stays NaN, so a path
    # whose level or reference failed has a NaN error at that level
    ref = march(deltas[-1])
    errors = np.empty((M, len(deltas) - 1))
    for j, d in enumerate(deltas[:-1]):
        gaps = np.sqrt(np.sum((march(d) - ref) ** 2, axis=-1) * rho0.grid.h)
        errors[:, j] = np.max(gaps, axis=0)
    failures = [*np.isnan(errors).sum(axis=0), np.isnan(ref[-1, :, 0]).sum()]
    census = {d: int(n) for d, n in zip(deltas, failures) if n}
    return np.array(deltas[:-1]), errors, census


def _per_path_errors(system, payload, deltas, M, T, dt, seed, substeps_per_cell):
    _check_count("M", M)
    _check_count("substeps_per_cell", substeps_per_cell)
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
) -> ConvergenceReport:
    """RMS of per-path sup-in-time errors per delta level, with bootstrap
    CIs and a log-log least-squares order fit (flagged degenerate when all
    errors sit at the integrator floor)."""
    _check_count("n_bootstrap", n_bootstrap)
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
    degenerate = bool(np.max(rms) < ERROR_FLOOR)
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


def wilson_interval(successes: int, n: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if not n > 0:
        raise ConfigurationError("need at least one trial")
    if not 0 <= successes <= n:
        raise ConfigurationError(f"successes = {successes} must lie in [0, n = {n}]")
    p = successes / n
    denom = 1.0 + WILSON_Z ** 2 / n
    center = (p + WILSON_Z ** 2 / (2 * n)) / denom
    half = WILSON_Z / denom * np.sqrt(p * (1 - p) / n + WILSON_Z ** 2 / (4 * n ** 2))
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
    _check_count("M", M, 100)  # a probability study needs M >= 100
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if eps.size == 0 or not np.isfinite(eps).all():
        raise ConfigurationError(f"eps_list = {list(eps_list)!r} must hold finite levels, "
                                 "at least one")
    used, errors, census = _per_path_errors(
        system, payload, deltas, M, T, dt, seed, substeps_per_cell
    )
    _failure_check(errors, census, used)
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
