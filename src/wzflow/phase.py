"""Hamiltonian dynamics on flat phase space driven by piecewise-linear
noise (in-cell RK4) or by Brownian increments in the Stratonovich sense
(Heun predictor-corrector), with first-variation Jacobians and
conservation diagnostics.

State arrays have shape (..., d); a leading batch axis integrates many
trajectories at once, each coupled to its own noise component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .noise import BrownianPath, WongZakaiMesh, dyadic_level


# ---------------------------------------------------------------------------
# metrics

class IdentityMetric:
    """g = I: kinetic energy |p|^2 / 2 with no position dependence."""

    def apply_inv(self, x, p):
        return p

    def kinetic(self, x, p):
        return 0.5 * np.sum(p * p, axis=-1)

    def kinetic_grad_x(self, x, p):
        return np.zeros_like(x)


class DiagonalMetric:
    """Diagonal inverse metric a(x) = diag entries of g^{-1}(x).

    ``a`` maps (..., d) -> (..., d); ``da`` maps (..., d) -> (..., d, d)
    with da[..., j, i] = d a_i / d x_j.
    """

    def __init__(self, a: Callable, da: Callable):
        self.a = a
        self.da = da

    def apply_inv(self, x, p):
        return self.a(x) * p

    def kinetic(self, x, p):
        return 0.5 * np.sum(self.a(x) * p * p, axis=-1)

    def kinetic_grad_x(self, x, p):
        return 0.5 * np.einsum("...ji,...i->...j", self.da(x), p * p)


class FullMetric:
    """Full symmetric inverse metric.

    ``ginv`` maps (..., d) -> (..., d, d); ``dginv`` maps (..., d) ->
    (..., d, d, d) with dginv[..., j, i, k] = d (g^{-1})_{ik} / d x_j.
    """

    def __init__(self, ginv: Callable, dginv: Callable):
        self.ginv = ginv
        self.dginv = dginv

    def apply_inv(self, x, p):
        return np.einsum("...ik,...k->...i", self.ginv(x), p)

    def kinetic(self, x, p):
        return 0.5 * np.einsum("...i,...ik,...k->...", p, self.ginv(x), p)

    def kinetic_grad_x(self, x, p):
        return 0.5 * np.einsum("...i,...jik,...k->...j", p, self.dginv(x), p)


def scalar_potential(f, df, d2f=None):
    """Adapt scalar callables (1D problems) to the (..., d) array contract."""
    pot = lambda x: f(x[..., 0])
    grad = lambda x: df(x[..., 0])[..., None]
    hess = None
    if d2f is not None:
        hess = lambda x: d2f(x[..., 0])[..., None, None]
    return pot, grad, hess


ZERO_POTENTIAL = (
    lambda x: np.zeros(x.shape[:-1]),
    lambda x: np.zeros_like(x),
    lambda x: np.zeros(x.shape[:-1] + (x.shape[-1], x.shape[-1])),
)


@dataclass
class HamiltonianSpec:
    """Data defining H0(x, p) = p' g^{-1}(x) p / 2 + f(x) and the noise
    Hamiltonian H1(x, p) = eta * sigma(x), optionally plus an
    eta * p' gtilde^{-1}(x) p / 2 kinetic part.

    Potentials follow the array contract: f(x) -> (...,), df(x) -> (..., d),
    d2f(x) -> (..., d, d). Hessians may be omitted when no variational
    system is requested.
    """

    dim: int
    f: Callable = ZERO_POTENTIAL[0]
    df: Callable = ZERO_POTENTIAL[1]
    sigma: Callable = ZERO_POTENTIAL[0]
    dsigma: Callable = ZERO_POTENTIAL[1]
    eta: float = 0.0
    d2f: Optional[Callable] = None
    d2sigma: Optional[Callable] = None
    metric: object = field(default_factory=IdentityMetric)
    tilde_metric: object = None
    domain: str = "euclidean"  # or "torus"
    period: float = 2 * np.pi

    def wrap(self, x):
        if self.domain == "torus":
            return np.mod(x, self.period)
        return x

    def h0(self, x, p):
        return self.metric.kinetic(x, p) + self.f(x)

    def h1(self, x, p):
        out = self.eta * self.sigma(x)
        if self.tilde_metric is not None:
            out = out + self.eta * self.tilde_metric.kinetic(x, p)
        return out

    def grad_x_h0(self, x, p):
        return self.metric.kinetic_grad_x(x, p) + self.df(x)

    def grad_p_h0(self, x, p):
        return self.metric.apply_inv(x, p)

    def grad_x_h1(self, x, p):
        out = self.eta * self.dsigma(x)
        if self.tilde_metric is not None:
            out = out + self.eta * self.tilde_metric.kinetic_grad_x(x, p)
        return out

    def grad_p_h1(self, x, p):
        if self.tilde_metric is None:
            return np.zeros_like(p)
        return self.eta * self.tilde_metric.apply_inv(x, p)


@dataclass
class PhaseState:
    x: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if self.x.shape != self.p.shape:
            raise ConfigurationError("x and p must have matching shapes")


COMPLETED = "completed"


@dataclass
class FlowResult:
    """Trajectory samples with optional variational Jacobians.

    ``xs``/``ps`` have shape (n_times,) + state shape; ``jacobians`` has
    shape (n_times, ..., 2d, 2d) when present. ``status`` is "completed" or
    "nonfinite(t)"; diffeomorphism loss is diagnosed separately.
    """

    times: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    h0: np.ndarray
    h1: np.ndarray
    dim: int
    status: str = COMPLETED
    jacobians: Optional[np.ndarray] = None
    xi_dot: Optional[np.ndarray] = None  # driver slope on each stored interval

    @property
    def final(self) -> PhaseState:
        return PhaseState(self.xs[-1], self.ps[-1], t=self.times[-1])

    def jac_x_x0(self):
        return self.jacobians[..., : self.dim, : self.dim]


def hamiltonian_eval(spec: HamiltonianSpec, state: PhaseState):
    """(H0, H1, dH0/dx, dH0/dp, dH1/dx, dH1/dp) at a state."""
    x, p = state.x, state.p
    out = (
        spec.h0(x, p),
        spec.h1(x, p),
        spec.grad_x_h0(x, p),
        spec.grad_p_h0(x, p),
        spec.grad_x_h1(x, p),
        spec.grad_p_h1(x, p),
    )
    for name, val in zip(("H0", "H1", "dxH0", "dpH0", "dxH1", "dpH1"), out):
        if not np.all(np.isfinite(val)):
            raise EvaluationError(f"non-finite {name} at x={x}, p={p}")
    return out


def _noise_factors(slopes, shape):
    """Per-step noise slopes, shape (n_steps, d_B), broadcast against a
    (possibly batched) state: floats for one noise component, else rows of
    shape (d_B, 1, ...), one noise component per batched trajectory."""
    if slopes.shape[1] == 1:
        return slopes[:, 0].tolist()
    return slopes.reshape(slopes.shape + (1,) * (len(shape) - 1))


def _rhs(spec, xi, x, p, J=None):
    """Hamiltonian vector field at noise slope xi on [x, p], plus the
    tangent field of the Jacobian J when given."""
    dx = spec.grad_p_h0(x, p) + spec.grad_p_h1(x, p) * xi
    dp = -(spec.grad_x_h0(x, p) + spec.grad_x_h1(x, p) * xi)
    return [dx, dp] if J is None else [dx, dp, _tangent_rhs(spec, x, p, xi, J)]


def _noise_rhs(spec, x, p, J=None):
    """Noise field b of dy = a(y) dt + b(y) o dB on [x, p(, J)]."""
    bx, bp = spec.grad_p_h1(x, p), -spec.grad_x_h1(x, p)
    if J is None:
        return [bx, bp]
    return [bx, bp, _tangent_rhs(spec, x, p, 1.0, J) - _tangent_rhs(spec, x, p, 0.0, J)]


def _rk4(f, y, h):
    """One classical RK4 step of y' = f(y) on a list of arrays."""
    k1 = f(y)
    k2 = f([a + 0.5 * h * k for a, k in zip(y, k1)])
    k3 = f([a + 0.5 * h * k for a, k in zip(y, k2)])
    k4 = f([a + h * k for a, k in zip(y, k3)])
    return [
        a + h / 6.0 * (c1 + 2 * c2 + 2 * c3 + c4)
        for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)
    ]


def _heun(a, b, y, dt, db):
    """One Stratonovich Heun step of dy = a(y) dt + b(y) o dB on a list of
    arrays; db[i] is the Brownian increment shaped for component i."""
    a1, b1 = a(y), b(y)
    y1 = [v + dt * u + w * e for v, u, w, e in zip(y, a1, b1, db)]
    a2, b2 = a(y1), b(y1)
    return [
        v + 0.5 * dt * (u1 + u2) + 0.5 * (w1 + w2) * e
        for v, u1, u2, w1, w2, e in zip(y, a1, a2, b1, b2, db)
    ]


def _march(step, y, drivers, accept):
    """Advance y = accept(j, step(y, v)) once per per-step driver value v,
    j = 1, 2, ...; accept stores state j, may normalize it, and returns None
    to stop the march."""
    for j, v in enumerate(drivers, 1):
        y = accept(j, step(y, v))
        if y is None:
            return


def _integrate(spec, y, step, drivers, times) -> FlowResult:
    """March y = [x, p(, J)] with x wrapped after every step, storing each
    state at ``times``; the flow stops at the first non-finite state."""
    store = [np.empty((len(times),) + a.shape) for a in y]
    for s, a in zip(store, y):
        s[0] = a
    n, status = 1, COMPLETED

    def accept(j, y):
        nonlocal n, status
        y[0] = spec.wrap(y[0])  # y is the new list that step returned
        if not all(np.isfinite(a).all() for a in y):
            status = f"nonfinite({times[j]:.6g})"
            return None
        for s, a in zip(store, y):
            s[j] = a
        n = j + 1
        return y

    _march(step, y, drivers, accept)
    xs, ps, *js = [s[:n] for s in store]
    return FlowResult(
        times=times[:n],
        xs=xs,
        ps=ps,
        h0=spec.h0(xs, ps),
        h1=spec.h1(xs, ps),
        dim=spec.dim,
        status=status,
        jacobians=js[0] if js else None,
    )


def _wz_integrate(spec, y, mesh: WongZakaiMesh, substeps_per_cell: int) -> FlowResult:
    """Classical RK4 inside each noise cell, where the slope is constant."""
    if substeps_per_cell < 1:
        raise ConfigurationError("substeps_per_cell must be >= 1")
    h = mesh.delta / substeps_per_cell
    factors = _noise_factors(mesh.cell_derivative(np.arange(mesh.n_cells)), y[0].shape)
    xis = (xi for xi in factors for _ in range(substeps_per_cell))
    times = np.linspace(0.0, mesh.base.T, mesh.n_cells * substeps_per_cell + 1)
    step = lambda y, xi: _rk4(lambda z: _rhs(spec, xi, *z), y, h)
    return _integrate(spec, y, step, xis, times)


def _strat_integrate(spec, y, path: BrownianPath, dt: float) -> FlowResult:
    """Heun steps with the Brownian increments of the stored dyadic path."""
    level = dyadic_level(path.T, dt)
    if level > path.level:
        raise ConfigurationError("dt must be T*2**-k with k <= path level")
    incs = np.diff(path.at_level(level), axis=0)  # (n_steps, d_B)
    dbs = zip(*(_noise_factors(incs, a.shape) for a in y))
    times = np.linspace(0.0, path.T, incs.shape[0] + 1)
    drift = lambda z: _rhs(spec, 0.0, *z)
    noise = lambda z: _noise_rhs(spec, *z)
    return _integrate(spec, y, lambda y, db: _heun(drift, noise, y, dt, db), dbs, times)


def wz_flow(
    spec: HamiltonianSpec,
    state0: PhaseState,
    mesh: WongZakaiMesh,
    substeps_per_cell: int = 8,
) -> FlowResult:
    """Integrate the piecewise-smooth system with classical RK4 inside each
    noise cell, where the interpolant slope is constant."""
    x = spec.wrap(np.array(state0.x, dtype=float))
    p = np.array(state0.p, dtype=float)
    result = _wz_integrate(spec, [x, p], mesh, substeps_per_cell)
    slopes = mesh.cell_derivative(np.arange(mesh.n_cells))
    result.xi_dot = np.repeat(slopes, substeps_per_cell, axis=0)[: len(result.times) - 1]
    return result


def strat_flow(
    spec: HamiltonianSpec, state0: PhaseState, path: BrownianPath, dt: float
) -> FlowResult:
    """Stratonovich-consistent Heun scheme with Brownian increments read off
    the stored dyadic path."""
    x = spec.wrap(np.array(state0.x, dtype=float))
    p = np.array(state0.p, dtype=float)
    return _strat_integrate(spec, [x, p], path, dt)


# ---------------------------------------------------------------------------
# variational (first-variation) system; identity metric only

def _require_variational(spec: HamiltonianSpec):
    if not isinstance(spec.metric, IdentityMetric):
        raise ConfigurationError("variational system supports the identity metric only")
    if spec.tilde_metric is not None and not isinstance(spec.tilde_metric, IdentityMetric):
        raise ConfigurationError("variational system needs gtilde = I when present")
    if spec.d2f is None or spec.d2sigma is None:
        raise ConfigurationError("variational system needs d2f and d2sigma Hessians")


def _tangent_rhs(spec, x, p, xi, J):
    """Tangent map derivative for g = I: blocks of the linearized field."""
    d = spec.dim
    xi = np.expand_dims(xi, -1) if np.ndim(xi) else xi  # per-path noise: (M, 1, 1)
    hxx = spec.d2f(x) + xi * spec.eta * spec.d2sigma(x)
    kin = 1.0 + (xi * spec.eta if spec.tilde_metric is not None else 0.0)
    Jx, Jp = J[..., :d, :], J[..., d:, :]
    dJx = kin * Jp
    dJp = -np.einsum("...ik,...kj->...ij", hxx, Jx)
    return np.concatenate([dJx, dJp], axis=-2)


def variational_flow(
    spec: HamiltonianSpec,
    state0: PhaseState,
    driver,
    dt: float = None,
    substeps_per_cell: int = 8,
    J0: np.ndarray = None,
) -> FlowResult:
    """Integrate the flow together with its first-variation Jacobian, using
    the same scheme and the same noise as the base flow.

    ``driver`` is a WongZakaiMesh (in-cell RK4) or a BrownianPath with ``dt``
    (Heun). ``J0`` overrides the identity initial Jacobian, e.g. to chain
    segments.
    """
    _require_variational(spec)
    d = spec.dim
    x = spec.wrap(np.array(state0.x, dtype=float))
    p = np.array(state0.p, dtype=float)
    if J0 is None:
        J = np.broadcast_to(np.eye(2 * d), x.shape[:-1] + (2 * d, 2 * d)).copy()
    else:
        J = np.array(J0, dtype=float)
    if isinstance(driver, WongZakaiMesh):
        return _wz_integrate(spec, [x, p, J], driver, substeps_per_cell)
    if isinstance(driver, BrownianPath):
        if dt is None:
            raise ConfigurationError("dt required with a BrownianPath driver")
        return _strat_integrate(spec, [x, p, J], driver, dt)
    raise ConfigurationError(f"unsupported driver type {type(driver)!r}")


def diffeo_loss_time(result: FlowResult, det_threshold: float = 1e-3):
    """First sample time with det(dx_t/dx_0) <= threshold, or None."""
    if result.jacobians is None:
        raise ConfigurationError("FlowResult carries no Jacobians")
    dets = np.linalg.det(result.jac_x_x0())
    hit = np.nonzero(dets <= det_threshold)[0]
    if hit.size == 0:
        return None
    return float(result.times[hit[0]])


def growth_diagnostic(spec: HamiltonianSpec, states, C1: float, c1: float) -> dict:
    """Evaluate the coercivity bound terms against C1 + c1 * H0 on sample
    states. Diagnostic only; never gates integration."""
    x = np.stack([np.atleast_1d(np.asarray(s.x, dtype=float)) for s in states])
    p = np.stack([np.atleast_1d(np.asarray(s.p, dtype=float)) for s in states])
    eta = abs(spec.eta)
    ds = spec.dsigma(x)
    ginv_ds = spec.metric.apply_inv(x, ds)
    ginv_p = spec.metric.apply_inv(x, p)
    force = -spec.metric.kinetic_grad_x(x, p) - spec.df(x)
    t1 = eta ** 2 * np.abs(np.sum(ds * ginv_ds, axis=-1))
    t2 = eta * np.abs(np.sum(p * ginv_ds, axis=-1))
    t3 = eta * np.abs(np.sum(ds * spec.metric.apply_inv(x, force), axis=-1))
    t4 = np.zeros_like(t1)  # grad_px H0 vanishes for x-independent g^{-1} rows
    if not isinstance(spec.metric, IdentityMetric):
        # mixed derivative of g^{-1}(x) p contracted with (grad sigma, g^{-1} p)
        eps = 1e-6
        def gp(xx):
            return spec.metric.apply_inv(xx, p)
        for j in range(spec.dim):
            step = np.zeros_like(x)
            step[..., j] = eps
            dj = (gp(x + step) - gp(x - step)) / (2 * eps)
            t4 += ds[..., j] * np.sum(dj * ginv_p, axis=-1)
        t4 = eta * np.abs(t4)
    if spec.d2sigma is not None:
        hs = spec.d2sigma(x)
        t5 = eta * np.abs(np.einsum("...i,...ik,...k->...", ginv_p, hs, ginv_p))
    else:
        t5 = np.zeros_like(t1)
    left = t1 + t2 + t3 + t4 + t5
    h0 = spec.h0(x, p)
    bound = C1 + c1 * h0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, left / bound, np.inf * np.sign(left))
    ratio = np.where(left == 0, 0.0, ratio)
    k = int(np.argmax(ratio))
    return {
        "max_ratio": float(ratio.flat[k]),
        "argmax_state": PhaseState(x[k], p[k]),
        "left_max": float(left.max()),
    }


def energy_expansion_check(spec: HamiltonianSpec, result: FlowResult, mesh: WongZakaiMesh):
    """Residual of the pathwise energy identity
    H0(t) - H0(0) = -int_0^t eta * (dH0/dp . dsigma/dx) * xi_dot ds
    with composite Simpson quadrature per noise cell on the stored substeps
    (the trapezoid rule for an odd substep count).
    Returns the sup over stored cell-boundary times.

    The sign follows the chain rule applied to dp/dt = -dH0/dx - eta *
    dsigma/dx * xi_dot.
    """
    xs, ps, times = result.xs, result.ps, result.times
    integrand = -spec.eta * np.sum(
        spec.grad_p_h0(xs, ps) * spec.dsigma(xs), axis=-1
    )
    n_int = len(times) - 1
    sub = n_int // mesh.n_cells
    if sub * mesh.n_cells != n_int:
        raise ConfigurationError("stored samples do not tile the noise cells")
    h = times[1] - times[0]
    acc = 0.0
    residual = 0.0
    for k, xi in enumerate(mesh.cell_derivative(np.arange(mesh.n_cells))):
        seg = integrand[k * sub : k * sub + sub + 1]
        w = np.ones(sub + 1)
        if sub % 2 == 0:  # composite Simpson
            w[1:-1:2], w[2:-1:2], c = 4.0, 2.0, h / 3.0
        else:  # trapezoid
            w[0], w[-1], c = 0.5, 0.5, h
        cell_int = c * np.tensordot(w, seg, axes=(0, 0))
        acc = acc + cell_int * xi
        drift = result.h0[(k + 1) * sub] - result.h0[0]
        residual = np.maximum(residual, np.abs(drift - acc))
    return float(np.max(residual))
