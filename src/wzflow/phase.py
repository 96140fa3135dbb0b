"""Hamiltonian dynamics on flat phase space driven by piecewise-linear
noise (in-cell RK4) or by Brownian increments in the Stratonovich sense
(Heun predictor-corrector), with first-variation Jacobians and
conservation diagnostics.

State arrays have shape (..., d); a leading batch axis integrates many
trajectories at once, each coupled to its own noise component.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError, InsufficientDataError
from .fields import _check_count, _contract
from .noise import BrownianPath, WongZakaiMesh, dyadic_level, grid_index


# ---------------------------------------------------------------------------
# the Hamiltonians

class IdentityMetric:
    """Marker for gtilde = I: the noise Hamiltonian H1 gains the kinetic
    part eta * |p|^2 / 2."""


def scalar_potential(f: Callable, df: Callable, d2f: Optional[Callable] = None):
    """Adapt scalar callables (1D problems) to the (..., d) array contract.

    Scalar callables act elementwise, so ``df`` already maps (..., 1) to
    (..., 1) and is passed through; ``f`` and ``d2f`` are adapted to
    (...,) and (..., 1, 1)."""
    pot = lambda x: f(x[..., 0])
    hess = None
    if d2f is not None:
        hess = lambda x: d2f(x[..., 0])[..., None, None]
    return pot, df, hess


ZERO_POTENTIAL = (
    lambda x: np.zeros(x.shape[:-1]),
    lambda x: np.zeros_like(x),
    lambda x: np.zeros(x.shape[:-1] + (x.shape[-1], x.shape[-1])),
)


def _kinetic(p):
    """|p|^2 / 2 over the last axis."""
    return 0.5 * np.sum(p * p, axis=-1)


@dataclass
class HamiltonianSpec:
    """H0(x, p) = |p|^2 / 2 + f(x) and the noise Hamiltonian
    H1(x, p) = eta * (sigma(x) + kappa * |p|^2 / 2) on flat phase space,
    with kappa = 1 when ``tilde_metric`` is ``IdentityMetric()`` and
    kappa = 0 when it is None.

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
    tilde_metric: Optional[IdentityMetric] = None
    domain: str = "euclidean"  # or "torus"
    period: float = 2 * np.pi

    def __post_init__(self):
        _check_count("dim", self.dim)
        self._check_geometry()
        self.kappa  # raises for a tilde_metric other than None or IdentityMetric()

    def _check_geometry(self):
        """Fields may be reassigned after construction, so every march
        checks domain, period and eta again (_rates and _start)."""
        if self.domain not in ("euclidean", "torus"):
            raise ConfigurationError(f"domain = {self.domain!r} must be 'euclidean' or 'torus'")
        if not 0 < self.period < np.inf:  # NaN fails too
            raise ConfigurationError(f"period = {self.period!r} must be positive and finite")
        if not -np.inf < self.eta < np.inf:  # NaN fails too
            raise ConfigurationError(f"eta = {self.eta!r} must be finite")

    @property
    def kappa(self) -> int:
        """1 for ``tilde_metric=IdentityMetric()``, 0 for None. Fields may be
        reassigned after construction, so every reader checks it here."""
        if self.tilde_metric is None:
            return 0
        if isinstance(self.tilde_metric, IdentityMetric):
            return 1
        raise ConfigurationError(
            f"tilde_metric must be None or IdentityMetric(), got {self.tilde_metric!r}"
        )

    def wrap(self, x):
        if self.domain == "torus":
            return np.mod(x, self.period)
        return x

    def h0(self, x, p):
        return _kinetic(p) + self.f(x)

    def h1(self, x, p):
        out = self.eta * self.sigma(x)
        if self.kappa:
            out = out + self.eta * _kinetic(p)
        return out

    def grad_x_h0(self, x, p):
        return self.df(x)

    def grad_p_h0(self, x, p):
        return p

    def grad_x_h1(self, x, p):
        return self.eta * self.dsigma(x)

    def grad_p_h1(self, x, p):
        if not self.kappa:
            return np.zeros_like(p)
        return self.eta * p


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

    @property
    def final(self) -> PhaseState:
        return PhaseState(self.xs[-1], self.ps[-1], t=self.times[-1])

    def jac_x_x0(self):
        return self.jacobians[..., : self.dim, : self.dim]


def _noise_factors(slopes, shape):
    """Per-step noise values (slopes or path nodes), shape (n, d_B),
    broadcast against a (possibly batched) state: floats for one noise
    component, else rows of shape (d_B, 1, ...), one noise component per
    batched trajectory."""
    d_B = slopes.shape[1]
    if d_B == 1:
        return slopes[:, 0].tolist()
    batch = shape[0] if len(shape) > 1 else 1
    if d_B != batch:
        raise ConfigurationError(
            f"the noise path has d_B = {d_B} components but the state's batch size "
            f"is {batch}; d_B must be 1 or {batch}"
        )
    return slopes.reshape(slopes.shape + (1,) * (len(shape) - 1))


def _rates(spec):
    """(vx, q, noise) of the phase flow, resolved once per march: the x-rate
    vx(xi, p) at slope xi, the negated p-rate q(xi, x) = df + eta dsigma xi,
    and noise(x, p) = (x-rate or None, negated p-rate). For kappa = 0 a float
    xi of 0.0 gives q = df(x), keeping a -0.0 or an infinite force; a default
    zero gradient is the scalar 0.0, with the IEEE operations of its zeros.
    Checks spec's domain and period, which may have been reassigned."""
    spec._check_geometry()
    df, dsigma = ((lambda x: 0.0) if g is ZERO_POTENTIAL[1] else g for g in (spec.df, spec.dsigma))
    eta = spec.eta
    if not spec.kappa:
        q = lambda xi, x: (df(x) if isinstance(xi, float) and xi == 0.0
                           else df(x) + eta * dsigma(x) * xi)
        return (lambda xi, p: p), q, (lambda x, p: (None, eta * dsigma(x)))
    return (
        lambda xi, p: p + (eta * p) * xi,
        lambda xi, x: df(x) + eta * dsigma(x) * xi,
        lambda x, p: (eta * p, eta * dsigma(x)),
    )


# The steppers subtract the negated p-rate q where the rate -q is added:
# a + (-b) == a - b and (-a) * b == -(a * b) are exact in IEEE arithmetic,
# but (-a) + (-b) == -(a + b) fails at an exact zero sum (+0.0 either way),
# so a sum of p-rates starts from one negated rate, k1 - (q2 + q2) - ...

def _rk4_step(spec):
    """rk4(xi, h, half, sixth, x, p(, J)) -> [x, p(, J)]: one classical RK4
    step of size h at noise slope xi (half = 0.5 * h and sixth = h / 6.0
    from the caller), of J through the tangent field when J is given."""
    vx, q, _ = _rates(spec)

    def rk4(xi, h, half, sixth, x, p, J=None):
        v1, k1 = vx(xi, p), -q(xi, x)
        x2, p2 = x + half * v1, p + half * k1
        v2, q2 = vx(xi, p2), q(xi, x2)
        x3, p3 = x + half * v2, p - half * q2
        v3, q3 = vx(xi, p3), q(xi, x3)
        x4, p4 = x + h * v3, p - h * q3
        v4, q4 = vx(xi, p4), q(xi, x4)
        out = [x + sixth * (v1 + (v2 + v2) + (v3 + v3) + v4),
               p + sixth * (k1 - (q2 + q2) - (q3 + q3) - q4)]
        if J is not None:
            k1 = _tangent_rhs(spec, x, p, xi, J)
            k2 = _tangent_rhs(spec, x2, p2, xi, J + half * k1)
            k3 = _tangent_rhs(spec, x3, p3, xi, J + half * k2)
            k4 = _tangent_rhs(spec, x4, p4, xi, J + h * k3)
            out.append(J + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4))
        return out

    return rk4


def _heun_step(spec, dt):
    """heun(e, x, p(, J)) -> [x, p(, J)]: one Stratonovich Heun step of size
    dt, drift the flow at slope 0.0 and noise its slope-1 part, for the
    Brownian increment e shaped for x; J advances as in _rk4_step."""
    vx, q, noise = _rates(spec)
    half = 0.5 * dt

    def heun(e, x, p, J=None):
        b1, w1 = noise(x, p)
        a1, u1, w1 = vx(0.0, p), -q(0.0, x), -w1  # u1, w1: the p-rates of drift and noise
        x1 = x + dt * a1 if b1 is None else x + dt * a1 + b1 * e
        p1 = p + dt * u1 + w1 * e
        a2, (b2, E2) = vx(0.0, p1), noise(x1, p1)
        x_new = x + half * (a1 + a2)
        out = [x_new if b1 is None else x_new + 0.5 * (b1 + b2) * e,
               p + half * (u1 - q(0.0, x1)) + 0.5 * (w1 - E2) * e]
        if J is not None:
            eJ = e[..., None] if np.ndim(e) else e  # per-path noise: (M, 1, 1)
            c1 = _tangent_rhs(spec, x, p, 0.0, J)  # the drift and noise of J
            n1 = _tangent_rhs(spec, x, p, 1.0, J) - c1
            J1 = J + dt * c1 + n1 * eJ
            c2 = _tangent_rhs(spec, x1, p1, 0.0, J1)
            n2 = _tangent_rhs(spec, x1, p1, 1.0, J1) - c2
            out.append(J + half * (c1 + c2) + 0.5 * (n1 + n2) * eJ)
        return out

    return heun


def _integrate(spec, y, step, drivers, times, at=None, watch=None) -> FlowResult:
    """March y = step(y, v) = [x, p(, J)] once per per-step driver value v,
    with x wrapped after every step; the flow stops at the first non-finite
    state. Every state is stored, or with ``at`` only the states at those
    sample times (a scalar is one), in their order: they are resolved on the
    step grid of ``times`` by ``grid_index`` before the march, which stops at
    the last of them, and a march that stops before it raises
    EvaluationError. watch(t, y), when given, sees every state the march
    reaches."""
    rows = (range(len(times)) if at is None
            else np.ravel(grid_index(at, times[1], len(times) - 1)).tolist())
    slots = sorted(range(len(rows)), key=rows.__getitem__)  # store slots in step order
    last = max(rows, default=0)
    store = [np.empty((len(rows),) + a.shape) for a in y]
    n, status = 0, COMPLETED  # n: rows stored so far

    def keep(j, y):
        nonlocal n
        if watch is not None:
            watch(times[j], y)
        while n < len(rows) and rows[slots[n]] == j:
            for s, a in zip(store, y):
                s[slots[n]] = a
            n += 1

    keep(0, y)
    for j, v in enumerate(itertools.islice(drivers, last), 1):
        y = step(y, v)
        y[0] = spec.wrap(y[0])  # y is the new list that step returned
        if not all(np.isfinite(a).all() for a in y):
            status = f"nonfinite({times[j]:.6g})"
            if at is not None:
                raise EvaluationError(f"the flow became non-finite at t={times[j]:.6g}, "
                                      f"before its sample time t={times[last]:.6g}")
            break
        keep(j, y)
    xs, ps, *js = [s[:n] for s in store]
    return FlowResult(
        times=times[rows[:n]],
        xs=xs,
        ps=ps,
        h0=spec.h0(xs, ps),
        h1=spec.h1(xs, ps),
        dim=spec.dim,
        status=status,
        jacobians=js[0] if js else None,
    )


def _wz_times(mesh: WongZakaiMesh, substeps_per_cell: int) -> np.ndarray:
    """The step times of the in-cell RK4 march on ``mesh``."""
    _check_count("substeps_per_cell", substeps_per_cell)
    return np.linspace(0.0, mesh.base.T, mesh.n_cells * substeps_per_cell + 1)


def _wz_integrate(spec, y, mesh: WongZakaiMesh, substeps_per_cell: int, at=None,
                  watch=None) -> FlowResult:
    """Classical RK4 inside each noise cell, where the slope is constant;
    ``at`` and ``watch`` as in _integrate."""
    times = _wz_times(mesh, substeps_per_cell)
    h = mesh.delta / substeps_per_cell
    factors = _noise_factors(mesh.cell_derivative(np.arange(mesh.n_cells)), y[0].shape)
    xis = (xi for xi in factors for _ in range(substeps_per_cell))
    rk4, half, sixth = _rk4_step(spec), 0.5 * h, h / 6.0
    return _integrate(spec, y, lambda y, xi: rk4(xi, h, half, sixth, *y), xis, times, at, watch)


def _heun_drivers(blocks, shape):
    """The per-step Brownian increments of blocks of dyadic path nodes,
    consecutive blocks sharing their end node, shaped for a state of
    ``shape``; each is taken from its block when its step comes."""
    for nodes in blocks:
        b = _noise_factors(nodes, shape)
        yield from map(operator.sub, b[1:], b)


def _strat_integrate(spec, y, path: BrownianPath, dt: float) -> FlowResult:
    """Heun steps with the Brownian increments of the stored dyadic path."""
    level = dyadic_level(path.T, dt)
    if level > path.level:
        raise ConfigurationError("dt must be T*2**-k with k <= path level")
    nodes = path.at_level(level)  # (n_steps + 1, d_B), a view of the path
    heun = _heun_step(spec, dt)
    return _integrate(spec, y, lambda y, e: heun(e, *y), _heun_drivers([nodes], y[0].shape),
                      np.linspace(0.0, path.T, nodes.shape[0]))


def _check_width(spec, state: PhaseState):
    """The state carries spec.dim coordinates on its last axis."""
    if state.x.shape[-1] != spec.dim:
        raise ConfigurationError(f"the state has width {state.x.shape[-1]} but "
                                 f"spec.dim = {spec.dim}")


def _start(spec, state0: PhaseState) -> list:
    """[x, p] of the initial state as fresh float arrays, x wrapped."""
    _check_width(spec, state0)
    spec._check_geometry()  # before wrap, which divides by the period
    return [spec.wrap(np.array(state0.x, dtype=float)), np.array(state0.p, dtype=float)]


def wz_flow(
    spec: HamiltonianSpec,
    state0: PhaseState,
    mesh: WongZakaiMesh,
    substeps_per_cell: int = 8,
) -> FlowResult:
    """Integrate the piecewise-smooth system with classical RK4 inside each
    noise cell, where the interpolant slope is constant."""
    return _wz_integrate(spec, _start(spec, state0), mesh, substeps_per_cell)


def strat_flow(
    spec: HamiltonianSpec, state0: PhaseState, path: BrownianPath, dt: float
) -> FlowResult:
    """Stratonovich-consistent Heun scheme with Brownian increments read off
    the stored dyadic path."""
    return _strat_integrate(spec, _start(spec, state0), path, dt)


# ---------------------------------------------------------------------------
# variational (first-variation) system

def _tangent_rhs(spec, x, p, xi, J):
    """Tangent map derivative: blocks of the linearized field."""
    d = spec.dim
    xi = np.expand_dims(xi, -1) if np.ndim(xi) else xi  # per-path noise: (M, 1, 1)
    hxx = spec.d2f(x) + xi * spec.eta * spec.d2sigma(x)
    kin = 1.0 + (xi * spec.eta if spec.kappa else 0.0)
    Jx, Jp = J[..., :d, :], J[..., d:, :]
    dJx = kin * Jp
    dJp = -np.einsum("...ik,...kj->...ij", hxx, Jx)
    return np.concatenate([dJx, dJp], axis=-2)


def _start_variational(spec, state0: PhaseState, J0=None) -> list:
    """[x, p, J] of the initial state, J the identity unless J0 is given."""
    if spec.d2f is None or spec.d2sigma is None:
        raise ConfigurationError("variational system needs d2f and d2sigma Hessians")
    d = spec.dim
    x, p = _start(spec, state0)
    if J0 is None:
        J = np.broadcast_to(np.eye(2 * d), x.shape[:-1] + (2 * d, 2 * d)).copy()
    else:
        J = np.array(J0, dtype=float)
    return [x, p, J]


def variational_flow(
    spec: HamiltonianSpec,
    state0: PhaseState,
    driver: Union[WongZakaiMesh, BrownianPath],
    dt: Optional[float] = None,
    substeps_per_cell: int = 8,
    J0: Optional[np.ndarray] = None,
) -> FlowResult:
    """Integrate the flow together with its first-variation Jacobian, using
    the same scheme and the same noise as the base flow.

    ``driver`` is a WongZakaiMesh (in-cell RK4) or a BrownianPath with ``dt``
    (Heun). ``J0`` overrides the identity initial Jacobian, e.g. to chain
    segments.
    """
    y = _start_variational(spec, state0, J0)
    if isinstance(driver, WongZakaiMesh):
        return _wz_integrate(spec, y, driver, substeps_per_cell)
    if dt is None:
        raise ConfigurationError("dt required with a BrownianPath driver")
    return _strat_integrate(spec, y, driver, dt)


def diffeo_loss_time(result: FlowResult, det_threshold: float = 1e-3):
    """First sample time with det(dx_t/dx_0) <= threshold, or None."""
    if result.jacobians is None:
        raise ConfigurationError("FlowResult carries no Jacobians")
    if not np.isfinite(det_threshold):
        raise ConfigurationError(f"det_threshold = {det_threshold!r} must be finite")
    dets = np.linalg.det(result.jac_x_x0())
    hit = np.nonzero(dets <= det_threshold)[0]
    if hit.size == 0:
        return None
    return float(result.times[hit[0]])


def growth_diagnostic(spec: HamiltonianSpec, states: Sequence[PhaseState], C1: float,
                      c1: float) -> dict:
    """Evaluate the coercivity bound terms against C1 + c1 * H0 on sample
    states, each row of each (possibly batched) state one sample.
    Diagnostic only; never gates integration."""
    for s in states:
        _check_width(spec, s)
    if not sum(s.x.size for s in states):
        raise InsufficientDataError("growth_diagnostic needs at least one sample state")
    x = np.concatenate([s.x.reshape(-1, spec.dim) for s in states])
    p = np.concatenate([s.p.reshape(-1, spec.dim) for s in states])
    eta = abs(spec.eta)
    ds = spec.dsigma(x)
    force = -spec.df(x)
    t1 = eta ** 2 * np.abs(np.sum(ds * ds, axis=-1))
    t2 = eta * np.abs(np.sum(p * ds, axis=-1))
    t3 = eta * np.abs(np.sum(ds * force, axis=-1))
    if spec.d2sigma is not None:
        hs = spec.d2sigma(x)
        t5 = eta * np.abs(np.einsum("...i,...ik,...k->...", p, hs, p))
    else:
        t5 = np.zeros_like(t1)
    left = t1 + t2 + t3 + t5  # the bound's t4, a mixed derivative of g^{-1}(x), is 0 for g = I
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
    H0(t) - H0(0) = int_0^t {H0, H1} xi_dot ds
                  = int_0^t eta * (kappa * df/dx . p - p . dsigma/dx) * xi_dot ds
    with composite Simpson quadrature per noise cell on the stored substeps
    (the trapezoid rule for an odd substep count).
    Returns the sup over stored cell-boundary times.

    The signs follow the chain rule applied to dx/dt = p + kappa * eta * p
    * xi_dot and dp/dt = -df/dx - eta * dsigma/dx * xi_dot.
    """
    xs, ps, times = result.xs, result.ps, result.times
    integrand = -spec.eta * np.sum(ps * spec.dsigma(xs), axis=-1)
    if spec.kappa:
        integrand = integrand + spec.eta * np.sum(spec.df(xs) * ps, axis=-1)
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


_contract(globals())
