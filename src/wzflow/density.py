"""Dynamics on the density manifold: push-forward of densities under the
phase-space flow, the weighted elliptic pseudo-inverse, Fisher
information with its Bohm potential, the Wasserstein metric, and the
noise-driven Hamiltonian flow for (rho, Phi) on a one-dimensional
periodic grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError, ConvergenceError, DiffeomorphismLostError, DomainError, GaugeError,
    StabilityError, SupportError,
)
from .fields import (
    DensityField, GridSpec, PotentialField, VelocityField, _apply, _check_count, _contract, bohm,
    divergence, gradient, laplacian, resample,
)
from .noise import WongZakaiMesh, cell_slopes, centered_rate, grid_index, uniform_step
from .phase import (
    HamiltonianSpec, PhaseState, _start, _start_variational, _wz_integrate, _wz_times,
)

RHO_FLOOR = 1e-10  # positivity floor of rho: checked, clipped at and used in the Bohm potential
CFL = 0.5  # safety factor on the stability bound of the field marches
ELLIPTIC_TOL = 1e-10  # relative residual that elliptic_solve guarantees
ELLIPTIC_MAXITER = 5000  # PCG iterations before elliptic_solve gives up
REFINE_FACTOR = 4  # Lagrangian seeds of pushforward_jacobian per grid node


def _check_floor(rho: DensityField) -> None:
    """Raise SupportError if rho falls below the positivity floor."""
    if np.min(rho.values) < RHO_FLOOR:
        raise SupportError(f"density falls below the positivity floor {RHO_FLOOR}")


# ---------------------------------------------------------------------------
# weighted elliptic solver

def _weighted_laplacian_apply(grid: GridSpec, rho: np.ndarray, phi: np.ndarray):
    """Conservative second-order discretization of -div(rho grad phi); the
    0.0 - keeps a zero result +0.0."""
    phi = np.asarray(phi, dtype=float)
    rp = 0.5 * (rho + np.roll(rho, -1, axis=-1))
    rm = np.roll(rp, 1, axis=-1)
    return 0.0 - (
        rp * (np.roll(phi, -1, axis=-1) - phi) - rm * (phi - np.roll(phi, 1, axis=-1))
    ) / grid.h ** 2


def _fd_symbol(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the constant-coefficient three-point Laplacian."""
    return (2.0 - 2.0 * np.cos(grid.wavenumbers() * grid.h)) / grid.h ** 2


def elliptic_solve(rho: DensityField, kappa: np.ndarray) -> PotentialField:
    """Solve -div(rho grad Phi) = kappa on the periodic grid to relative
    residual <= ELLIPTIC_TOL, zero-mean gauge.

    Preconditioned conjugate gradients; the preconditioner inverts the
    constant-coefficient operator mean(rho) * (-Laplacian) spectrally.
    """
    grid = rho.grid
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != grid.shape:
        raise ConfigurationError("source does not match the grid")
    _check_floor(rho)
    knorm = float(np.max(np.abs(kappa)))
    if not np.isfinite(knorm):
        raise DomainError("source has non-finite entries")
    if abs(grid.integrate(kappa)) > 1e-10 * max(1.0, knorm):
        raise GaugeError("source must have zero mean (compatibility condition)")
    b = kappa - kappa.mean()
    if not b.any():
        return PotentialField(grid, np.zeros(grid.shape))

    rvals = rho.values
    sym = _fd_symbol(grid) * float(np.mean(rvals))
    inv_sym = np.zeros_like(sym)
    nz = sym > 1e-30
    inv_sym[nz] = 1.0 / sym[nz]

    def apply_a(v):
        out = _weighted_laplacian_apply(grid, rvals, v)
        return out - out.mean()

    def apply_m(v):
        out = np.real(np.fft.ifft(np.fft.fft(v) * inv_sym))
        return out - out.mean()

    # preconditioned CG from phi = 0 (Shewchuk 1994, B3), stopping when
    # |r| < ELLIPTIC_TOL/100 |b|
    phi, r, p = np.zeros_like(b), b.copy(), np.zeros_like(b)
    stop = ELLIPTIC_TOL * 1e-2 * float(np.linalg.norm(b))
    rz_prev = np.inf  # beta = 0 on the first pass
    for _ in range(ELLIPTIC_MAXITER):
        if np.linalg.norm(r) < stop:
            break
        z = apply_m(r)
        rz = np.dot(r, z)
        p *= rz / rz_prev
        p += z
        q = apply_a(p)
        alpha = rz / np.dot(p, q)
        phi += alpha * p
        r -= alpha * q
        rz_prev = rz
    resid = float(np.linalg.norm(apply_a(phi) - b) / np.linalg.norm(b))
    if resid > ELLIPTIC_TOL:
        raise ConvergenceError(
            f"elliptic solver stalled at relative residual {resid:.3e}",
            residual=resid,
        )
    return PotentialField.projected(grid, phi)


def wasserstein_metric(rho: DensityField, kappa1: np.ndarray, kappa2: np.ndarray) -> float:
    """Metric pairing g_W(kappa1, kappa2) = int grad Phi1 . grad Phi2 rho
    with -div(rho grad Phi_i) = kappa_i.

    Evaluated in the flux (midpoint) form so that it coincides with the
    dual pairing int kappa1 Phi2 of the discrete operator to round-off.
    The 0.0 + keeps a zero pairing +0.0.
    """
    grid = rho.grid
    phi1 = elliptic_solve(rho, kappa1).values
    phi2 = elliptic_solve(rho, kappa2).values
    rp = 0.5 * (rho.values + np.roll(rho.values, -1))
    d1 = (np.roll(phi1, -1) - phi1) / grid.h
    d2 = (np.roll(phi2, -1) - phi2) / grid.h
    return 0.0 + float(np.sum(rp * d1 * d2)) * grid.h


# ---------------------------------------------------------------------------
# Fisher information and the Bohm potential

@dataclass
class FisherResult:
    value: float
    bohm: np.ndarray          # -4 * lap(sqrt rho) / sqrt rho
    form_discrepancy: float   # vs |grad log rho|^2 - 2 lap(rho)/rho


def fisher_and_bohm(rho: DensityField) -> FisherResult:
    grid = rho.grid
    _check_floor(rho)
    log_rho = np.log(rho.values)
    grad_sq = gradient(grid, log_rho) ** 2
    value = grid.integrate(grad_sq * rho.values)
    bohm_a = bohm(grid, rho.values, RHO_FLOOR)
    bohm_b = grad_sq - 2.0 * laplacian(grid, rho.values) / rho.values
    return FisherResult(
        value=value,
        bohm=bohm_a,
        form_discrepancy=float(np.max(np.abs(bohm_a - bohm_b))),
    )


# ---------------------------------------------------------------------------
# functionals on the density manifold

@dataclass
class Functional:
    """F(rho) = int V rho + c_F * I(rho) with I the Fisher information.

    ``potential`` is a callable of the node coordinates or an array on the
    grid; the variation is V + c_F * (-4 lap sqrt(rho) / sqrt(rho)).
    """

    potential: object = None
    fisher_coeff: float = 0.0

    def potential_values(self, grid: GridSpec) -> np.ndarray:
        if self.potential is None:
            return np.zeros(grid.shape)
        if callable(self.potential):
            values, kind = self.potential(grid.axis()), "values"
        else:
            values, kind = np.asarray(self.potential, dtype=float), "array"
        if np.shape(values) != grid.shape:
            raise ConfigurationError(f"potential {kind} of shape {np.shape(values)} does not "
                                     f"match the grid {grid.shape}")
        return values

    def variation(self, grid: GridSpec, rho_values: np.ndarray) -> np.ndarray:
        """dF/drho at rho_values, which may stack densities along leading
        axes; callers read the result and never write to it."""
        out = self.potential_values(grid)
        if self.fisher_coeff != 0.0:
            out = out + self.fisher_coeff * bohm(grid, rho_values, RHO_FLOOR)
        return out

    def value(self, rho: DensityField) -> float:
        out = rho.grid.integrate(self.potential_values(rho.grid) * rho.values)
        if self.fisher_coeff != 0.0:
            out += self.fisher_coeff * fisher_and_bohm(rho).value
        return out


# ---------------------------------------------------------------------------
# push-forward of densities under the phase-space flow

@dataclass
class PushforwardResult:
    density: DensityField
    renorm_factor: float
    stderr: Optional[np.ndarray] = None


def _euclidean(spec: HamiltonianSpec) -> HamiltonianSpec:
    # integrate characteristics unwrapped; wrap only when binning
    if spec.domain == "torus":
        return dataclasses.replace(spec, domain="euclidean")
    return spec


def _initial_momenta(grid: GridSpec, v0: Optional[VelocityField], x0: np.ndarray):
    if v0 is None:
        return np.zeros_like(x0)
    if v0.grid != grid:
        raise ConfigurationError(f"v0 lives on {v0.grid}, not on the grid of rho0 {grid}")
    return resample(grid, v0.values, x0)


def pushforward_jacobian(
    spec: HamiltonianSpec,
    rho0: DensityField,
    mesh: WongZakaiMesh,
    t: float,
    v0: Optional[VelocityField] = None,
    det_threshold: float = 1e-6,
    substeps_per_cell: int = 8,
) -> PushforwardResult:
    """Transport rho0 along the flow map via the change-of-variables
    formula rho_t(y) = rho0(x0(y)) |det dx0/dy|.

    Characteristics seeded on a Lagrangian grid REFINE_FACTOR times finer carry the
    first-variation Jacobian; the monotone 1D map is inverted by
    interpolation and rho0 is evaluated by trigonometric resampling. The
    march keeps only the state at t and watches each step's smallest
    Jacobian; no trajectory is stored. With v0 the seeds start at
    p0 = v0(x0) and J at the tangent (1, v0'(x0)) of that initial curve, so
    the map's derivative includes dp0/dx0.
    """
    if not np.isfinite(det_threshold):
        raise ConfigurationError(f"det_threshold = {det_threshold!r} must be finite")
    grid = rho0.grid
    L = grid.period
    m = REFINE_FACTOR * grid.n
    seeds = grid.origin + L * np.arange(m) / m
    p0 = _initial_momenta(grid, v0, seeds)
    # J is the one column read, the tangent of the initial curve x0 -> (x0, p0(x0)):
    # (1, v0'(x0)), or (1, 0) without v0; J[..., 0, 0] is then dx_t/dx0 along it
    J0 = np.zeros((m, 2, 1))
    J0[:, 0, 0] = 1.0
    if v0 is not None:
        J0[:, 1, 0] = resample(grid, gradient(grid, v0.values), seeds)
    euclid = _euclidean(spec)
    loss = []  # the first step time with min det <= det_threshold

    def watch(tj, y):
        if not loss and np.min(y[2][:, 0, 0]) <= det_threshold:
            loss.append(float(tj))

    flow = _wz_integrate(  # a flow that stops before t raises EvaluationError here
        euclid,
        _start_variational(euclid, PhaseState(seeds[:, None], p0[:, None]), J0),
        mesh,
        substeps_per_cell,
        at=t,
        watch=watch,
    )
    if loss:
        raise DiffeomorphismLostError(
            "flow map stopped being a diffeomorphism", loss_time=loss[0]
        )
    xt = flow.xs[0, :, 0]
    jac = flow.jacobians[0, :, 0, 0]
    if np.any(np.diff(xt) <= 0):
        raise DiffeomorphismLostError("transported grid is not monotone", loss_time=t)

    rho0_of = lambda pts: np.maximum(resample(grid, rho0.values, pts), 0.0)
    nodes = grid.axis()
    if spec.domain == "torus":
        # periodic dynamics: the map commutes with x -> x + L
        xt_ext = np.concatenate([xt - L, xt, xt + L])
        x0_ext = np.concatenate([seeds - L, seeds, seeds + L])
        j_ext = np.concatenate([jac, jac, jac])
        x0_at = np.interp(nodes, xt_ext, x0_ext)
        j_at = np.interp(nodes, xt_ext, j_ext)
        vals = rho0_of(x0_at) / np.abs(j_at)
    else:
        vals = np.zeros(grid.n)
        inside = (nodes >= xt[0]) & (nodes <= xt[-1])
        x0_at = np.interp(nodes[inside], xt, seeds)
        j_at = np.interp(nodes[inside], xt, jac)
        vals[inside] = rho0_of(x0_at) / np.abs(j_at)
    mass = grid.integrate(vals)
    if mass <= 0:
        raise SupportError("transported density lost all mass on the grid")
    return PushforwardResult(
        density=DensityField(grid, vals / mass), renorm_factor=1.0 / mass
    )


def sample_density(rho0: DensityField, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points, shape (n, 1), from a grid density by inverse CDF."""
    grid = rho0.grid
    # cells centered on the nodes so histogramming back is unbiased
    lo = grid.origin - grid.h / 2
    edges = lo + grid.h * np.arange(grid.n + 1)
    cdf = np.concatenate([[0.0], np.cumsum(rho0.values) * grid.h])
    cdf = cdf / cdf[-1]
    return np.interp(rng.random(n), cdf, edges)[:, None]


def pushforward_mc(
    spec: HamiltonianSpec,
    rho0: DensityField,
    mesh: WongZakaiMesh,
    t: float,
    n_particles: int,
    seed: int,
    v0: Optional[VelocityField] = None,
    substeps_per_cell: int = 8,
) -> PushforwardResult:
    """Monte Carlo push-forward: sample rho0, advect every particle with the
    SAME noise path, and histogram onto the grid.

    Returns the normalized histogram density together with a per-bin
    binomial standard-error field.
    """
    grid = rho0.grid
    _check_count("n_particles", n_particles, 1000)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    x0 = sample_density(rho0, n_particles, rng)
    p0 = _initial_momenta(grid, v0, x0[:, 0])[:, None]
    euclid = _euclidean(spec)
    xt = _wz_integrate(euclid, _start(euclid, PhaseState(x0, p0)), mesh, substeps_per_cell,
                       at=t).xs[0]
    if spec.domain == "torus":
        xt = grid.origin + np.mod(xt - grid.origin, grid.period)
    lo = grid.origin - grid.h / 2
    pos = lo + np.mod(xt[:, 0] - lo, grid.period)
    edges = lo + grid.h * np.arange(grid.n + 1)
    counts, _ = np.histogram(pos, bins=edges)
    n_kept = counts.sum()
    phat = counts / n_kept
    vals = phat / grid.h
    stderr = np.sqrt(phat * (1 - phat) / n_kept) / grid.h
    return PushforwardResult(
        density=DensityField.normalized(grid, vals),
        renorm_factor=1.0,
        stderr=stderr,
    )


# ---------------------------------------------------------------------------
# generalized Hamiltonian flow on the density manifold

@dataclass
class WhfSpec:
    """Ingredients of the flow for (rho, Phi): drift functional, noise
    functional and noise strength."""

    free_energy: Functional = field(default_factory=Functional)
    noise_energy: Functional = field(default_factory=Functional)
    eta: float = 0.0


def _whf_rhs(grid, wspec, xi_dot, rho, gphi):
    """The flow's rates: div(dealias(rho grad Phi)) and dealias(|grad Phi|^2)
    come from one transform pair of the two products stacked on axis -2; the
    leading 0 + is divergence's."""
    kin = 1.0 + wspec.eta * xi_dot
    rates = _apply(grid, grid.dealiased_ik, np.stack([rho * gphi, gphi * gphi], axis=-2))
    drho = -kin * (0 + rates[..., 0, :])
    dphi = -kin * 0.5 * rates[..., 1, :]
    dphi -= wspec.free_energy.variation(grid, rho)
    if wspec.eta != 0.0:
        dphi -= wspec.eta * xi_dot * wspec.noise_energy.variation(grid, rho)
    return drho, dphi


def _whf_rows(grid, wspec, xi_dot, rho, phi, dt):
    """_field_step of the flow at noise slopes xi_dot, a float or (..., 1)."""
    gphi = gradient(grid, phi)
    speed = np.max(np.abs(gphi), axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # inf gives dt_max = 0; NaN fails the row
        dt_max = CFL * grid.h / np.maximum(np.abs(1.0 + wspec.eta * xi_dot) * speed, 1e-12)
    return _field_step(grid, partial(_whf_rhs, grid, wspec, xi_dot), rho, phi, gphi, dt, dt_max)


def generalized_whf_step(
    rho: DensityField,
    phi: PotentialField,
    xi_dot: float,
    wspec: WhfSpec,
    dt: float,
):
    """One RK4 substep of the noise-driven flow

        d rho/dt = -(1 + eta xi') div(rho grad Phi)
        d Phi/dt = -(1 + eta xi') |grad Phi|^2 / 2 - dF/drho - eta dS/drho xi'

    with spectral derivatives and 2/3-rule dealiasing of products.
    Returns (rho, Phi, report); the report carries the mass renormalization
    factor and the clipped fraction.
    """
    return _one_row(rho.grid, dt, *_whf_rows(rho.grid, wspec, xi_dot, rho.values, phi.values, dt))


def _field_step(grid, rhs, rho, phi, gphi, dt, dt_max):
    """RK4 step of (..., n) rows of (rho, Phi) under rhs(rho, grad Phi), stage 1 using gphi. A
    row with dt > dt_max (..., 1) or a non-finite step (overflow included, without a warning)
    comes out NaN and steps on quietly; rows get rho floored, unit mass and zero-mean Phi.
    Returns (rho, Phi, dt_max, mass, clipped)."""
    ok = dt <= dt_max
    if not ok.all():
        rho, phi, gphi = (np.where(ok, a, np.nan) for a in (rho, phi, gphi))
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below NaNs such rows
        k1, l1 = rhs(rho, gphi)
        k2, l2 = rhs(rho + 0.5 * dt * k1, gradient(grid, phi + 0.5 * dt * l1))
        k3, l3 = rhs(rho + 0.5 * dt * k2, gradient(grid, phi + 0.5 * dt * l2))
        k4, l4 = rhs(rho + dt * k3, gradient(grid, phi + dt * l3))
        r = rho + dt / 6.0 * (k1 + (k2 + k2) + (k3 + k3) + k4)
        s = phi + dt / 6.0 * (l1 + (l2 + l2) + (l3 + l3) + l4)
    ok = np.isfinite(r).all(axis=-1, keepdims=True) & np.isfinite(s).all(axis=-1, keepdims=True)
    if not ok.all():
        r, s = np.where(ok, r, np.nan), np.where(ok, s, np.nan)
    clipped = r < RHO_FLOOR
    r = np.maximum(r, RHO_FLOOR)
    mass = np.sum(r, axis=-1, keepdims=True) * grid.h
    return r / mass, s - s.mean(axis=-1, keepdims=True), dt_max, mass, clipped


def _one_row(grid, dt, rho, phi, dt_max, mass, clipped):
    """(rho, Phi, report) of a one-row _field_step; a failed row raises StabilityError,
    suggesting dt / 2 where the bound gives no positive step (it overflowed to 0)."""
    dt_max, mass = float(dt_max[0]), float(mass[0])
    if dt > dt_max:
        raise StabilityError(f"dt={dt:.3e} exceeds the stability bound",
                             suggested_dt=dt_max if dt_max > 0 else dt / 2)
    if np.isnan(mass):
        raise StabilityError("flow produced non-finite fields", suggested_dt=dt / 2)
    report = {"mass_factor": 1.0 / mass, "clipped_fraction": float(np.mean(clipped)),
              "dt_max": dt_max}
    return DensityField(grid, rho), PotentialField(grid, phi), report


@dataclass
class FieldTrajectory:
    """The (rho, Phi) pairs of a field march at its step times, with each
    step's report ({} at t = 0)."""

    times: np.ndarray
    rhos: list
    phis: list
    reports: list

    def at(self, t: float):
        """The pair at step time t, resolved by grid_index (ConfigurationError
        off the grid); a trajectory of one state holds only t = 0."""
        i = int(grid_index(t, self.times[1] if len(self.times) > 1 else 1.0, len(self.times) - 1))
        return self.rhos[i], self.phis[i]


def _march_fields(step, spec, rho, phi, mesh: WongZakaiMesh, per_cell: int, dt: float,
                  t_end: float) -> FieldTrajectory:
    """March (rho, Phi) with step(rho, phi, xi', spec, dt), per_cell substeps
    per noise cell, to t_end, which grid_index resolves on the step grid of
    the phase march (ConfigurationError before the first step)."""
    n = int(grid_index(t_end, dt, mesh.n_cells * per_cell))
    xis = np.repeat(mesh.cell_derivative(np.arange(mesh.n_cells))[:, 0], per_cell)
    rhos, phis, reports = [rho], [phi], [{}]
    for xi in xis[:n].tolist():
        rho, phi, report = step(rho, phi, xi, spec, dt)
        rhos.append(rho)
        phis.append(phi)
        reports.append(report)
    return FieldTrajectory(_wz_times(mesh, per_cell)[:n + 1], rhos, phis, reports)


def whf_energy(rho: DensityField, phi: PotentialField, wspec: WhfSpec) -> float:
    """H(rho, Phi) = int |grad Phi|^2 rho / 2 + F(rho)."""
    gphi = gradient(rho.grid, phi.values)
    return 0.5 * rho.grid.integrate(gphi ** 2 * rho.values) + wspec.free_energy.value(rho)


def whf_evolve(
    rho0: DensityField,
    phi0: PotentialField,
    mesh: WongZakaiMesh,
    wspec: WhfSpec,
    substeps_per_cell: int,
    t_end: Optional[float] = None,
) -> FieldTrajectory:
    """March the flow across the noise cells, substeps RK4 steps per cell,
    to t_end, a step time of the march (the path's horizon by default).

    WhfSpec.eta scales the kinetic term too, (1 + eta xi') |grad Phi|^2 / 2,
    so this is the density picture of the kappa = 1 particle flow
    (HamiltonianSpec with tilde_metric=IdentityMetric()); it does not match
    kappa = 0 particles when eta != 0."""
    _check_count("substeps_per_cell", substeps_per_cell)
    t_end = mesh.base.T if t_end is None else t_end
    dt = mesh.delta / substeps_per_cell
    return _march_fields(generalized_whf_step, wspec, rho0, phi0, mesh, substeps_per_cell, dt,
                         t_end)


# ---------------------------------------------------------------------------
# residual diagnostics

def el_residual(
    rhos: Sequence[DensityField],
    times: np.ndarray,
    mesh: WongZakaiMesh,
    wspec: WhfSpec = WhfSpec(),
) -> dict:
    """Residuals of the two Hamiltonian equations of the flow wspec,
    reconstructed from a density trajectory alone.

    Phi_t is recovered as the weighted-elliptic preimage of the (scaled)
    time derivative of rho; the continuity residual is then measured
    spectrally and the Hamilton-Jacobi residual after zero-mean projection
    of both sides.
    """
    times, dt = uniform_step(times, rhos, least=5)  # the HJB term differences twice
    grid = rhos[0].grid
    rho = np.array([r.values for r in rhos])
    eta = wspec.eta
    kins = 1.0 + eta * cell_slopes(mesh, times)
    drho = centered_rate(rho, dt)
    phis = np.array([  # one weighted-elliptic solve per interior sample
        elliptic_solve(r, d / k).values for r, d, k in zip(rhos[1:-1], drho, kins[1:-1])
    ])
    gphi = gradient(grid, phis)
    kin = kins[1:-1, None]
    cont = drho + kin * divergence(grid, rho[1:-1] * gphi)

    xi_dot = (kin - 1.0) / eta if eta != 0.0 else np.zeros_like(kin)
    hjb = (
        centered_rate(phis, dt)
        + kin[1:-1] * 0.5 * gphi[1:-1] ** 2
        + wspec.free_energy.variation(grid, rho[2:-2])
        + eta * xi_dot[1:-1] * wspec.noise_energy.variation(grid, rho[2:-2])
    )
    hjb -= hjb.mean(axis=1, keepdims=True)
    return {
        "times_continuity": times[1:-1],
        "continuity": np.max(np.abs(cont), axis=1),
        "times_hjb": times[2:-2],
        "hjb": np.max(np.abs(hjb), axis=1),
    }


def trig_test_battery(grid: GridSpec):
    """(label, psi, dpsi) triplets of the trigonometric modes 1, 2 and 3."""
    x = grid.axis()
    out = []
    for m in range(1, 4):
        w = 2 * np.pi * m / grid.period
        out.append((f"sin{m}", np.sin(w * x), w * np.cos(w * x)))
        out.append((f"cos{m}", np.cos(w * x), -w * np.sin(w * x)))
    return out


def continuity_residual(
    rhos: Sequence[DensityField],
    velocities: Sequence[VelocityField],
    times: np.ndarray,
) -> dict:
    """Weak-form residual |d/dt int psi rho - int grad psi . v rho| per time
    for a battery of trigonometric test functions (centered differences)."""
    times, dt = uniform_step(times, rhos, velocities)
    grid = rhos[0].grid
    battery = trig_test_battery(grid)
    labels = [b[0] for b in battery]
    psi = np.array([b[1] for b in battery])[:, None]  # (n_test, 1, n)
    dpsi = np.array([b[2] for b in battery])[:, None]
    rho = np.array([r.values for r in rhos])  # (n_t, n)
    vel = np.array([v.values for v in velocities])
    obs = np.sum(psi * rho, axis=-1) * grid.h  # (n_test, n_t)
    flux = np.sum(dpsi * vel * rho, axis=-1) * grid.h
    table = np.abs(centered_rate(obs.T, dt).T - flux[:, 1:-1])
    return {
        "times": times[1:-1],
        "labels": labels,
        "residuals": table,
        "max_per_time": table.max(axis=0),
    }


_contract(globals())
