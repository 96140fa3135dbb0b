"""Hopf-Cole form of the entropic interpolation system with common noise.

The pair (rho, Phi) obeys the Hamiltonian system

    d rho/dt = -div(rho grad Phi) - div(rho a) xi'_delta
    d Phi/dt = -|grad Phi|^2 / 2 - (grad Phi . a - div(a)/2) xi'_delta
               + bohm(rho)/8

whose Hamiltonian is H0 = int |grad Phi|^2 rho / 2 - I(rho)/8 with I the
Fisher information.  The div(a)/2 term is what makes the transform exact
for couplings that are not divergence-free: the noise Hamiltonian reads
int rho a . grad S in the (rho, S) variables, which becomes
int rho (a . grad Phi - div(a)/2) after the substitution.  Through Phi = S - log(rho)/2 this is algebraically
equivalent to a forward Fokker-Planck / backward Hamilton-Jacobi pair,
which ``fb_residual`` verifies on any computed series.

The minus sign on the Fisher term makes the linearized system grow like
exp(k^2 t / 2) at spatial wavenumber k: as an initial-value problem the
dynamics is only meaningful on a controlled band of modes.  The
integrator therefore evolves the sharply truncated (Galerkin) system
keeping modes |k| < n/4, so the retained band stays numerically stable
over the short horizons the diagnostics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .density import (
    CFL, RHO_FLOOR, FieldTrajectory, _check_floor, _field_step, _march_fields, _one_row,
    fisher_and_bohm,
)
from .errors import ConfigurationError
from .fields import (
    DensityField, GridSpec, PotentialField, _apply, _contract, _frozen, bohm, divergence, gradient,
    laplacian,
)
from .noise import WongZakaiMesh, cell_slopes, centered_rate, uniform_step


@dataclass(frozen=True)
class BridgeSpec:
    """Grid, common-noise coupling a(x) with derivative, noise mesh and
    initial data of the Hopf-Cole system. The coupling is evaluated once,
    into the read-only grid arrays a_values and da_values; the spec is
    frozen, so they cannot go stale."""

    grid: GridSpec
    a: Callable
    da: Callable
    mesh: WongZakaiMesh
    rho0: DensityField
    phi0: PotentialField
    a_values: np.ndarray = field(init=False, repr=False, compare=False)
    da_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rho0.grid != self.grid or self.phi0.grid != self.grid:
            raise ConfigurationError("initial fields must live on the spec grid")
        _check_floor(self.rho0)
        for name, fn in (("a", self.a), ("da", self.da)):
            values = np.asarray(fn(self.grid.axis()), dtype=float)
            try:
                values = np.broadcast_to(values, self.grid.shape)
            except ValueError:
                raise ConfigurationError(f"coupling {name}(x) of shape {values.shape} does not "
                                         f"broadcast to the grid {self.grid.shape}") from None
            if not np.all(np.isfinite(values)):
                raise ConfigurationError(f"coupling {name}(x) must be finite on the grid")
            object.__setattr__(self, f"{name}_values", _frozen(values.copy()))


# ---------------------------------------------------------------------------
# Hopf-Cole transform

def hopf_cole(rho: DensityField, s_values: np.ndarray):
    """Phi = S - log(rho)/2, zero-mean projected; returns (Phi, offset)."""
    _check_floor(rho)
    if np.shape(s_values) != rho.grid.shape:
        raise ConfigurationError(f"s_values of shape {np.shape(s_values)} is not on the grid")
    raw = np.asarray(s_values, dtype=float) - 0.5 * np.log(rho.values)
    offset = float(np.mean(raw))
    return PotentialField(rho.grid, raw - offset), offset


def hopf_cole_inverse(rho: DensityField, phi: PotentialField) -> np.ndarray:
    """S = Phi + log(rho)/2 (up to the offset removed by the transform)."""
    _check_floor(rho)
    return phi.values + 0.5 * np.log(rho.values)


# ---------------------------------------------------------------------------
# integration

def _band_limit(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Sharp Galerkin projection onto modes |k| < n/4."""
    c = np.fft.fft(values)
    c[..., grid.outer_half] = 0.0
    return np.real(np.fft.ifft(c))


def _rhs(grid, a_vals, da_vals, xi_dot, rho, gphi):
    """The band-limited rates; the divergence and the band limit of the rho
    rate are one multiplier, i k 1(|k| < n/4)."""
    drho = -_apply(grid, grid.inner_ik, rho * (gphi + a_vals * xi_dot))
    dphi = (
        -0.5 * gphi ** 2
        - (gphi * a_vals - 0.5 * da_vals) * xi_dot
        + 0.125 * bohm(grid, rho, RHO_FLOOR)
    )
    return drho, _band_limit(grid, dphi)


def bridge_step(rho: DensityField, phi: PotentialField, xi_dot: float,
                spec: BridgeSpec, dt: float):
    """One RK4 substep; xi' is frozen (constant inside a noise cell)."""
    grid, a_vals = spec.grid, spec.a_values
    gphi = gradient(grid, phi.values)
    with np.errstate(over="ignore", invalid="ignore"):  # inf gives dt_max = 0; NaN fails the row
        speed = np.max(np.abs(gphi + a_vals * xi_dot), axis=-1, keepdims=True)
    k_band = 2 * np.pi * (grid.n // 4) / grid.period
    dt_max = CFL * np.minimum(
        grid.h / np.maximum(speed, 1e-12),
        2.8 / max(0.5 * k_band ** 2, 1e-12),  # RK4 real-axis bound on the growth rate
    )
    rhs = partial(_rhs, grid, a_vals, spec.da_values, xi_dot)
    return _one_row(grid, dt, *_field_step(grid, rhs, rho.values, phi.values, gphi, dt, dt_max))


def bridge_flow(spec: BridgeSpec, T: float, dt: float) -> FieldTrajectory:
    """March the Hopf-Cole system to time T with RK4 substeps that tile the
    Wong-Zakai cells exactly (dt must divide the cell width)."""
    mesh = spec.mesh
    if not dt > 0:  # NaN fails too
        raise ConfigurationError("dt must be positive")
    per_cell = int(round(mesh.delta / dt))
    if abs(per_cell * dt - mesh.delta) > 1e-9 * mesh.delta or per_cell < 1:
        raise ConfigurationError("dt must divide the noise-cell width")
    return _march_fields(bridge_step, spec, spec.rho0, spec.phi0, mesh, per_cell, dt, T)


def bridge_hamiltonian(rho: DensityField, phi: PotentialField) -> float:
    """H0 = int |grad Phi|^2 rho / 2 - I(rho)/8."""
    gphi = gradient(rho.grid, phi.values)
    fisher = fisher_and_bohm(rho).value
    return 0.5 * rho.grid.integrate(gphi ** 2 * rho.values) - 0.125 * fisher


# ---------------------------------------------------------------------------
# forward-backward verification

def fb_residual(
    trajectory: FieldTrajectory,
    spec: BridgeSpec,
    sample_times: Optional[np.ndarray] = None,
    nu: float = 0.5,
) -> dict:
    """Sup-norm residuals of the equivalent forward-backward pair

        d rho/dt + div(rho (grad S + a xi')) = nu lap(rho)
        d S/dt + |grad S|^2 / 2 + (grad S . a) xi' = -nu lap(S)

    with S recovered by the inverse Hopf-Cole transform and centered time
    differences; the backward residual is zero-mean projected.  The
    derived pair carries the diffusion coefficient nu = 1/2."""
    if not np.isfinite(nu):
        raise ConfigurationError(f"nu = {nu!r} must be finite")
    times, dt = uniform_step(trajectory.times if sample_times is None else sample_times)
    pairs = [trajectory.at(t) for t in times]
    grid = spec.grid
    a_vals = spec.a_values
    S = np.array([hopf_cole_inverse(rho, phi) for rho, phi in pairs])
    rho = np.array([r.values for r, _ in pairs])
    xi_dot = cell_slopes(spec.mesh, times[1:-1])[:, None]
    rho_j, s_j = rho[1:-1], S[1:-1]
    grad_s = gradient(grid, s_j)
    forward = (
        centered_rate(rho, dt)
        + divergence(grid, rho_j * (grad_s + a_vals * xi_dot))
        - nu * laplacian(grid, rho_j)
    )
    backward = (
        centered_rate(S, dt)
        + 0.5 * grad_s ** 2
        + (grad_s * a_vals) * xi_dot
        + nu * laplacian(grid, s_j)
    )
    backward -= backward.mean(axis=1, keepdims=True)
    return {
        "times": times[1:-1],
        "forward": np.max(np.abs(forward), axis=1),
        "backward": np.max(np.abs(backward), axis=1),
        "nu": nu,
    }


_contract(globals())
