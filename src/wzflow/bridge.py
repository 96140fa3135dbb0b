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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .density import CFL, RHO_FLOOR, _accept_fields, _check_floor, _march_fields, fisher_and_bohm
from .errors import ConfigurationError, InsufficientDataError, StabilityError
from .fields import (
    DensityField,
    GridSpec,
    PotentialField,
    bohm,
    divergence,
    grad_components,
    laplacian,
)
from .noise import WongZakaiMesh, cell_slopes, centered_rate, time_index, uniform_step
from .phase import _rk4


@dataclass
class BridgeSpec:
    """Grid, common-noise coupling a(x) with derivative, noise mesh and
    initial data of the Hopf-Cole system."""

    grid: GridSpec
    a: Callable
    da: Callable
    mesh: WongZakaiMesh
    rho0: DensityField
    phi0: PotentialField

    def __post_init__(self):
        if self.rho0.grid != self.grid or self.phi0.grid != self.grid:
            raise ConfigurationError("initial fields must live on the spec grid")
        _check_floor(self.rho0)
        a_vals = np.asarray(self.a(self.grid.axis()), dtype=float)
        if not np.all(np.isfinite(a_vals)):
            raise ConfigurationError("coupling a(x) must be finite on the grid")

    @property
    def a_values(self) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(self.a(self.grid.axis()), dtype=float), self.grid.shape
        ).copy()


@dataclass
class BridgeState:
    rho: DensityField
    phi: PotentialField
    t: float


@dataclass
class BridgeTrajectory:
    times: np.ndarray
    states: list
    reports: list

    def at(self, t: float) -> BridgeState:
        return self.states[time_index(self.times, t)]


# ---------------------------------------------------------------------------
# Hopf-Cole transform

def hopf_cole(rho: DensityField, s_values: np.ndarray):
    """Phi = S - log(rho)/2, zero-mean projected; returns (Phi, offset)."""
    _check_floor(rho)
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
    c[grid.outer_half] = 0.0
    return np.real(np.fft.ifft(c))


def _rhs(grid, a_vals, da_vals, xi_dot, rho, phi):
    gphi = grad_components(grid, phi)[0]
    drho = -divergence(grid, [rho * (gphi + a_vals * xi_dot)])
    dphi = (
        -0.5 * gphi ** 2
        - (gphi * a_vals - 0.5 * da_vals) * xi_dot
        + 0.125 * bohm(grid, rho, RHO_FLOOR)
    )
    return _band_limit(grid, drho), _band_limit(grid, dphi)


def bridge_step(rho: DensityField, phi: PotentialField, xi_dot: float,
                spec: BridgeSpec, dt: float):
    """One RK4 substep; xi' is frozen (constant inside a noise cell)."""
    grid = spec.grid
    a_vals = spec.a_values
    da_vals = np.broadcast_to(
        np.asarray(spec.da(grid.axis()), dtype=float), grid.shape
    )
    gphi = grad_components(grid, phi.values)[0]
    speed = float(np.max(np.abs(gphi + a_vals * xi_dot)))
    k_band = 2 * np.pi * (grid.n // 4) / grid.period
    dt_max = CFL * min(
        grid.h / max(speed, 1e-12),
        2.8 / max(0.5 * k_band ** 2, 1e-12),  # RK4 real-axis bound on the growth rate
    )
    if dt > dt_max:
        raise StabilityError(
            f"dt={dt:.3e} exceeds the stability bound", suggested_dt=dt_max
        )
    args = (grid, a_vals, da_vals, xi_dot)
    r, s = _rk4(lambda y: _rhs(*args, *y), [rho.values, phi.values], dt)
    return _accept_fields(grid, r, s, dt, dt_max)


def bridge_flow(spec: BridgeSpec, T: float, dt: float) -> BridgeTrajectory:
    """March the Hopf-Cole system to time T with RK4 substeps that tile the
    Wong-Zakai cells exactly (dt must divide the cell width)."""
    mesh = spec.mesh
    if not dt > 0:  # NaN fails too
        raise ConfigurationError("dt must be positive")
    per_cell = int(round(mesh.delta / dt))
    if abs(per_cell * dt - mesh.delta) > 1e-9 * mesh.delta or per_cell < 1:
        raise ConfigurationError("dt must divide the noise-cell width")
    times, rhos, phis, reports = _march_fields(
        bridge_step, spec, spec.rho0, spec.phi0, mesh, per_cell, dt, T
    )
    states = [BridgeState(*state) for state in zip(rhos, phis, times.tolist())]
    return BridgeTrajectory(times, states, reports)


def bridge_hamiltonian(rho: DensityField, phi: PotentialField) -> float:
    """H0 = int |grad Phi|^2 rho / 2 - I(rho)/8."""
    gphi = grad_components(rho.grid, phi.values)[0]
    fisher = fisher_and_bohm(rho).value
    return 0.5 * rho.grid.integrate(gphi ** 2 * rho.values) - 0.125 * fisher


# ---------------------------------------------------------------------------
# forward-backward verification

def fb_residual(
    trajectory: BridgeTrajectory,
    spec: BridgeSpec,
    sample_times: Optional[Sequence[float]] = None,
    nu: float = 0.5,
) -> dict:
    """Sup-norm residuals of the equivalent forward-backward pair

        d rho/dt + div(rho (grad S + a xi')) = nu lap(rho)
        d S/dt + |grad S|^2 / 2 + (grad S . a) xi' = -nu lap(S)

    with S recovered by the inverse Hopf-Cole transform and centered time
    differences; the backward residual is zero-mean projected.  The
    derived pair carries the diffusion coefficient nu = 1/2."""
    times = (
        np.asarray(sample_times, dtype=float)
        if sample_times is not None
        else trajectory.times
    )
    if times.size < 3:
        raise InsufficientDataError("need at least 3 sample times")
    dt = uniform_step(times)
    states = [trajectory.at(t) for t in times]
    grid = spec.grid
    a_vals = spec.a_values
    S = np.array([hopf_cole_inverse(st.rho, st.phi) for st in states])
    rho = np.array([st.rho.values for st in states])
    xi_dot = cell_slopes(spec.mesh, times[1:-1])[:, None]
    rho_j, s_j = rho[1:-1], S[1:-1]
    grad_s = grad_components(grid, s_j)[0]
    forward = (
        centered_rate(rho, dt)
        + divergence(grid, [rho_j * (grad_s + a_vals * xi_dot)])
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
