"""Unsupported inputs to the public entry points (grids, fields, noise,
marches and study statistics) raise typed errors: one (call, error class)
row per case."""

import warnings

import numpy as np
import pytest

from wzflow import noise, phase
from wzflow.bridge import BridgeSpec, bridge_flow
from wzflow.density import (
    WhfSpec, continuity_residual, elliptic_solve, pushforward_jacobian, pushforward_mc,
    whf_evolve,
)
from wzflow.errors import ConfigurationError, DomainError, InsufficientDataError
from wzflow.fields import DensityField, GridSpec, PotentialField, VelocityField
from wzflow.studies import fit_order, wilson_interval

GRID = GridSpec(1, 16, 1.0)
UNIFORM = DensityField(GRID, np.ones(16))
MESH = noise.WongZakaiMesh(noise.sample_brownian(seed=1, T=1.0, level=3), 0.25)


def nan_at(i, values):
    out = np.array(values, dtype=float)
    out[i] = np.nan
    return out


def inf_at(i, values):
    out = np.array(values, dtype=float)
    out[i] = np.inf
    return out


def continuity(n_samples):
    return continuity_residual(
        [UNIFORM] * n_samples, [VelocityField(GRID, np.zeros(16))] * n_samples,
        0.1 * np.arange(n_samples),
    )


def whf(substeps=4, t_end=None):
    zero = PotentialField(GRID, np.zeros(16))
    return whf_evolve(UNIFORM, zero, MESH, WhfSpec(), substeps, t_end)


def bridge(T=0.5, dt=0.0625):
    zero = lambda x: np.zeros_like(x)
    spec = BridgeSpec(GRID, zero, zero, MESH, UNIFORM, PotentialField(GRID, np.zeros(16)))
    return bridge_flow(spec, T, dt)


F, DF, D2F = phase.scalar_potential(lambda x: 0.5 * x ** 2, lambda x: x, np.ones_like)
S, DS, D2S = phase.scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
# Hessians supplied, as the Jacobian push-forward needs
HARMONIC = phase.HamiltonianSpec(1, F, DF, S, DS, eta=0.5, d2f=D2F, d2sigma=D2S)


def wz_flow(substeps):
    return phase.wz_flow(HARMONIC, phase.PhaseState(np.zeros((1, 1)), np.ones((1, 1))),
                         MESH, substeps)


def jacobian(refine_factor=4, substeps=8):
    return pushforward_jacobian(HARMONIC, UNIFORM, MESH, 0.5, refine_factor=refine_factor,
                                substeps_per_cell=substeps)


def monte_carlo(substeps):
    return pushforward_mc(HARMONIC, UNIFORM, MESH, 0.5, 1000, seed=0,
                          substeps_per_cell=substeps)


FIT = [(0.25, 0.2), (0.125, 0.1), (0.0625, 0.05)]


ROWS = {
    "grid_float_n": (lambda: GridSpec(1, 16.0, 1.0), ConfigurationError),
    "grid_inf_period": (lambda: GridSpec(1, 16, np.inf), ConfigurationError),
    "grid_nan_origin": (lambda: GridSpec(1, 16, 1.0, origin=np.nan), ConfigurationError),
    "grid_inf_origin": (lambda: GridSpec(1, 16, 1.0, origin=-np.inf), ConfigurationError),
    "density_all_nan": (lambda: DensityField(GRID, np.full(16, np.nan)), DomainError),
    "density_one_inf": (lambda: DensityField(GRID, inf_at(3, np.ones(16))), DomainError),
    "density_normalized_nan": (
        lambda: DensityField.normalized(GRID, nan_at(0, np.ones(16))), DomainError),
    "potential_all_nan": (lambda: PotentialField(GRID, np.full(16, np.nan)), DomainError),
    "potential_projected_inf": (
        lambda: PotentialField.projected(GRID, inf_at(5, np.zeros(16))), DomainError),
    "elliptic_nan_source": (
        lambda: elliptic_solve(UNIFORM, nan_at(2, np.sin(2 * np.pi * GRID.axis()))),
        DomainError),
    "continuity_one_sample": (lambda: continuity(1), InsufficientDataError),
    "continuity_two_samples": (lambda: continuity(2), InsufficientDataError),
    "whf_zero_substeps": (lambda: whf(substeps=0), ConfigurationError),
    "whf_negative_substeps": (lambda: whf(substeps=-2), ConfigurationError),
    "whf_fractional_substeps": (lambda: whf(substeps=1.5), ConfigurationError),
    "whf_bool_substeps": (lambda: whf(substeps=True), ConfigurationError),
    "whf_nan_horizon": (lambda: whf(t_end=np.nan), ConfigurationError),
    "whf_negative_horizon": (lambda: whf(t_end=-1.0), ConfigurationError),
    "bridge_nan_horizon": (lambda: bridge(np.nan), ConfigurationError),
    "bridge_negative_horizon": (lambda: bridge(-1.0), ConfigurationError),
    "bridge_nan_dt": (lambda: bridge(dt=np.nan), ConfigurationError),
    "bridge_zero_dt": (lambda: bridge(dt=0.0), ConfigurationError),
    "wz_eval_nan": (lambda: noise.wz_eval(MESH, np.nan), DomainError),
    "wz_eval_nan_in_array": (lambda: noise.wz_eval(MESH, [0.5, np.nan]), DomainError),
    "wz_flow_fractional_substeps": (lambda: wz_flow(1.5), ConfigurationError),
    "jacobian_fractional_substeps": (lambda: jacobian(substeps=1.5), ConfigurationError),
    "mc_fractional_substeps": (lambda: monte_carlo(1.5), ConfigurationError),
    "jacobian_zero_refine": (lambda: jacobian(refine_factor=0), ConfigurationError),
    "jacobian_negative_refine": (lambda: jacobian(refine_factor=-1), ConfigurationError),
    "jacobian_fractional_refine": (lambda: jacobian(refine_factor=1.5), ConfigurationError),
    "fit_nan_error": (lambda: fit_order(FIT[:2] + [(0.0625, np.nan)]), DomainError),
    "fit_inf_delta": (lambda: fit_order([(np.inf, 0.4)] + FIT[1:]), DomainError),
    "fit_one_distinct_delta": (
        lambda: fit_order([(0.25, 0.2), (0.25, 0.1), (0.25, 0.05)]), ConfigurationError),
    "wilson_successes_above_n": (lambda: wilson_interval(5, 2), ConfigurationError),
    "wilson_negative_successes": (lambda: wilson_interval(-1, 2), ConfigurationError),
    "hamiltonian_zero_dim": (lambda: phase.HamiltonianSpec(dim=0), ConfigurationError),
    "brownian_inf_horizon": (lambda: noise.sample_brownian(0, np.inf, 3), DomainError),
    "brownian_nan_horizon": (lambda: noise.sample_brownian(0, np.nan, 3), DomainError),
    "dispersion_nan_epsilon": (
        lambda: noise.DispersionDriver(1, 1, np.nan, 1, 0), ConfigurationError),
    "dispersion_nan_scale": (
        lambda: noise.DispersionDriver(1, np.nan, 0.5, 1, 0), ConfigurationError),
    "dispersion_integral_nan": (
        lambda: noise.dispersion_integral(noise.DispersionDriver(1, 1, 0.5, 1, 0), np.nan, 0.5),
        DomainError),
}


@pytest.mark.parametrize("case", list(ROWS))
def test_typed_error(case):
    call, error = ROWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the check comes before any arithmetic on the input
        with pytest.raises(error):
            call()


@pytest.mark.parametrize("dimension", [0, 2, 3])
def test_grid_is_one_dimensional(dimension):
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        GridSpec(dimension, 16, 1.0)
