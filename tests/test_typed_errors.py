"""Unsupported inputs to the grid, field and march entry points raise typed
errors: one (call, error class) row per case."""

import numpy as np
import pytest

from wzflow import noise
from wzflow.bridge import BridgeSpec, bridge_flow
from wzflow.density import WhfSpec, continuity_residual, elliptic_solve, whf_evolve
from wzflow.errors import ConfigurationError, DomainError, InsufficientDataError
from wzflow.fields import DensityField, GridSpec, PotentialField, VelocityField

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
}


@pytest.mark.parametrize("case", list(ROWS))
def test_typed_error(case):
    call, error = ROWS[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("dimension", [0, 2, 3])
def test_grid_is_one_dimensional(dimension):
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        GridSpec(dimension, 16, 1.0)
