"""Unsupported inputs to the public entry points (grids, fields, noise,
marches and study statistics) raise typed errors: one (call, error class)
row per case, or (call, error class, pattern) where the message must name
the argument."""

import warnings

import numpy as np
import pytest

from wzflow import noise, phase
from wzflow.bridge import (
    BridgeSpec, bridge_flow, bridge_hamiltonian, bridge_step, fb_residual, hopf_cole,
    hopf_cole_inverse,
)
from wzflow.density import (
    Functional, WhfSpec, continuity_residual, elliptic_solve, fisher_and_bohm,
    generalized_whf_step, pushforward_jacobian, pushforward_mc, whf_evolve,
)
from wzflow.errors import (
    CapacityError, ConfigurationError, DomainError, EvaluationError, InsufficientDataError,
    StabilityError, SupportError,
)
from wzflow.fields import DensityField, GridSpec, PotentialField, VelocityField, resample
from wzflow.studies import (
    bootstrap_rms_ci, fit_order, probability_convergence_study, strong_convergence_study,
    wilson_interval,
)
from wzflow.snls import NlsSpec, WaveField, evolve, madelung, wz_convergence_study
from wzflow.vlasov import (
    PhaseEnsemble, TestFunction, weak_residual_first_order, weak_residual_second_order,
)

GRID = GridSpec(1, 16, 1.0)
UNIFORM = DensityField(GRID, np.ones(16))
MESH = noise.WongZakaiMesh(noise.sample_brownian(seed=1, T=1.0, level=3), 0.25)
ZERO_PHI = PotentialField(GRID, np.zeros(16))
# a density with one zero entry, below the positivity floor
HOLE = DensityField.normalized(GRID, np.where(np.arange(16) == 3, 0.0, 1.0))


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
    return whf_evolve(UNIFORM, ZERO_PHI, MESH, WhfSpec(), substeps, t_end)


def whf_potential(values):
    return whf_evolve(UNIFORM, ZERO_PHI, MESH, WhfSpec(Functional(potential=values)), 4)


def bridge(T=0.5, dt=0.0625, rho0=UNIFORM):
    zero = lambda x: np.zeros_like(x)
    return bridge_flow(BridgeSpec(GRID, zero, zero, MESH, rho0, ZERO_PHI), T, dt)


def bridge_spec(a_value=0.0, da_value=0.0, a=None, da=None):
    a = (lambda x: np.full_like(x, a_value)) if a is None else a
    da = (lambda x: np.full_like(x, da_value)) if da is None else da
    return BridgeSpec(GRID, a, da, MESH, UNIFORM, ZERO_PHI)


# a potential whose first RK4 stages overflow, so the step goes non-finite
OVERFLOW = WhfSpec(Functional(potential=lambda x: 1e300 * np.cos(2 * np.pi * x)))


def whf_overflow_study():
    payload = {"rho0": UNIFORM, "phi0": ZERO_PHI, "wspec": OVERFLOW}
    return strong_convergence_study("wasserstein.generalized", payload, [0.25, 0.125, 0.0625],
                                    3, 0.5, None)


def bridge_overflow():
    # dt = 2**-8 is inside both stability bounds; da = 1e300 cos overflows the stages
    return bridge_step(UNIFORM, ZERO_PHI, 1.0,
                       bridge_spec(da=lambda x: 1e300 * np.cos(2 * np.pi * x)), 2.0 ** -8)


def bridge_residual(nu):
    spec = bridge_spec()
    return fb_residual(bridge_flow(spec, 2.0 ** -5, 2.0 ** -8), spec, nu=nu)


F, DF, D2F = phase.scalar_potential(lambda x: 0.5 * x ** 2, lambda x: x, np.ones_like)
S, DS, D2S = phase.scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
# Hessians supplied, as the Jacobian push-forward needs
HARMONIC = phase.HamiltonianSpec(1, F, DF, S, DS, eta=0.5, d2f=D2F, d2sigma=D2S)


def wz_flow(substeps, spec=HARMONIC):
    return phase.wz_flow(spec, phase.PhaseState(np.zeros((1, 1)), np.ones((1, 1))),
                         MESH, substeps)


def reassigned(**fields):
    """HARMONIC's fields with some reassigned after construction."""
    spec = phase.HamiltonianSpec(1, F, DF, S, DS, eta=0.5, d2f=D2F, d2sigma=D2S)
    for name, value in fields.items():
        setattr(spec, name, value)
    return spec


def jacobian(substeps=8, det_threshold=1e-6):
    return pushforward_jacobian(HARMONIC, UNIFORM, MESH, 0.5, substeps_per_cell=substeps,
                                det_threshold=det_threshold)


def variational():
    return phase.variational_flow(HARMONIC, phase.PhaseState(np.zeros(1), np.ones(1)), MESH)


def monte_carlo(substeps=8, n_particles=1000, seed=0):
    return pushforward_mc(HARMONIC, UNIFORM, MESH, 0.5, n_particles, seed=seed,
                          substeps_per_cell=substeps)


def dispersion(seed=0):
    return noise.DispersionDriver(1.0, 1.0, 0.5, 1.0, seed)


WAVE = WaveField(GRID, np.ones(16, dtype=complex))


def snls_study(n_paths=1, seed=0):
    modes = ((np.cos, lambda x: -np.sin(x)),)
    return wz_convergence_study(1.0, lambda s: s, lambda s: 0.5 * s ** 2, modes, WAVE, 1.0,
                                [0.5, 0.25, 0.125], 2.0 ** -6, n_paths, seed)


FIT = [(0.25, 0.2), (0.125, 0.1), (0.0625, 0.05)]
STUDY = {"spec": HARMONIC, "state0": phase.PhaseState([0.0], [1.0])}


def strong(M=3, substeps=2, n_bootstrap=10, seed=0, spec=HARMONIC):
    return strong_convergence_study("phase_flow", dict(STUDY, spec=spec), [0.25, 0.125, 0.0625],
                                    M, 1.0, 2.0 ** -7, seed=seed, substeps_per_cell=substeps,
                                    n_bootstrap=n_bootstrap)


def probability(M=100, substeps=2, eps_list=(0.1,)):
    return probability_convergence_study("phase_flow", STUDY, [0.25, 0.125, 0.0625], eps_list,
                                         M, 1.0, 2.0 ** -7, substeps_per_cell=substeps)


def bootstrap(samples, n_bootstrap=10):
    return bootstrap_rms_ci(np.asarray(samples), n_bootstrap, np.random.default_rng(0))


def kinetic(n_replications=30, n_bootstrap=10, seed=0):
    ensemble = PhaseEnsemble(np.zeros((5, 1)), np.ones((5, 1)))
    return weak_residual_second_order(HARMONIC, ensemble, n_replications, 0.125,
                                      [0.0, 0.125, 0.25], seed=seed, n_bootstrap=n_bootstrap)


def first_order(battery):
    ensembles = [PhaseEnsemble(np.zeros((5, 1)), np.ones((5, 1)), time=t)
                 for t in (0.0, 0.125, 0.25)]
    return weak_residual_first_order(HARMONIC, ensembles, MESH, battery=battery)


def kinetic_battery(battery):
    ensemble = PhaseEnsemble(np.zeros((5, 1)), np.ones((5, 1)))
    return weak_residual_second_order(HARMONIC, ensemble, 30, 0.125, [0.0, 0.125, 0.25],
                                      seed=0, battery=battery, n_bootstrap=10)


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
    "mc_fractional_particles": (lambda: monte_carlo(n_particles=1000.5), ConfigurationError,
                                "n_particles"),
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
    "strong_fractional_M": (lambda: strong(M=2.5), ConfigurationError, "M = "),
    "strong_negative_M": (lambda: strong(M=-1), ConfigurationError, "M = "),
    "strong_float_substeps": (lambda: strong(substeps=2.0), ConfigurationError,
                              "substeps_per_cell"),
    "strong_odd_substeps": (lambda: strong(substeps=3), ConfigurationError, "substeps_per_cell"),
    "strong_fractional_bootstrap": (lambda: strong(n_bootstrap=2.5), ConfigurationError,
                                    "n_bootstrap"),
    "probability_fractional_M": (lambda: probability(M=100.5), ConfigurationError, "M = "),
    "probability_float_substeps": (lambda: probability(substeps=2.0), ConfigurationError,
                                   "substeps_per_cell"),
    "probability_odd_substeps": (lambda: probability(substeps=3), ConfigurationError,
                                 "substeps_per_cell"),
    "bootstrap_nan_sample": (lambda: bootstrap([1.0, np.nan]), DomainError),
    "bootstrap_inf_sample": (lambda: bootstrap([1.0, np.inf]), DomainError),
    "bootstrap_fractional_count": (lambda: bootstrap([1.0, 2.0], 2.5), ConfigurationError,
                                   "n_bootstrap"),
    "brownian_fractional_level": (lambda: noise.sample_brownian(0, 1.0, 2.5), ConfigurationError,
                                  "level"),
    "brownian_nan_level": (lambda: noise.sample_brownian(0, 1.0, np.nan), ConfigurationError,
                           "level"),
    "brownian_bool_level": (lambda: noise.sample_brownian(0, 1.0, True), ConfigurationError,
                            "level"),
    "brownian_fractional_d_B": (lambda: noise.sample_brownian(0, 1.0, 3, d_B=1.5),
                                ConfigurationError, "d_B"),
    "kinetic_fractional_replications": (lambda: kinetic(n_replications=30.5),
                                        ConfigurationError, "n_replications"),
    "kinetic_nan_replications": (lambda: kinetic(n_replications=np.nan), ConfigurationError,
                                 "n_replications"),
    "kinetic_fractional_bootstrap": (lambda: kinetic(n_bootstrap=2.5), ConfigurationError,
                                     "n_bootstrap"),
    "brownian_negative_seed": (lambda: noise.sample_brownian(-1, 1.0, 3), ConfigurationError,
                               "seed"),
    "brownian_nan_seed": (lambda: noise.sample_brownian(np.nan, 1.0, 3), ConfigurationError,
                          "seed"),
    "brownian_fractional_seed": (lambda: noise.sample_brownian(1.5, 1.0, 3), ConfigurationError,
                                 "seed"),
    "dispersion_negative_seed": (lambda: dispersion(seed=-1), ConfigurationError, "seed"),
    "dispersion_nan_seed": (lambda: dispersion(seed=np.nan), ConfigurationError, "seed"),
    "mc_negative_seed": (lambda: monte_carlo(seed=-1), ConfigurationError, "seed"),
    "mc_nan_seed": (lambda: monte_carlo(seed=np.nan), ConfigurationError, "seed"),
    "strong_negative_seed": (lambda: strong(seed=-1), ConfigurationError, "seed"),
    "kinetic_negative_seed": (lambda: kinetic(seed=-1), ConfigurationError, "seed"),
    "snls_study_negative_seed": (lambda: snls_study(seed=-1), ConfigurationError, "seed"),
    "snls_study_fractional_paths": (lambda: snls_study(n_paths=2.5), ConfigurationError,
                                    "n_paths"),
    "snls_study_bool_paths": (lambda: snls_study(n_paths=True), ConfigurationError, "n_paths"),
    "elliptic_below_floor": (lambda: elliptic_solve(HOLE, np.sin(2 * np.pi * GRID.axis())),
                             SupportError, "positivity floor"),
    "fisher_below_floor": (lambda: fisher_and_bohm(HOLE), SupportError, "positivity floor"),
    "hopf_cole_below_floor": (lambda: hopf_cole(HOLE, np.zeros(16)), SupportError,
                              "positivity floor"),
    "hopf_cole_inverse_below_floor": (lambda: hopf_cole_inverse(HOLE, ZERO_PHI), SupportError,
                                      "positivity floor"),
    "bridge_spec_below_floor": (lambda: bridge(rho0=HOLE), SupportError, "positivity floor"),
    "bridge_hamiltonian_below_floor": (lambda: bridge_hamiltonian(HOLE, ZERO_PHI), SupportError,
                                       "positivity floor"),
    "bridge_spec_nan_da": (lambda: bridge_spec(da_value=np.nan), ConfigurationError,
                           r"coupling da\(x\)"),
    "bridge_spec_nan_a": (lambda: bridge_spec(a_value=np.nan), ConfigurationError,
                          r"coupling a\(x\)"),
    "whf_potential_too_long": (lambda: whf_potential(np.zeros(5)), ConfigurationError,
                               "potential array"),
    "whf_potential_one_entry": (lambda: whf_potential(np.zeros(1)), ConfigurationError,
                                "potential array"),
    "hamiltonian_sphere_domain": (lambda: phase.HamiltonianSpec(1, domain="sphere"),
                                  ConfigurationError, "domain"),
    "hamiltonian_zero_period": (lambda: phase.HamiltonianSpec(1, domain="torus", period=0.0),
                                ConfigurationError, "period"),
    "jacobian_nan_det_threshold": (lambda: jacobian(det_threshold=np.nan), ConfigurationError,
                                   "det_threshold"),
    "diffeo_loss_nan_det_threshold": (
        lambda: phase.diffeo_loss_time(variational(), det_threshold=np.nan), ConfigurationError,
        "det_threshold"),
    "test_function_zero_length": (lambda: TestFunction("sin", 1, length=0.0),
                                  ConfigurationError, "length"),
    "snls_evolve_over_node_cap": (
        lambda: evolve(NlsSpec(1.0, lambda s: s, lambda s: 0.5 * s ** 2), WAVE, 1e300, 1.0),
        CapacityError, "node cap"),
    "madelung_nan_threshold": (lambda: madelung(WAVE, np.nan), ConfigurationError,
                               "support_threshold"),
    "madelung_inf_threshold": (lambda: madelung(WAVE, np.inf), ConfigurationError,
                               "support_threshold"),
    "whf_potential_callable_too_long": (lambda: whf_potential(lambda x: np.zeros(5)),
                                        ConfigurationError, r"potential values of shape \(5,\)"),
    "bridge_spec_a_too_long": (lambda: bridge_spec(a=lambda x: np.zeros(5)), ConfigurationError,
                               r"coupling a\(x\) of shape \(5,\)"),
    "bridge_spec_da_too_long": (lambda: bridge_spec(da=lambda x: np.zeros((2, 16))),
                                ConfigurationError, r"coupling da\(x\) of shape \(2, 16\)"),
    "wz_flow_reassigned_domain": (
        lambda: wz_flow(2, reassigned(domain="sphere", period=0.0)), ConfigurationError,
        "domain"),
    "wz_flow_reassigned_period": (
        lambda: wz_flow(2, reassigned(domain="torus", period=0.0)), ConfigurationError,
        "period"),
    "strong_reassigned_domain": (lambda: strong(spec=reassigned(domain="sphere")),
                                 ConfigurationError, "domain"),
    "test_function_fractional_power": (lambda: TestFunction("sin", 1.5), ConfigurationError,
                                       "power"),
    "test_function_float_power": (lambda: TestFunction("sin", 2.0), ConfigurationError, "power"),
    "test_function_bool_power": (lambda: TestFunction("sin", True), ConfigurationError, "power"),
    "first_order_empty_battery": (lambda: first_order([]), ConfigurationError, "battery"),
    "second_order_empty_battery": (lambda: kinetic_battery([]), ConfigurationError, "battery"),
    "whf_step_overflow": (lambda: generalized_whf_step(UNIFORM, ZERO_PHI, 0.0, OVERFLOW, 0.01),
                          StabilityError, "non-finite"),
    "whf_evolve_overflow": (lambda: whf_evolve(UNIFORM, ZERO_PHI, MESH, OVERFLOW, 4),
                            StabilityError, "non-finite"),
    "bridge_step_overflow": (bridge_overflow, StabilityError, "non-finite"),
    "whf_study_overflow": (whf_overflow_study, EvaluationError, "more than 20% of paths"),
    "fb_residual_nan_nu": (lambda: bridge_residual(np.nan), ConfigurationError, "nu = "),
    "fb_residual_inf_nu": (lambda: bridge_residual(np.inf), ConfigurationError, "nu = "),
    "probability_nan_eps": (lambda: probability(eps_list=[0.1, np.nan]), ConfigurationError,
                            "eps_list"),
    "probability_empty_eps": (lambda: probability(eps_list=[]), ConfigurationError, "eps_list"),
    "resample_nan_points": (lambda: resample(GRID, np.ones(16), [0.5, np.nan]), DomainError,
                            "points"),
    "resample_inf_points": (lambda: resample(GRID, np.ones(16), [np.inf]), DomainError,
                            "points"),
}


@pytest.mark.parametrize("case", list(ROWS))
def test_typed_error(case):
    call, error, *pattern = ROWS[case]
    with warnings.catch_warnings():
        # the check comes before any arithmetic on the input, or the arithmetic is guarded
        warnings.simplefilter("error")
        with pytest.raises(error, match=pattern[0] if pattern else None):
            call()


@pytest.mark.parametrize("dimension", [0, 2, 3])
def test_grid_is_one_dimensional(dimension):
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        GridSpec(dimension, 16, 1.0)
