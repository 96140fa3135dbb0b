"""Unsupported inputs to the public entry points (grids, fields, noise,
marches and study statistics) raise typed errors: one (call, error class)
row per case, or (call, error class, pattern) where the message must name
the argument."""

import warnings

import numpy as np
import pytest

from wzflow import noise, phase, snls, studies
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
from wzflow.snls import (
    NlsSpec, WaveField, evolve, madelung, madelung_residual, step, wz_convergence_study,
)
from wzflow.vlasov import (
    PhaseEnsemble, TestFunction, evolve_conditional, weak_residual_first_order,
    weak_residual_second_order,
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
# a finite Phi and noise coupling whose stability bound |1 + eta xi'| max|grad Phi| overflows
STEEP_PHI = PotentialField.projected(GRID, 1e306 * np.sin(2 * np.pi * GRID.axis()))
LOUD = WhfSpec(eta=1e5)


def whf_overflow_study():
    payload = {"rho0": UNIFORM, "phi0": ZERO_PHI, "wspec": OVERFLOW}
    return strong_convergence_study("wasserstein.generalized", payload, [0.25, 0.125, 0.0625],
                                    3, 0.5, None)


def bridge_overflow():
    # dt = 2**-8 is inside both stability bounds; da = 1e300 cos overflows the stages
    return bridge_step(UNIFORM, ZERO_PHI, 1.0,
                       bridge_spec(da=lambda x: 1e300 * np.cos(2 * np.pi * x)), 2.0 ** -8)


def whf_bound_overflow_study():
    payload = {"rho0": UNIFORM, "phi0": STEEP_PHI, "wspec": LOUD}
    return strong_convergence_study("wasserstein.generalized", payload, [0.25, 0.125, 0.0625],
                                    3, 0.5, None)


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


def jacobian(substeps=8, det_threshold=1e-6, v0=None):
    return pushforward_jacobian(HARMONIC, UNIFORM, MESH, 0.5, v0=v0, substeps_per_cell=substeps,
                                det_threshold=det_threshold)


def variational():
    return phase.variational_flow(HARMONIC, phase.PhaseState(np.zeros(1), np.ones(1)), MESH)


def monte_carlo(substeps=8, n_particles=1000, seed=0, v0=None):
    return pushforward_mc(HARMONIC, UNIFORM, MESH, 0.5, n_particles, seed=seed, v0=v0,
                          substeps_per_cell=substeps)


# velocities on a finer grid and on a longer period than GRID's
FINE_V0 = VelocityField(GridSpec(1, 32, 1.0), np.zeros(32))
LONG_V0 = VelocityField(GridSpec(1, 16, 2.0), np.zeros(16))


def dispersion(seed=0):
    return noise.DispersionDriver(1.0, 1.0, 0.5, 1.0, seed)


WAVE = WaveField(GRID, np.ones(16, dtype=complex))


def no_step(s):
    raise AssertionError("the march took a step before it raised")


def snls_march(driver, T, dt, f=no_step):
    """evolve on MESH's path (T = 1, nodes and noise cells of width 0.125
    and 0.25) or a dispersion driver with T_outer = 1, by default with a
    nonlinearity that fails the row if a step runs."""
    noise_data = {"none": {},
                  "wz_potential": dict(wiener=noise.WienerField(((np.cos, np.sin),), MESH.base),
                                       delta=MESH.delta),
                  "white_dispersion": dict(brownian=MESH.base),
                  "random_dispersion": dict(dispersion=dispersion())}[driver]
    return evolve(NlsSpec(1.0, f, lambda s: 0.5 * s ** 2, driver, **noise_data), WAVE, T, dt)


def infinite_phase_march(driver):
    """snls_march whose kick phase lam f dt is +inf at the first step."""
    return snls_march(driver, 1.0, 0.125, lambda s: np.full_like(s, np.inf))


def snls_step(driver, t, dt):
    spec = NlsSpec(1.0, no_step, lambda s: 0.5 * s ** 2, driver,
                   dispersion=dispersion() if driver == "random_dispersion" else None)
    return step(spec, WAVE, t, dt)


def conditional(sample_times):
    return evolve_conditional(HARMONIC, PhaseEnsemble(np.zeros(5), np.ones(5)), MESH, 2,
                              sample_times)


def snls_study(n_paths=1, seed=0, u0=WAVE, modes=((np.cos, lambda x: -np.sin(x)),), T=1.0,
               dt=2.0 ** -6):
    return wz_convergence_study(1.0, lambda s: s, lambda s: 0.5 * s ** 2, modes, u0, T,
                                [0.5, 0.25, 0.125], dt, n_paths, seed)


FIT = [(0.25, 0.2), (0.125, 0.1), (0.0625, 0.05)]
STUDY = {"spec": HARMONIC, "state0": phase.PhaseState([0.0], [1.0])}


def strong(M=3, substeps=2, seed=0, spec=HARMONIC, deltas=(0.25, 0.125, 0.0625),
           system="phase_flow", payload=None, T=1.0):
    payload = dict(STUDY, spec=spec) if payload is None else payload
    return strong_convergence_study(system, payload, deltas, M, T, 2.0 ** -7, seed=seed,
                                    substeps_per_cell=substeps)


def probability(M=100, substeps=2, eps_list=(0.1,), deltas=(0.25, 0.125, 0.0625),
                system="phase_flow", T=1.0):
    return probability_convergence_study(system, STUDY, deltas, eps_list,
                                         M, T, 2.0 ** -7, substeps_per_cell=substeps)


def bootstrap(samples, n_bootstrap=10):
    return bootstrap_rms_ci(np.asarray(samples), n_bootstrap, np.random.default_rng(0))


def kinetic(n_replications=30, seed=0):
    ensemble = PhaseEnsemble(np.zeros((5, 1)), np.ones((5, 1)))
    return weak_residual_second_order(HARMONIC, ensemble, n_replications, 0.125,
                                      [0.0, 0.125, 0.25], seed=seed)


def first_order(battery):
    ensembles = [PhaseEnsemble(np.zeros((5, 1)), np.ones((5, 1)), time=t)
                 for t in (0.0, 0.125, 0.25)]
    return weak_residual_first_order(HARMONIC, ensembles, MESH, battery=battery)


def kinetic_battery(battery):
    ensemble = PhaseEnsemble(np.zeros((5, 1)), np.ones((5, 1)))
    return weak_residual_second_order(HARMONIC, ensemble, 30, 0.125, [0.0, 0.125, 0.25],
                                      seed=0, battery=battery)


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
    "probability_fractional_M": (lambda: probability(M=100.5), ConfigurationError, "M = "),
    "probability_float_substeps": (lambda: probability(substeps=2.0), ConfigurationError,
                                   "substeps_per_cell"),
    "probability_odd_substeps": (lambda: probability(substeps=3), ConfigurationError,
                                 "substeps_per_cell"),
    "bootstrap_nan_sample": (lambda: bootstrap([1.0, np.nan]), DomainError),
    "bootstrap_inf_sample": (lambda: bootstrap([1.0, np.inf]), DomainError),
    "bootstrap_fractional_count": (lambda: bootstrap([1.0, 2.0], 2.5), ConfigurationError,
                                   "n_bootstrap"),
    "bootstrap_scalar_sample": (lambda: bootstrap(2.0), ConfigurationError, "samples"),
    "bootstrap_numpy_scalar_sample": (lambda: bootstrap(np.float64(1.0)), ConfigurationError,
                                      "samples"),
    "bootstrap_two_column_samples": (lambda: bootstrap(np.ones((4, 2))), ConfigurationError,
                                     r"samples of shape \(4, 2\)"),
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
    "snls_study_bare_array_u0": (lambda: snls_study(u0=WAVE.values), ConfigurationError, "u0"),
    "snls_study_none_modes": (lambda: snls_study(modes=None), ConfigurationError, "modes"),
    "snls_study_unpaired_mode": (lambda: snls_study(modes=((np.cos,),)), ConfigurationError,
                                 "modes"),
    "snls_study_none_T": (lambda: snls_study(T=None), ConfigurationError, "T/d"),
    "snls_study_none_dt": (lambda: snls_study(dt=None), ConfigurationError, "dt"),
    "strong_none_T": (lambda: strong(T=None), ConfigurationError, "T/d"),
    "probability_none_T": (lambda: probability(T=None), ConfigurationError, "T/d"),
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
    "whf_step_bound_overflow": (
        lambda: generalized_whf_step(UNIFORM, STEEP_PHI, 100.0, LOUD, 0.01), StabilityError,
        "exceeds the stability bound"),
    "whf_step_nan_bound": (  # |1 + eta xi'| * max|grad Phi| = inf * 0
        lambda: generalized_whf_step(UNIFORM, ZERO_PHI, np.inf, WhfSpec(eta=1.0), 0.01),
        StabilityError, "non-finite"),
    "whf_evolve_bound_overflow": (lambda: whf_evolve(UNIFORM, STEEP_PHI, MESH, LOUD, 4),
                                  StabilityError, "exceeds the stability bound"),
    "bridge_step_bound_overflow": (
        lambda: bridge_step(UNIFORM, ZERO_PHI, 1e300, bridge_spec(a_value=1e10), 2.0 ** -8),
        StabilityError, "exceeds the stability bound"),
    "bridge_step_nan_bound": (  # a * xi' = 0 * inf
        lambda: bridge_step(UNIFORM, ZERO_PHI, np.inf, bridge_spec(), 2.0 ** -8),
        StabilityError, "non-finite"),
    "whf_study_bound_overflow": (whf_bound_overflow_study, EvaluationError,
                                 "more than 20% of paths"),
    "hamiltonian_nan_eta": (lambda: phase.HamiltonianSpec(1, eta=np.nan), ConfigurationError,
                            "eta = "),
    "wz_flow_reassigned_eta": (lambda: wz_flow(2, reassigned(eta=np.inf)), ConfigurationError,
                               "eta = "),
    "fb_residual_nan_nu": (lambda: bridge_residual(np.nan), ConfigurationError, "nu = "),
    "fb_residual_inf_nu": (lambda: bridge_residual(np.inf), ConfigurationError, "nu = "),
    "probability_nan_eps": (lambda: probability(eps_list=[0.1, np.nan]), ConfigurationError,
                            "eps_list"),
    "probability_empty_eps": (lambda: probability(eps_list=[]), ConfigurationError, "eps_list"),
    "probability_text_eps": (lambda: probability(eps_list=[0.1, "a"]), ConfigurationError,
                             "eps_list"),
    "resample_nan_points": (lambda: resample(GRID, np.ones(16), [0.5, np.nan]), DomainError,
                            "points"),
    "resample_inf_points": (lambda: resample(GRID, np.ones(16), [np.inf]), DomainError,
                            "points"),
    "resample_f_off_the_grid": (lambda: resample(GRID, np.ones(32), [0.5]), ConfigurationError,
                                "must be real on the grid"),
    "resample_2d_points": (lambda: resample(GRID, np.ones(16), np.zeros((2, 3))),
                           ConfigurationError, "points"),
    "jacobian_v0_on_a_finer_grid": (lambda: jacobian(v0=FINE_V0), ConfigurationError, "v0"),
    "jacobian_v0_on_a_longer_period": (lambda: jacobian(v0=LONG_V0), ConfigurationError, "v0"),
    "mc_v0_on_a_finer_grid": (lambda: monte_carlo(v0=FINE_V0), ConfigurationError, "v0"),
    "mc_v0_on_a_longer_period": (lambda: monte_carlo(v0=LONG_V0), ConfigurationError, "v0"),
    "snls_straddling_step": (lambda: snls_march("wz_potential", 1.0, 0.1), ConfigurationError,
                             "straddles a noise cell"),
    "snls_beyond_the_noise_path": (lambda: snls_march("wz_potential", 2.0, 0.125),
                                   ConfigurationError, "horizon"),
    "snls_white_dt_off_the_nodes": (lambda: snls_march("white_dispersion", 0.5, 0.1),
                                    ConfigurationError, "t=0.1 does not align"),
    "snls_white_beyond_the_noise_path": (lambda: snls_march("white_dispersion", 2.0, 0.125),
                                         ConfigurationError, "outside"),
    "snls_random_beyond_the_horizon": (lambda: snls_march("random_dispersion", 2.0, 0.125),
                                       ConfigurationError, "horizon"),
    "snls_random_nan_time": (lambda: snls_step("random_dispersion", np.nan, 0.125),
                             ConfigurationError, "horizon"),
    "madelung_residual_random_beyond_the_horizon": (
        lambda: madelung_residual([WAVE] * 3, NlsSpec(1.0, no_step, lambda s: 0.5 * s ** 2,
                                                      "random_dispersion",
                                                      dispersion=dispersion()),
                                  [0.5, 1.0, 1.5]),
        ConfigurationError, "horizon"),
    "snls_step_nan_dt": (lambda: snls_step("none", 0.0, np.nan), ConfigurationError, "dt"),
    "snls_step_inf_dt": (lambda: snls_step("none", 0.0, np.inf), ConfigurationError, "dt"),
    "snls_step_none_dt": (lambda: snls_step("none", 0.0, None), ConfigurationError, "dt"),
    "snls_none_infinite_phase": (lambda: infinite_phase_march("none"), EvaluationError,
                                 "non-finite"),
    "snls_wz_potential_infinite_phase": (lambda: infinite_phase_march("wz_potential"),
                                         EvaluationError, "non-finite"),
    "snls_white_infinite_phase": (lambda: infinite_phase_march("white_dispersion"),
                                  EvaluationError, "non-finite"),
    "snls_random_infinite_phase": (lambda: infinite_phase_march("random_dispersion"),
                                   EvaluationError, "non-finite"),
    "conditional_time_off_the_grid": (lambda: conditional([0.0, 0.1]), ConfigurationError,
                                      "t=0.1 does not align"),
    "conditional_nan_time": (lambda: conditional([0.0, np.nan]), ConfigurationError,
                             "not finite"),
    "mc_time_off_the_grid": (
        lambda: pushforward_mc(HARMONIC, UNIFORM, MESH, 0.3, 1000, seed=0), ConfigurationError,
        "t=0.3 does not align"),
    "strong_no_deltas": (lambda: strong(deltas=[]), InsufficientDataError, "delta level"),
    "probability_no_deltas": (lambda: probability(deltas=[]), InsufficientDataError,
                              "delta level"),
    "strong_none_delta": (lambda: strong(deltas=[None, 0.5]), ConfigurationError, "deltas"),
    "strong_text_delta": (lambda: strong(deltas=["a", 0.5]), ConfigurationError, "deltas"),
    "strong_batched_state": (
        lambda: strong(payload=dict(STUDY, state0=phase.PhaseState(np.zeros((2, 1)),
                                                                    np.ones((2, 1))))),
        ConfigurationError, "state0"),
    "strong_payload_without_spec": (lambda: strong(payload={"state0": STUDY["state0"]}),
                                    ConfigurationError, "'spec'"),
    "strong_snls_system": (lambda: strong(system="snls"), ConfigurationError,
                           r"unknown system 'snls'; expected one of \('phase_flow', "
                           r"'wasserstein.generalized'\)"),
    "probability_snls_system": (lambda: probability(system="snls"), ConfigurationError,
                                "unknown system 'snls'"),
    "strong_none_payload": (
        lambda: strong_convergence_study("phase_flow", None, (0.25, 0.125, 0.0625), 3, 1.0,
                                         2.0 ** -7),
        ConfigurationError, "payload"),
    "strong_tuple_state": (lambda: strong(payload=dict(STUDY, state0=([0.3], [0.7]))),
                           ConfigurationError, "state0"),
    "strong_none_spec": (lambda: strong(spec=None), ConfigurationError, "spec"),
    "whf_study_payload_without_wspec": (
        lambda: strong(system="wasserstein.generalized", payload={"rho0": UNIFORM,
                                                                  "phi0": ZERO_PHI}),
        ConfigurationError, "'wspec'"),
    "whf_study_one_delta": (
        lambda: strong(system="wasserstein.generalized", deltas=[0.25],
                       payload={"rho0": UNIFORM, "phi0": ZERO_PHI, "wspec": WhfSpec()}),
        InsufficientDataError, "2 delta levels"),
    "refine_blocks_to_a_coarser_level": (lambda: noise.refine_blocks(MESH.base, 2), DomainError,
                                         "coarser"),
    "second_order_time_off_the_heun_grid": (  # one Heun step of 0.25 spans the sample times
        lambda: weak_residual_second_order(HARMONIC, PhaseEnsemble(np.zeros(5), np.ones(5)), 30,
                                           0.25, [0.0, 0.125, 0.25], seed=0),
        ConfigurationError, "t=0.125 does not align"),
}


@pytest.mark.parametrize("case", list(ROWS))
def test_typed_error(case):
    call, error, *pattern = ROWS[case]
    with warnings.catch_warnings():
        # the check comes before any arithmetic on the input, or the arithmetic is guarded
        warnings.simplefilter("error")
        with pytest.raises(error, match=pattern[0] if pattern else None):
            call()


@pytest.mark.parametrize("case", ["snls_study_unpaired_mode", "snls_study_none_T",
                                  "snls_study_none_dt", "strong_none_T", "probability_none_T"])
def test_study_arguments_are_checked_before_any_path_is_sampled(monkeypatch, case):
    def sample_brownian(*args, **kwargs):
        raise AssertionError("a path was sampled before the arguments were checked")

    monkeypatch.setattr(snls, "sample_brownian", sample_brownian)
    monkeypatch.setattr(studies, "sample_brownian", sample_brownian)
    call, error, pattern = ROWS[case]
    with pytest.raises(error, match=pattern):
        call()


@pytest.mark.parametrize("case,dt", [("whf_step_bound_overflow", 0.01),
                                     ("whf_evolve_bound_overflow", 0.25 / 4),
                                     ("bridge_step_bound_overflow", 2.0 ** -8)])
def test_overflowing_bound_suggests_a_positive_step(case, dt):
    with pytest.raises(StabilityError) as raised:
        ROWS[case][0]()
    assert 0 < raised.value.suggested_dt < dt


@pytest.mark.parametrize("dimension", [0, 2, 3])
def test_grid_is_one_dimensional(dimension):
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        GridSpec(dimension, 16, 1.0)
