"""The argument contract, swept over every public function of the eight
modules: each positional argument of a valid call is replaced in turn by
None, a string, a bare object, a (2, 2) array and a list of strings. The
call must raise ConfigurationError naming that argument, or, where the
argument's annotation admits the value (None where it is Optional, a string
where it is str, an array where it is np.ndarray), succeed or raise the
WzflowError of a value rule. The public functions are enumerated, not listed, so a function
without a valid call here fails the sweep. The benchmark tracer wraps only
plain functions of their own module, so the contracted ones must stay so."""

import importlib
import inspect
import re
import typing

from collections.abc import Sequence

import numpy as np
import pytest

from wzflow import bridge, density, noise, phase, snls, studies, vlasov
from wzflow.errors import ConfigurationError, WzflowError
from wzflow.fields import DensityField, GridSpec, PotentialField, VelocityField

MODULES = ("bridge", "density", "fields", "noise", "phase", "snls", "studies", "vlasov")

WRONG = {"None": None, "str": "abc", "object": object(), "array": np.ones((2, 2)),
         "strings": ["a", "b", "c"]}


def public_functions():
    """module.name -> function, for every public function the eight modules define."""
    out = {}
    for m in MODULES:
        module = importlib.import_module(f"wzflow.{m}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and not name.startswith("_"):
                out[f"{m}.{name}"] = fn
    return out


PUBLIC = public_functions()

GRID = GridSpec(1, 16, 1.0)
X = GRID.axis()
UNIFORM = DensityField(GRID, np.ones(16))
ZERO_PHI = PotentialField(GRID, np.zeros(16))
SOURCE = np.sin(2 * np.pi * X)
PATH = noise.sample_brownian(1, 1.0, 3)
MESH = noise.WongZakaiMesh(PATH, 0.25)
F, DF, D2F = phase.scalar_potential(lambda x: 0.5 * x ** 2, lambda x: x, np.ones_like)
S, DS, D2S = phase.scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
HARMONIC = phase.HamiltonianSpec(1, F, DF, S, DS, eta=0.5, d2f=D2F, d2sigma=D2S)
STATE = phase.PhaseState(np.zeros(1), np.ones(1))
ZERO = lambda x: np.zeros_like(x)
BRIDGE = bridge.BridgeSpec(GRID, ZERO, ZERO, MESH, UNIFORM, ZERO_PHI)
ENSEMBLE = vlasov.PhaseEnsemble(np.zeros(5), np.ones(5))
ENSEMBLES = [vlasov.PhaseEnsemble(np.zeros(5), np.ones(5), time=t) for t in (0.0, 0.125, 0.25)]
WAVE = snls.WaveField(GRID, np.ones(16, dtype=complex))
NLS = snls.NlsSpec(1.0, lambda s: s, lambda s: 0.5 * s ** 2)
STUDY = {"spec": HARMONIC, "state0": phase.PhaseState([0.0], [1.0])}
DELTAS = [0.25, 0.125, 0.0625]


def valid_calls():
    """module.name -> the positional arguments of one valid call; the
    writers write to the working directory."""
    rng = np.random.default_rng(0)
    report = studies.strong_convergence_study("phase_flow", STUDY, DELTAS, 3, 1.0, 2.0 ** -7,
                                              0, 2)
    return {
        "bridge.hopf_cole": (UNIFORM, np.zeros(16)),
        "bridge.hopf_cole_inverse": (UNIFORM, ZERO_PHI),
        "bridge.bridge_step": (UNIFORM, ZERO_PHI, 0.0, BRIDGE, 2.0 ** -8),
        "bridge.bridge_flow": (BRIDGE, 2.0 ** -5, 2.0 ** -8),
        "bridge.bridge_hamiltonian": (UNIFORM, ZERO_PHI),
        "bridge.fb_residual": (bridge.bridge_flow(BRIDGE, 2.0 ** -5, 2.0 ** -8), BRIDGE, None,
                               0.5),
        "density.elliptic_solve": (UNIFORM, SOURCE),
        "density.wasserstein_metric": (UNIFORM, SOURCE, np.cos(2 * np.pi * X)),
        "density.fisher_and_bohm": (UNIFORM,),
        "density.pushforward_jacobian": (HARMONIC, UNIFORM, MESH, 0.5, None, 1e-6, 2),
        "density.sample_density": (UNIFORM, 10, rng),
        "density.pushforward_mc": (HARMONIC, UNIFORM, MESH, 0.5, 1000, 0, None, 2),
        "density.generalized_whf_step": (UNIFORM, ZERO_PHI, 0.0, density.WhfSpec(), 0.01),
        "density.whf_energy": (UNIFORM, ZERO_PHI, density.WhfSpec()),
        "density.whf_evolve": (UNIFORM, ZERO_PHI, MESH, density.WhfSpec(), 2, None),
        "density.el_residual": ([UNIFORM] * 5, 0.125 * np.arange(5), MESH, density.WhfSpec()),
        "density.trig_test_battery": (GRID,),
        "density.continuity_residual": ([UNIFORM] * 3, [VelocityField(GRID, np.zeros(16))] * 3,
                                        0.125 * np.arange(3)),
        "fields.gradient": (GRID, SOURCE),
        "fields.divergence": (GRID, SOURCE),
        "fields.laplacian": (GRID, SOURCE),
        "fields.bohm": (GRID, np.ones(16), 1e-10),
        "fields.dealias": (GRID, SOURCE),
        "fields.resample": (GRID, SOURCE, np.array([0.5, 0.25])),
        "fields.field_to_csv": (UNIFORM, "field.csv"),
        "noise.dyadic_level": (1.0, 0.25),
        "noise.grid_index": (0.5, 0.25, 4),
        "noise.uniform_step": (0.125 * np.arange(3), [1, 2, 3]),
        "noise.centered_rate": (np.ones((3, 2)), 0.1),
        "noise.fit_order": ([(0.25, 0.2), (0.125, 0.1), (0.0625, 0.05)],),
        "noise.percentile_interval": (np.ones((4, 2)),),
        "noise.cell_slopes": (MESH, np.array([0.0, 0.5])),
        "noise.sample_brownian": (1, 1.0, 3, 1),
        "noise.refine": (PATH,),
        "noise.refine_blocks": (PATH, 4),
        "noise.wz_eval": (MESH, 0.5),
        "noise.dispersion_integral": (noise.DispersionDriver(1.0, 1.0, 0.5, 1.0, 0), 0.0, 0.5),
        "phase.scalar_potential": (np.sin, np.cos, None),
        "phase.wz_flow": (HARMONIC, STATE, MESH, 2),
        "phase.strat_flow": (HARMONIC, STATE, PATH, 0.125),
        "phase.variational_flow": (HARMONIC, STATE, MESH, None, 2, None),
        "phase.diffeo_loss_time": (phase.variational_flow(HARMONIC, STATE, MESH, None, 2), 1e-3),
        "phase.growth_diagnostic": (HARMONIC, [STATE], 1.0, 1.0),
        "phase.energy_expansion_check": (HARMONIC, phase.wz_flow(HARMONIC, STATE, MESH, 2), MESH),
        "snls.step": (NLS, WAVE, 0.0, 0.125),
        "snls.evolve": (NLS, WAVE, 0.25, 0.125, None),
        "snls.energy": (NLS, WAVE),
        "snls.madelung": (WAVE, 1e-6),
        "snls.madelung_residual": ([WAVE] * 3, NLS, 0.125 * np.arange(3)),
        "snls.wz_convergence_study": (1.0, lambda s: s, lambda s: 0.5 * s ** 2,
                                      ((np.cos, lambda x: -np.sin(x)),), WAVE, 1.0,
                                      [0.5, 0.25, 0.125], 2.0 ** -6, 1, 0),
        "snls.wave_to_csv": (WAVE, "wave.csv"),
        "studies.bootstrap_rms_ci": (np.ones(4), 10, rng),
        "studies.strong_convergence_study": ("phase_flow", STUDY, DELTAS, 3, 1.0, 2.0 ** -7, 0,
                                             2),
        "studies.wilson_interval": (3, 10),
        "studies.probability_convergence_study": ("phase_flow", STUDY, DELTAS, (0.1,), 100, 1.0,
                                                  2.0 ** -7, 0, 2),
        "studies.report_to_csv": (report, "report.csv"),
        "studies.report_to_json": (report, "report.json"),
        "vlasov.default_battery": (2 * np.pi,),
        "vlasov.evolve_conditional": (HARMONIC, ENSEMBLE, MESH, 2, [0.0, 0.25]),
        "vlasov.weak_residual_first_order": (HARMONIC, ENSEMBLES, MESH, None),
        "vlasov.weak_residual_second_order": (HARMONIC, ENSEMBLE, 30, 0.125, [0.0, 0.125, 0.25],
                                              0, None, True),
        "vlasov.residual_table_to_csv": (
            vlasov.weak_residual_first_order(HARMONIC, ENSEMBLES, MESH), "residuals.csv"),
    }


def admits(hint, value) -> bool:
    """Whether the annotation admits one of the WRONG values: None where it
    is Optional, the string where it is str, the array where it is
    np.ndarray and the list where it is a Sequence of anything."""
    options = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
    kind = next((k for k in (type(None), str, np.ndarray, list) if isinstance(value, k)), None)
    return kind in options or kind is list and Sequence in options


def names(message: str, argument: str) -> bool:
    """Whether an error message names the argument, in code or in prose."""
    return re.search(r"\b" + argument.replace("_", "[_ ]") + r"\b", message) is not None


def sweep(fn, args):
    """(argument, label, outcome) of every call that breaks the contract:
    a value the annotation does not admit must raise ConfigurationError
    naming the argument, and one it admits may also return or raise another
    WzflowError of the value rules. ``outcome`` is the exception raised, or
    "returned"."""
    params = inspect.signature(fn).parameters.values()
    positional = [p.name for p in params if p.kind == p.POSITIONAL_OR_KEYWORD]
    star = [p.name for p in params if p.kind == p.VAR_POSITIONAL]  # *args, if any
    hints = typing.get_type_hints(fn)
    broken = []
    for i in range(len(args)):
        name = positional[i] if i < len(positional) else star[0]
        for label, value in WRONG.items():
            try:
                fn(*args[:i], value, *args[i + 1:])
                outcome = None
            except Exception as e:  # every outcome is judged below
                outcome = e
            named = isinstance(outcome, ConfigurationError) and names(str(outcome), name)
            typed = outcome is None or isinstance(outcome, WzflowError)
            if not (named or typed and admits(hints[name], value)):
                broken.append((name, label, outcome or "returned"))
    return broken


@pytest.fixture(scope="module")
def calls():
    return valid_calls()


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_wrong_argument_raises_configuration_error_naming_it(name, calls, tmp_path,
                                                            monkeypatch):
    assert name in calls, f"{name} has no valid call in this sweep"
    monkeypatch.chdir(tmp_path)
    PUBLIC[name](*calls[name])  # the call itself is valid
    assert sweep(PUBLIC[name], calls[name]) == []


def test_the_sweep_covers_every_public_function_and_no_other(calls):
    assert sorted(calls) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_contracted_function_stays_a_plain_function_of_its_module(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"wzflow.{module}"), attr)
    assert inspect.isfunction(fn) and inspect.isfunction(fn.__wrapped__)
    assert fn.__module__ == fn.__wrapped__.__module__ == f"wzflow.{module}"
    assert fn.__name__ == attr

