"""The CLI config walk against the Draft-7 reference validator.

Each bad config below breaks one or more schema keywords. ``parse_config``
must report the same violations as ``jsonschema.Draft7Validator`` on the
same schema: path for path, in the same sorted order, in the same
``where: message`` form. A second table pins the defaults that
``parse_config`` fills in.
"""

import json
import math
from collections import Counter

import pytest
from jsonschema import Draft7Validator

from wzflow import cli
from wzflow.cli import ConfigError, parse_config

NOISE = {"T": 1.0, "level": 5, "delta": 0.25}
GRID = {"n": 16, "period": 1.0}
CONVERGE = {"deltas": [0.25, 0.125, 0.0625], "M": 4, "T": 1.0}

BAD = [
    # type
    ("flow", {"noise": {"T": "1", "level": 5, "delta": 0.25}}),
    ("flow", {"noise": NOISE, "out": 5}),
    ("flow", {"noise": NOISE, "state0": {"x": 0.3, "p": [0.7]}}),
    ("flow", {"noise": NOISE, "system": "cos"}),
    ("density", {"noise": NOISE, "grid": "big"}),
    ("density", {"noise": NOISE, "rho_amplitude": "0.2"}),
    ("vlasov", {"noise": NOISE, "n_particles": 10.5}),
    ("vlasov", {"noise": [1.0, 5, 0.25]}),
    ("nls", {"T": 1.0, "dt": 0.25, "lam": "x"}),
    ("bridge", {"T": 1.0, "dt": 0.25, "noise": NOISE, "coupling": []}),
    ("converge", dict(CONVERGE, M=None)),
    ("converge", dict(CONVERGE, deltas={"a": 0.1})),
    # an object where the default is not one
    ("converge", dict(CONVERGE, system={"phase_flow": 1}, seed={"a": 1})),
    ("flow", {"noise": NOISE, "substeps_per_cell": {"n": 8}, "state0": {"x": {"0": 1}}}),
    # bool is neither a number nor an integer; 2.5 is not an integer
    ("flow", {"noise": {"T": True, "level": False, "delta": 0.25}}),
    ("flow", {"noise": NOISE, "seed": True, "system": {"eta": False}}),
    ("converge", dict(CONVERGE, M=2.5)),
    ("vlasov", {"noise": NOISE, "substeps_per_cell": 1.5}),
    # enum
    ("flow", {"noise": NOISE, "system": {"potential": "tan", "sigma": 1}}),
    ("flow", {"noise": NOISE, "system": {"domain": "sphere"}}),
    ("density", {"noise": NOISE, "noise_potential": "quadratic"}),
    ("nls", {"T": 1.0, "dt": 0.25, "wave": "soliton", "driver": None}),
    ("converge", dict(CONVERGE, system="bogus", reference="weak")),
    ("converge", dict(CONVERGE, system=["phase_flow"])),
    # minimum / maximum
    ("flow", {"noise": {"T": 1.0, "level": -1, "delta": 0.25}, "seed": -1}),
    ("flow", {"noise": {"T": 1.0, "level": 25, "delta": 0.25}, "substeps_per_cell": 0}),
    ("density", {"noise": NOISE, "grid": {"n": 4, "period": 1.0}, "rho_amplitude": -0.1}),
    ("density", {"noise": NOISE, "rho_amplitude": 0.96}),
    ("vlasov", {"noise": NOISE, "n_particles": 5, "n_samples": 2}),
    ("bridge", {"T": 1.0, "dt": 0.25, "noise": NOISE, "rho_amplitude": 1.5}),
    ("converge", dict(CONVERGE, M=1, substeps_per_cell=-8)),
    # exclusiveMinimum
    ("flow", {"noise": {"T": 0, "level": 5, "delta": -1}}),
    ("flow", {"noise": NOISE, "system": {"domain": "torus", "period": 0.0}}),
    ("density", {"noise": NOISE, "grid": {"n": 16, "period": -2.0}}),
    ("nls", {"T": 0.0, "dt": -0.25, "noise": {"T": -1.0, "level": 5, "delta": 0.0}}),
    ("bridge", {"T": -1.0, "dt": 0.0, "noise": NOISE}),
    ("converge", dict(CONVERGE, T=0, dt=-1e-3)),
    # required
    ("flow", {}),
    ("flow", {"noise": {"level": 5}}),
    ("density", {"noise": NOISE, "grid": {"origin": 0.5}}),
    ("nls", {}),
    ("bridge", {"grid": GRID}),
    ("converge", {"seed": 3}),
    # additionalProperties: false, one violation per object
    ("flow", {"noise": NOISE, "bogus": 1}),
    ("flow", {"noise": NOISE, "zeta": 1, "alpha": 2, "beta": 3}),
    ("flow", {"noise": dict(NOISE, dt=0.1), "state0": {"x": [0.3], "q": [0.7]}}),
    ("density", {"noise": NOISE, "grid": dict(GRID, dim=2)}),
    ("vlasov", {"noise": NOISE, "system": {"potential": "cos", "mass": 1.0}}),
    ("nls", {"T": 1.0, "dt": 0.25, "workers": 2}),
    ("bridge", {"T": 1.0, "dt": 0.25, "noise": NOISE, "coupling": {"quadratic": 1.0}}),
    ("converge", dict(CONVERGE, payload={"potential": "cos", "gamma": 1.0})),
    # items and minItems
    ("flow", {"noise": NOISE, "state0": {"x": ["a"], "p": [0.7, None]}}),
    ("converge", dict(CONVERGE, deltas=[0.25, "x", -1, 0])),
    ("converge", dict(CONVERGE, deltas=[0.25, 0.125])),
    ("converge", dict(CONVERGE, deltas=[])),
    ("converge", dict(CONVERGE, deltas=[0.0, -0.5], state0={"x": [True], "p": []})),
    # many keywords at once, at several depths
    ("flow", {"noise": {"T": -1, "level": 5.5, "delta": -1}, "system": {"eta": "1"},
              "state0": {"x": [1, "2"]}, "seed": -3, "bogus": 1}),
    ("density", {"grid": {"n": 7.0, "period": 0, "bogus": 1}, "eta": [], "noise": {}}),
    ("converge", {"deltas": [1, 2], "M": 0, "payload": {"domain": 1, "sigma": "x"},
                  "extra": None}),
]

# configs the schemas accept, including Draft-7 edge cases: 1.0 is an
# integer, and NaN and -inf pass every bound the schemas set (parse_config
# still rejects them: NaN, Infinity and -Infinity are not JSON tokens)
GOOD = [
    ("flow", {"noise": {"T": 1.0, "level": 5.0, "delta": 0.25}, "substeps_per_cell": 8.0}),
    ("flow", {"noise": {"T": math.nan, "level": 5, "delta": 0.25}}),
    ("density", {"noise": NOISE, "eta": -math.inf}),
    ("converge", dict(CONVERGE, seed=0.0)),
]


def draft7_lines(subcommand, config):
    """The violation lines of the reference validator, in the CLI's order."""
    errors = Draft7Validator(cli.SCHEMAS[subcommand]).iter_errors(config)
    return [
        f"{'.'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
        for e in sorted(errors, key=lambda e: list(e.absolute_path))
    ]


def where(lines):
    return Counter(line.split(": ", 1)[0] for line in lines)


@pytest.mark.parametrize("subcommand,config", BAD)
def test_violations_match_draft7(subcommand, config):
    text = json.dumps(config)
    expected = draft7_lines(subcommand, json.loads(text))
    assert expected, "every table entry must break the schema"
    with pytest.raises(ConfigError) as e:
        parse_config(text, subcommand)
    assert where(e.value.violations) == where(expected)
    assert e.value.violations == expected


@pytest.mark.parametrize("subcommand,config", GOOD)
def test_accepted_configs_match_draft7(subcommand, config):
    text = json.dumps(config)
    assert draft7_lines(subcommand, json.loads(text)) == []
    if "NaN" in text or "Infinity" in text:
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config(text, subcommand)
    else:
        parse_config(text, subcommand)


def test_non_object_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError) as e:
        parse_config(str(path), "flow")
    assert e.value.violations == draft7_lines("flow", [1, 2])


def test_schemas_are_valid_draft7():
    for schema in cli.SCHEMAS.values():
        Draft7Validator.check_schema(schema)


TWO_PI = 2 * math.pi
STATE0 = {"x": [0.3], "p": [0.7]}

DEFAULTED = [
    ("flow", {"noise": NOISE},
     {"seed": 0, "system": {}, "state0": STATE0, "substeps_per_cell": 8, "noise": NOISE}),
    ("flow", {"noise": NOISE, "seed": 5, "system": {"eta": 1.0}, "state0": {"x": [0.1]},
              "out": "o"},
     {"seed": 5, "system": {"eta": 1.0}, "state0": {"x": [0.1], "p": [0.7]},
      "substeps_per_cell": 8, "noise": NOISE, "out": "o"}),
    ("density", {"noise": NOISE},
     {"seed": 0, "grid": {"n": 64, "period": TWO_PI}, "rho_amplitude": 0.2,
      "phi_amplitude": 0.05, "eta": 0.5, "noise_potential": "sin", "substeps_per_cell": 8,
      "noise": NOISE}),
    ("density", {"noise": NOISE, "grid": {"n": 16, "period": 1.0, "origin": -0.5}, "eta": 0},
     {"seed": 0, "grid": {"n": 16, "period": 1.0, "origin": -0.5}, "rho_amplitude": 0.2,
      "phi_amplitude": 0.05, "eta": 0, "noise_potential": "sin", "substeps_per_cell": 8,
      "noise": NOISE}),
    ("vlasov", {"noise": NOISE},
     {"seed": 0, "system": {}, "n_particles": 1000, "n_samples": 9, "substeps_per_cell": 8,
      "noise": NOISE}),
    ("nls", {"T": 1.0, "dt": 0.25},
     {"seed": 0, "grid": {"n": 64, "period": TWO_PI}, "lam": 1.0, "wave": "packet",
      "driver": "none", "T": 1.0, "dt": 0.25}),
    ("bridge", {"T": 1.0, "dt": 0.25, "noise": NOISE},
     {"seed": 0, "grid": {"n": 32, "period": TWO_PI}, "coupling": {"constant": 0.3, "cosine": 0.1},
      "rho_amplitude": 0.3, "phi_amplitude": 0.2, "T": 1.0, "dt": 0.25, "noise": NOISE}),
    ("bridge", {"T": 1.0, "dt": 0.25, "noise": NOISE, "coupling": {"cosine": 0.0}},
     {"seed": 0, "grid": {"n": 32, "period": TWO_PI}, "coupling": {"constant": 0.3, "cosine": 0.0},
      "rho_amplitude": 0.3, "phi_amplitude": 0.2, "T": 1.0, "dt": 0.25, "noise": NOISE}),
    ("converge", CONVERGE,
     {"seed": 0, "system": "phase_flow", "payload": {"potential": "cos", "sigma": "sin", "eta": 1.0},
      "state0": STATE0, "reference": "strat", "dt": 2.0 ** -12, "substeps_per_cell": 8,
      **CONVERGE}),
    ("converge", dict(CONVERGE, payload={"eta": 0.5, "domain": "torus"}, state0={"p": [0.1]}),
     {"seed": 0, "system": "phase_flow",
      "payload": {"potential": "cos", "sigma": "sin", "eta": 0.5, "domain": "torus"},
      "state0": {"x": [0.3], "p": [0.1]}, "reference": "strat", "dt": 2.0 ** -12,
      "substeps_per_cell": 8, **CONVERGE}),
]


@pytest.mark.parametrize("subcommand,config,expected", DEFAULTED)
def test_defaults_filled(subcommand, config, expected):
    assert parse_config(json.dumps(config), subcommand) == expected


def test_defaults_are_not_shared_between_parses():
    first = parse_config(json.dumps({"noise": NOISE}), "flow")
    first["state0"]["x"].append(9.0)
    first["system"]["eta"] = 2.0
    second = parse_config(json.dumps({"noise": NOISE}), "flow")
    assert second["state0"] == STATE0 and second["system"] == {}
