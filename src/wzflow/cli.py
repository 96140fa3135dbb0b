"""Command-line front end.

JSON configs are schema-validated (all violations reported at once)
before any computation runs.  Every run writes its artifacts, an
effective-config echo, and a manifest with checksums into the output
directory.  Exit codes: 0 success, 1 numerical failure, 2 configuration
error.  Runs are bitwise reproducible.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import bridge as bridge_mod
from . import density as density_mod
from . import noise as noise_mod
from . import snls as snls_mod
from . import studies as studies_mod
from . import vlasov as vlasov_mod
from .errors import ConfigurationError, EvaluationError, WzflowError
from .fields import DensityField, GridSpec, PotentialField, _write_csv, field_to_csv
from .phase import HamiltonianSpec, PhaseState, scalar_potential, wz_flow

SUBCOMMANDS = ("flow", "density", "vlasov", "nls", "bridge", "converge")

ENV_OUT = "WZFLOW_OUT"


# ---------------------------------------------------------------------------
# named presets (configs are JSON; callables are referenced by name)

def _potential(name: str):
    if name == "zero":
        return None
    if name == "cos":
        return scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    if name == "sin":
        return scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
    if name == "quadratic":
        return scalar_potential(
            lambda x: 0.5 * x ** 2, lambda x: x, np.ones_like
        )
    if name == "linear":
        return scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
    raise ConfigurationError(f"unknown potential preset {name!r}")


def _hamiltonian_from(cfg: dict) -> HamiltonianSpec:
    kwargs = {"dim": 1, "eta": cfg.get("eta", 0.0)}
    pot = _potential(cfg.get("potential", "zero"))
    if pot is not None:
        kwargs["f"], kwargs["df"], kwargs["d2f"] = pot
    sig = _potential(cfg.get("sigma", "zero"))
    if sig is not None:
        kwargs["sigma"], kwargs["dsigma"], kwargs["d2sigma"] = sig
    if cfg.get("domain", "euclidean") == "torus":
        kwargs["domain"] = "torus"
        kwargs["period"] = cfg.get("period", 2 * np.pi)
    return HamiltonianSpec(**kwargs)


# ---------------------------------------------------------------------------
# schemas: a Draft-7 subset whose "default" entries fill in missing keys

def _closed(properties: dict, required=(), **keywords) -> dict:
    """An object schema that admits only the listed properties."""
    return {"type": "object", "additionalProperties": False, "required": list(required),
            "properties": properties, **keywords}


_NOISE = _closed({
    "T": {"type": "number", "exclusiveMinimum": 0},
    "level": {"type": "integer", "minimum": 0, "maximum": 24},
    "delta": {"type": "number", "exclusiveMinimum": 0},
}, required=["T", "level", "delta"])

_GRID = _closed({
    "n": {"type": "integer", "minimum": 8},
    "period": {"type": "number", "exclusiveMinimum": 0},
    "origin": {"type": "number"},
}, required=["n", "period"])

_SYSTEM = _closed({
    "potential": {"enum": ["zero", "cos", "sin", "quadratic", "linear"]},
    "sigma": {"enum": ["zero", "cos", "sin", "quadratic", "linear"]},
    "eta": {"type": "number"},
    "domain": {"enum": ["euclidean", "torus"]},
    "period": {"type": "number", "exclusiveMinimum": 0},
})

_STATE0 = _closed({
    "x": {"type": "array", "items": {"type": "number"}},
    "p": {"type": "array", "items": {"type": "number"}},
}, default={"x": [0.3], "p": [0.7]})

_COMMON = {
    "seed": {"type": "integer", "minimum": 0, "default": 0},
    "out": {"type": "string"},
}

_SUBSTEPS = {"type": "integer", "minimum": 1, "default": 8}

SCHEMAS = {
    "flow": _closed({
        **_COMMON,
        "system": {**_SYSTEM, "default": {}},
        "state0": _STATE0,
        "noise": _NOISE,
        "substeps_per_cell": _SUBSTEPS,
    }, required=["noise"]),
    "density": _closed({
        **_COMMON,
        "grid": {**_GRID, "default": {"n": 64, "period": 2 * np.pi}},
        "rho_amplitude": {"type": "number", "minimum": 0, "maximum": 0.95, "default": 0.2},
        "phi_amplitude": {"type": "number", "default": 0.05},
        "eta": {"type": "number", "default": 0.5},
        "noise_potential": {"enum": ["zero", "cos", "sin"], "default": "sin"},
        "noise": _NOISE,
        "substeps_per_cell": _SUBSTEPS,
    }, required=["noise"]),
    "vlasov": _closed({
        **_COMMON,
        "system": {**_SYSTEM, "default": {}},
        "n_particles": {"type": "integer", "minimum": 10, "default": 1000},
        "n_samples": {"type": "integer", "minimum": 3, "default": 9},
        "noise": _NOISE,
        "substeps_per_cell": _SUBSTEPS,
    }, required=["noise"]),
    "nls": _closed({
        **_COMMON,
        "grid": {**_GRID, "default": {"n": 64, "period": 2 * np.pi}},
        "lam": {"type": "number", "default": 1.0},
        "wave": {"enum": ["plane_wave", "packet"], "default": "packet"},
        "driver": {"enum": ["none", "wz_potential"], "default": "none"},
        "noise": _NOISE,
        "T": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
    }, required=["T", "dt"]),
    "bridge": _closed({
        **_COMMON,
        "grid": {**_GRID, "default": {"n": 32, "period": 2 * np.pi}},
        "coupling": _closed({
            "constant": {"type": "number"},
            "cosine": {"type": "number"},
        }, default={"constant": 0.3, "cosine": 0.1}),
        "rho_amplitude": {"type": "number", "minimum": 0, "maximum": 0.95, "default": 0.3},
        "phi_amplitude": {"type": "number", "default": 0.2},
        "noise": _NOISE,
        "T": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
    }, required=["noise", "T", "dt"]),
    "converge": _closed({
        **_COMMON,
        "system": {"enum": ["phase_flow"], "default": "phase_flow"},
        "payload": {**_SYSTEM, "default": {"potential": "cos", "sigma": "sin", "eta": 1.0}},
        "state0": _STATE0,
        "reference": {"enum": ["strat", "exact_additive"], "default": "strat"},
        "deltas": {
            "type": "array",
            "minItems": 3,
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "M": {"type": "integer", "minimum": 2},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0, "default": 2.0 ** -12},
        "substeps_per_cell": _SUBSTEPS,
    }, required=["deltas", "M", "T"]),
}


class ConfigError(ConfigurationError):
    """Raised for malformed or schema-violating configs (exit code 2)."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# Draft 7: 1.0 is an integer, and a bool is neither a number nor an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: _TYPES["number"](v) and (isinstance(v, int) or v.is_integer()),
}

_BOUNDS = (
    ("minimum", lambda v, b: v < b, "less than the minimum"),
    ("exclusiveMinimum", lambda v, b: v <= b, "less than or equal to the minimum"),
    ("maximum", lambda v, b: v > b, "greater than the maximum"),
)


def _validate(schema: dict, value, path: tuple, problems: list):
    """Check ``value`` against ``schema`` and return it with the schema
    defaults filled in; every violation is appended to ``problems`` as
    ``(path, message)``, with Draft-7 paths and messages. An integral
    float under an ``integer`` schema is returned as an ``int``.

    A property missing from an object takes its ``default``; an object
    given where the schema has an object default is merged over it, its
    own keys winning."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        problems.append((path, f"{value!r} is not of type {kind!r}"))
    if "enum" in schema and value not in schema["enum"]:
        problems.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if _TYPES["number"](value):
        for key, broken, text in _BOUNDS:
            if key in schema and broken(value, schema[key]):
                problems.append((path, f"{value!r} is {text} of {schema[key]!r}"))
    if kind == "integer" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            problems.append((path, f"{value!r} is too short"))
        if "items" in schema:
            value = [_validate(schema["items"], item, path + (i,), problems)
                     for i, item in enumerate(value)]
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extras = sorted(key for key in value if key not in props)
        if extras and schema.get("additionalProperties") is False:
            names = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
            problems.append((path, f"Additional properties are not allowed ({names} unexpected)"))
        problems.extend((path, f"{key!r} is a required property")
                        for key in schema.get("required", ()) if key not in value)
        out = {key: copy.deepcopy(sub["default"]) for key, sub in props.items() if "default" in sub}
        if isinstance(schema.get("default"), dict):
            out.update(copy.deepcopy(schema["default"]))
        for key, item in value.items():
            out[key] = _validate(props[key], item, path + (key,), problems) if key in props else item
        value = out
    return value


def _reject_constant(token: str):
    """json.loads accepts NaN, Infinity and -Infinity, which JSON does not."""
    raise ConfigError([f"malformed JSON: {token} is not a JSON value"])


def parse_config(source: str, subcommand: str, seed=None) -> dict:
    """Load a config from a file path or inline JSON, set its seed to
    ``seed`` unless that is None, validate it against the subcommand schema
    (reporting every violation), and fill defaults."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError([f"cannot read config file: {e}"])
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ConfigError(
            [f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"]
        )
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    problems = []
    cfg = _validate(SCHEMAS[subcommand], raw, (), problems)
    if problems:
        problems.sort(key=lambda item: item[0])
        raise ConfigError(f"{'.'.join(map(str, where)) or '<root>'}: {message}"
                          for where, message in problems)
    return cfg


# ---------------------------------------------------------------------------
# runners (each returns a list of artifact paths)

def _noise_mesh(cfg, seed):
    nz = cfg["noise"]
    path = noise_mod.sample_brownian(seed=seed, T=nz["T"], level=nz["level"])
    return noise_mod.WongZakaiMesh(path, nz["delta"])


def _run_flow(cfg, out_dir, seed):
    spec = _hamiltonian_from(cfg["system"])
    mesh = _noise_mesh(cfg, seed)
    result = wz_flow(spec, PhaseState(**cfg["state0"]), mesh,
                     substeps_per_cell=cfg["substeps_per_cell"])
    if result.status != "completed":
        raise EvaluationError(f"flow integration failed: {result.status}")
    if not np.all(np.isfinite(result.h0)):
        raise EvaluationError("flow integration failed: h0 is not finite")
    target = os.path.join(out_dir, "flow.csv")
    rows = zip(result.times, result.xs[:, 0], result.ps[:, 0], result.h0)
    _write_csv(target, "t,x,p,h0", rows)
    return [target]


def _grid_from(cfg) -> tuple:
    """The config's grid, its nodes and the wavenumber of one period."""
    g = cfg["grid"]
    grid = GridSpec(1, g["n"], g["period"], origin=g.get("origin", 0.0))
    return grid, grid.axis(), 2 * np.pi / grid.period


def _run_density(cfg, out_dir, seed):
    grid, x, w = _grid_from(cfg)
    rho0 = DensityField.normalized(grid, 1.0 + cfg["rho_amplitude"] * np.cos(w * x))
    phi0 = PotentialField.projected(grid, cfg["phi_amplitude"] * np.sin(w * x))
    pot = {"zero": np.zeros_like(x), "cos": np.cos(w * x), "sin": np.sin(w * x)}[
        cfg["noise_potential"]
    ]
    wspec = density_mod.WhfSpec(
        noise_energy=density_mod.Functional(potential=pot), eta=cfg["eta"]
    )
    mesh = _noise_mesh(cfg, seed)
    traj = density_mod.whf_evolve(rho0, phi0, mesh, wspec, cfg["substeps_per_cell"])
    rho_path = os.path.join(out_dir, "density.csv")
    phi_path = os.path.join(out_dir, "potential.csv")
    field_to_csv(traj.rhos[-1], rho_path)
    field_to_csv(traj.phis[-1], phi_path)
    return [rho_path, phi_path]


def _run_vlasov(cfg, out_dir, seed):
    spec = _hamiltonian_from(cfg["system"])
    mesh = _noise_mesh(cfg, seed)
    rng = np.random.default_rng(seed)
    n = cfg["n_particles"]
    ensemble = vlasov_mod.PhaseEnsemble(
        rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
    )
    sample_times = np.linspace(0.0, cfg["noise"]["T"], cfg["n_samples"])
    series = vlasov_mod.evolve_conditional(
        spec, ensemble, mesh, cfg["substeps_per_cell"], sample_times
    )
    table = vlasov_mod.weak_residual_first_order(spec, series, mesh)
    target = os.path.join(out_dir, "residuals.csv")
    vlasov_mod.residual_table_to_csv(table, target)
    return [target]


def _run_nls(cfg, out_dir, seed):
    grid, x, w = _grid_from(cfg)
    if cfg["wave"] == "plane_wave":
        u0 = snls_mod.WaveField(grid, 0.8 * np.exp(1j * w * x))
    else:
        u0 = snls_mod.WaveField(
            grid, np.exp(-((x - grid.origin - grid.period / 2) ** 2)).astype(complex)
        )
    f = lambda s: s
    F = lambda s: 0.5 * s ** 2
    if cfg["driver"] == "wz_potential":
        if "noise" not in cfg:
            raise ConfigurationError("noise: the wz_potential driver needs a noise path")
        mesh = _noise_mesh(cfg, seed)
        modes = ((lambda y: 0.5 * np.cos(w * y), lambda y: -0.5 * w * np.sin(w * y)),)
        spec = snls_mod.NlsSpec(
            cfg["lam"], f, F, "wz_potential",
            wiener=noise_mod.WienerField(modes, mesh.base), delta=mesh.delta,
        )
    else:
        spec = snls_mod.NlsSpec(cfg["lam"], f, F)
    traj = snls_mod.evolve(spec, u0, cfg["T"], cfg["dt"], sample_times=[cfg["T"]])
    wave_path = os.path.join(out_dir, "wave.csv")
    snls_mod.wave_to_csv(traj.waves[-1], wave_path)
    series_path = os.path.join(out_dir, "invariants.csv")
    _write_csv(series_path, "t,mass,energy", zip(traj.times, traj.mass, traj.energy))
    return [wave_path, series_path]


def _run_bridge(cfg, out_dir, seed):
    grid, x, w = _grid_from(cfg)
    c0 = cfg["coupling"].get("constant", 0.0)
    c1 = cfg["coupling"].get("cosine", 0.0)
    a = lambda y: c0 + c1 * np.cos(w * y)
    da = lambda y: -c1 * w * np.sin(w * y)
    rho0 = DensityField.normalized(grid, 1.0 + cfg["rho_amplitude"] * np.cos(w * x))
    phi0 = PotentialField.projected(grid, cfg["phi_amplitude"] * np.sin(w * x))
    mesh = _noise_mesh(cfg, seed)
    spec = bridge_mod.BridgeSpec(grid, a, da, mesh, rho0, phi0)
    traj = bridge_mod.bridge_flow(spec, cfg["T"], cfg["dt"])
    res = bridge_mod.fb_residual(traj, spec)
    target = os.path.join(out_dir, "bridge_residuals.csv")
    _write_csv(target, "t,forward,backward",
               zip(res["times"], res["forward"], res["backward"]))
    return [target]


def _run_converge(cfg, out_dir, seed):
    # the exact reference p(t) = p0 - eta B(t) holds only for f = 0 and sigma(x) = x
    exact = (cfg["payload"]["potential"], cfg["payload"]["sigma"]) == ("zero", "linear")
    if cfg["reference"] == "exact_additive" and not exact:
        raise ConfigurationError('reference: "exact_additive" needs payload potential "zero" '
                                 'and sigma "linear"')
    spec = _hamiltonian_from(cfg["payload"])
    payload = {"spec": spec, "state0": PhaseState(**cfg["state0"]), "reference": cfg["reference"]}
    report = studies_mod.strong_convergence_study(
        cfg["system"], payload, cfg["deltas"], cfg["M"], cfg["T"], cfg["dt"],
        seed=seed, substeps_per_cell=cfg["substeps_per_cell"],
    )
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    studies_mod.report_to_csv(report, csv_path)
    studies_mod.report_to_json(report, json_path)
    return [csv_path, json_path]


RUNNERS = {
    "flow": _run_flow,
    "density": _run_density,
    "vlasov": _run_vlasov,
    "nls": _run_nls,
    "bridge": _run_bridge,
    "converge": _run_converge,
}


# ---------------------------------------------------------------------------
# manifest and driver

def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=float).encode()
    ).hexdigest()[:16]


def emit_manifest(out_dir, cfg, seeds, artifacts, elapsed, status, stage=None, error=None):
    body = {
        "status": status,
        "stage": stage,
        "error": error,
        "config_hash": _config_hash(cfg),
        "seeds": seeds,
        "artifacts": [
            {"path": os.path.basename(a), "bytes": os.path.getsize(a), "sha256": _sha256(a)}
            for a in artifacts
        ],
        "timings": {"total_s": elapsed},
        "version": __version__,
    }
    target = os.path.join(out_dir, "manifest.json")
    with open(target, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
    return target


def run(subcommand: str, cfg: dict, out_dir: str, quiet: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    seed = cfg["seed"]
    seeds = [seed, seed ^ studies_mod.BOOTSTRAP_SALT] if subcommand == "converge" else [seed]
    echo = os.path.join(out_dir, "effective_config.json")
    with open(echo, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=float)
    start = time.monotonic()
    try:
        artifacts = RUNNERS[subcommand](cfg, out_dir, seed)
    except Exception as e:
        # ConfigurationError: the config is inconsistent (exit 2); any other
        # error fails the run (exit 1); a fault outside WzflowError keeps its traceback
        error = {"class": type(e).__name__, "message": str(e)}
        if not isinstance(e, WzflowError):
            import traceback  # only a fault pays for the import
            error["traceback"] = traceback.format_exc()
        emit_manifest(out_dir, cfg, seeds, [echo], time.monotonic() - start,
                      "failed", stage=subcommand, error=error)
        if not quiet:
            print(f"error: {error['class']}: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigurationError) else 1
    elapsed = time.monotonic() - start
    emit_manifest(out_dir, cfg, seeds, [echo] + artifacts, elapsed, "ok")
    if not quiet:
        for a in artifacts:
            print(a)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wzflow", description="noise-driven Hamiltonian flow toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path or inline JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config, args.subcommand, args.seed)
    except ConfigError as e:
        for line in e.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.get("out") or os.environ.get(ENV_OUT) or "wzflow_out"
    return run(args.subcommand, cfg, out_dir, quiet=args.quiet)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
