"""Command-line front end.

JSON configs are schema-validated (all violations reported at once)
before any computation runs.  Every run writes its artifacts, an
effective-config echo, and a manifest with checksums into the output
directory.  Exit codes: 0 success, 1 numerical failure, 2 configuration
error.  Runs are bitwise reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np
from jsonschema import Draft7Validator

from . import bridge as bridge_mod
from . import density as density_mod
from . import noise as noise_mod
from . import snls as snls_mod
from . import studies as studies_mod
from . import vlasov as vlasov_mod
from .errors import ConfigurationError, WzflowError
from .fields import DensityField, GridSpec, PotentialField, field_to_csv
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
# schemas

_NOISE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["T", "level", "delta"],
    "properties": {
        "T": {"type": "number", "exclusiveMinimum": 0},
        "level": {"type": "integer", "minimum": 0, "maximum": 24},
        "delta": {"type": "number", "exclusiveMinimum": 0},
    },
}

_GRID = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "period"],
    "properties": {
        "n": {"type": "integer", "minimum": 8},
        "period": {"type": "number", "exclusiveMinimum": 0},
        "origin": {"type": "number"},
    },
}

_SYSTEM = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "potential": {"enum": ["zero", "cos", "sin", "quadratic", "linear"]},
        "sigma": {"enum": ["zero", "cos", "sin", "quadratic", "linear"]},
        "eta": {"type": "number"},
        "domain": {"enum": ["euclidean", "torus"]},
        "period": {"type": "number", "exclusiveMinimum": 0},
    },
}

_COMMON = {
    "seed": {"type": "integer", "minimum": 0},
    "out": {"type": "string"},
}

SCHEMAS = {
    "flow": {
        "type": "object",
        "additionalProperties": False,
        "required": ["noise"],
        "properties": {
            **_COMMON,
            "system": _SYSTEM,
            "state0": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "x": {"type": "array", "items": {"type": "number"}},
                    "p": {"type": "array", "items": {"type": "number"}},
                },
            },
            "noise": _NOISE,
            "substeps_per_cell": {"type": "integer", "minimum": 1},
        },
    },
    "density": {
        "type": "object",
        "additionalProperties": False,
        "required": ["noise"],
        "properties": {
            **_COMMON,
            "grid": _GRID,
            "rho_amplitude": {"type": "number", "minimum": 0, "maximum": 0.95},
            "phi_amplitude": {"type": "number"},
            "eta": {"type": "number"},
            "noise_potential": {"enum": ["zero", "cos", "sin"]},
            "noise": _NOISE,
            "substeps_per_cell": {"type": "integer", "minimum": 1},
        },
    },
    "vlasov": {
        "type": "object",
        "additionalProperties": False,
        "required": ["noise"],
        "properties": {
            **_COMMON,
            "system": _SYSTEM,
            "n_particles": {"type": "integer", "minimum": 10},
            "n_samples": {"type": "integer", "minimum": 3},
            "noise": _NOISE,
            "substeps_per_cell": {"type": "integer", "minimum": 1},
        },
    },
    "nls": {
        "type": "object",
        "additionalProperties": False,
        "required": ["T", "dt"],
        "properties": {
            **_COMMON,
            "grid": _GRID,
            "lam": {"type": "number"},
            "wave": {"enum": ["plane_wave", "packet"]},
            "driver": {"enum": ["none", "wz_potential"]},
            "noise": _NOISE,
            "T": {"type": "number", "exclusiveMinimum": 0},
            "dt": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "bridge": {
        "type": "object",
        "additionalProperties": False,
        "required": ["noise", "T", "dt"],
        "properties": {
            **_COMMON,
            "grid": _GRID,
            "coupling": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "constant": {"type": "number"},
                    "cosine": {"type": "number"},
                },
            },
            "rho_amplitude": {"type": "number", "minimum": 0, "maximum": 0.95},
            "phi_amplitude": {"type": "number"},
            "noise": _NOISE,
            "T": {"type": "number", "exclusiveMinimum": 0},
            "dt": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "converge": {
        "type": "object",
        "additionalProperties": False,
        "required": ["deltas", "M", "T"],
        "properties": {
            **_COMMON,
            "system": {"enum": list(studies_mod.SYSTEMS)},
            "payload": _SYSTEM,
            "state0": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "x": {"type": "array", "items": {"type": "number"}},
                    "p": {"type": "array", "items": {"type": "number"}},
                },
            },
            "reference": {"enum": ["strat", "exact_additive"]},
            "deltas": {
                "type": "array",
                "minItems": 3,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "M": {"type": "integer", "minimum": 2},
            "T": {"type": "number", "exclusiveMinimum": 0},
            "dt": {"type": "number", "exclusiveMinimum": 0},
            "substeps_per_cell": {"type": "integer", "minimum": 1},
        },
    },
}

DEFAULTS = {
    "flow": {"system": {}, "state0": {"x": [0.3], "p": [0.7]}, "substeps_per_cell": 8},
    "density": {
        "grid": {"n": 64, "period": 2 * np.pi},
        "rho_amplitude": 0.2,
        "phi_amplitude": 0.05,
        "eta": 0.5,
        "noise_potential": "sin",
        "substeps_per_cell": 8,
    },
    "vlasov": {
        "system": {},
        "n_particles": 1000,
        "n_samples": 9,
        "substeps_per_cell": 8,
    },
    "nls": {
        "grid": {"n": 64, "period": 2 * np.pi},
        "lam": 1.0,
        "wave": "packet",
        "driver": "none",
    },
    "bridge": {
        "grid": {"n": 32, "period": 2 * np.pi},
        "coupling": {"constant": 0.3, "cosine": 0.1},
        "rho_amplitude": 0.3,
        "phi_amplitude": 0.2,
    },
    "converge": {
        "system": "phase_flow",
        "payload": {"potential": "cos", "sigma": "sin", "eta": 1.0},
        "state0": {"x": [0.3], "p": [0.7]},
        "reference": "strat",
        "dt": 2.0 ** -12,
        "substeps_per_cell": 8,
    },
}
for _name in SUBCOMMANDS:
    DEFAULTS[_name] = {"seed": 0, **DEFAULTS[_name]}


class ConfigError(Exception):
    """Raised for malformed or schema-violating configs (exit code 2)."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _merge_defaults(defaults, cfg):
    out = {}
    for key, val in defaults.items():
        if key in cfg and isinstance(val, dict) and isinstance(cfg[key], dict):
            out[key] = _merge_defaults(val, cfg[key])
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = val
    for key, val in cfg.items():
        if key not in out:
            out[key] = val
    return out


def parse_config(source: str, subcommand: str) -> dict:
    """Load a config from a file path or inline JSON, validate it against
    the subcommand schema (reporting every violation), and fill defaults."""
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
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            [f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"]
        )
    validator = Draft7Validator(SCHEMAS[subcommand])
    problems = []
    for err in sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        where = ".".join(str(p) for p in err.absolute_path) or "<root>"
        problems.append(f"{where}: {err.message}")
    if problems:
        raise ConfigError(problems)
    return _merge_defaults(DEFAULTS[subcommand], raw)


# ---------------------------------------------------------------------------
# runners (each returns a list of artifact paths)

def _csv_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{float(c):.17g}" for c in row) + "\n")


def _noise_mesh(cfg, seed):
    nz = cfg["noise"]
    path = noise_mod.sample_brownian(seed=seed, T=nz["T"], level=nz["level"])
    try:
        return noise_mod.WongZakaiMesh(path, nz["delta"])
    except ConfigurationError as e:  # delta not T*2**-l, or finer than the level
        raise ConfigError([f"noise: {e}"]) from e


def _run_flow(cfg, out_dir, seed):
    spec = _hamiltonian_from(cfg["system"])
    mesh = _noise_mesh(cfg, seed)
    state0 = PhaseState(cfg["state0"]["x"], cfg["state0"]["p"])
    result = wz_flow(spec, state0, mesh, substeps_per_cell=cfg["substeps_per_cell"])
    if result.status != "completed":
        raise WzflowError(f"flow integration failed: {result.status}")
    target = os.path.join(out_dir, "flow.csv")
    rows = zip(result.times, result.xs[:, 0], result.ps[:, 0], result.h0)
    _csv_rows(target, "t,x,p,h0", rows)
    return [target]


def _grid_from(cfg) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(1, g["n"], g["period"], origin=g.get("origin", 0.0))


def _run_density(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    x = grid.axis()
    w = 2 * np.pi / grid.period
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
    grid = _grid_from(cfg)
    x = grid.axis()
    w = 2 * np.pi / grid.period
    if cfg["wave"] == "plane_wave":
        u0 = snls_mod.WaveField(grid, 0.8 * np.exp(1j * w * x))
    else:
        u0 = snls_mod.WaveField(
            grid, np.exp(-((x - grid.origin - grid.period / 2) ** 2)).astype(complex)
        )
    f = lambda s: s
    F = lambda s: 0.5 * s ** 2
    if cfg["driver"] == "wz_potential":
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
    _csv_rows(series_path, "t,mass,energy", zip(traj.times, traj.mass, traj.energy))
    return [wave_path, series_path]


def _run_bridge(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    x = grid.axis()
    w = 2 * np.pi / grid.period
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
    _csv_rows(target, "t,forward,backward",
              zip(res["times"], res["forward"], res["backward"]))
    return [target]


def _run_converge(cfg, out_dir, seed):
    if cfg["system"] != "phase_flow":
        raise ConfigError(["system: the converge subcommand drives the phase-flow system only"])
    payload = {
        "spec": _hamiltonian_from(cfg["payload"]),
        "state0": PhaseState(cfg["state0"]["x"], cfg["state0"]["p"]),
        "reference": cfg["reference"],
    }
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


def emit_manifest(out_dir, cfg, seed, artifacts, elapsed, status, stage=None):
    body = {
        "status": status,
        "stage": stage,
        "config_hash": _config_hash(cfg),
        "seeds": [seed],
        "artifacts": [
            {"path": os.path.basename(a), "bytes": os.path.getsize(a), "sha256": _sha256(a)}
            for a in artifacts
        ],
        "timings": {"total_s": elapsed},
        "version": studies_mod.VERSION,
    }
    target = os.path.join(out_dir, "manifest.json")
    with open(target, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
    return target


def run(subcommand: str, cfg: dict, out_dir: str, quiet: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    seed = cfg["seed"]
    echo = os.path.join(out_dir, "effective_config.json")
    with open(echo, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=float)
    start = time.monotonic()
    try:
        artifacts = RUNNERS[subcommand](cfg, out_dir, seed)
    except (ConfigError, WzflowError) as e:
        # ConfigError: the runner found the config inconsistent (exit 2);
        # WzflowError: the computation itself failed (exit 1)
        emit_manifest(out_dir, cfg, seed, [echo], time.monotonic() - start,
                      "failed", stage=subcommand)
        if not quiet:
            print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1
    elapsed = time.monotonic() - start
    emit_manifest(out_dir, cfg, seed, [echo] + artifacts, elapsed, "ok")
    if not quiet:
        for a in artifacts:
            print(a)
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
        cfg = parse_config(args.config, args.subcommand)
    except ConfigError as e:
        for line in e.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_dir = args.out or cfg.get("out") or os.environ.get(ENV_OUT) or "wzflow_out"
    return run(args.subcommand, cfg, out_dir, quiet=args.quiet)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
