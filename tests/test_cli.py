import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzflow import cli
from wzflow.cli import ConfigError, main, parse_config


def run_cli(args):
    return main(args)


FLOW_CFG = {
    "seed": 4,
    "system": {"potential": "cos", "sigma": "sin", "eta": 1.0},
    "noise": {"T": 1.0, "level": 6, "delta": 0.25},
}

CONVERGE_CFG = {
    "seed": 1,
    "deltas": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
    "M": 6,
    "T": 1.0,
    "dt": 2.0 ** -9,
}


class TestParseConfig:
    def test_minimal_flow_defaults(self):
        cfg = parse_config(json.dumps({"noise": {"T": 1.0, "level": 5, "delta": 0.25}}), "flow")
        assert cfg["seed"] == 0
        assert cfg["state0"]["x"] == [0.3]
        assert cfg["substeps_per_cell"] == 8

    def test_negative_delta_names_path(self):
        bad = {"noise": {"T": 1.0, "level": 5, "delta": -1}}
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps(bad), "flow")
        assert any("noise.delta" in v for v in e.value.violations)

    def test_all_violations_aggregated(self):
        bad = {"noise": {"T": -1, "level": 5, "delta": -1}, "bogus": 1}
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps(bad), "flow")
        assert len(e.value.violations) >= 3

    def test_unknown_key_rejected(self):
        bad = dict(FLOW_CFG, extra_field=1)
        with pytest.raises(ConfigError):
            parse_config(json.dumps(bad), "flow")

    def test_malformed_json(self):
        with pytest.raises(ConfigError) as e:
            parse_config("{not json", "flow")
        assert "line" in e.value.violations[0]

    def test_effective_config_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["flow", "--config", json.dumps(FLOW_CFG), "--out", str(out), "--quiet"]) == 0
        echoed = (out / "effective_config.json").read_text()
        assert parse_config(echoed, "flow") == json.loads(echoed)

    @pytest.mark.parametrize("spelled", [
        {"noise": {"T": 1.0, "level": 5.0, "delta": 0.25}},
        {"noise": {"T": 1.0, "level": 5, "delta": 0.25}, "substeps_per_cell": 8.0},
    ])
    def test_integral_float_runs_as_its_int(self, tmp_path, spelled):
        as_int = {"noise": {"T": 1.0, "level": 5, "delta": 0.25}, "substeps_per_cell": 8}
        digests = []
        for name, cfg in (("float", spelled), ("int", as_int)):
            out = tmp_path / name
            assert run_cli(["flow", "--config", json.dumps(cfg), "--out", str(out), "--quiet"]) == 0
            digests.append(hashlib.sha256((out / "flow.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_fractional_integer_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config(json.dumps({"noise": {"T": 1.0, "level": 5.5, "delta": 0.25}}), "flow")
        assert e.value.violations == ["noise.level: 5.5 is not of type 'integer'"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["bogus", "--config", "{}"]) == 2

    def test_config_error_is_2(self, capsys):
        assert run_cli(["flow", "--config", "{not json"]) == 2

    def test_negative_seed_override_is_2(self, tmp_path, capsys):
        # --seed goes through the same schema walk as the config's own seed
        out = tmp_path / "run"
        cfg = '{"noise": {"T": 1.0, "level": 4, "delta": 0.25}}'
        assert run_cli(["flow", "--config", cfg, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: seed: -1 is less than the minimum of 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("system", ["snls", "wasserstein.generalized"])
    def test_converge_system_other_than_phase_flow_is_2(self, tmp_path, capsys, system):
        # the converge runner drives the phase-flow system only; the schema says so
        out = tmp_path / "run"
        cfg = json.dumps(dict(CONVERGE_CFG, system=system))
        assert run_cli(["converge", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: system: {system!r} is not one of ['phase_flow']\n")
        assert not out.exists()

    @pytest.mark.parametrize("cfg,token", [('{"T": NaN, "dt": 0.1}', "NaN"),
                                           ('{"T": 1.0, "dt": Infinity}', "Infinity"),
                                           ('{"T": 1.0, "dt": -Infinity}', "-Infinity")])
    def test_nonfinite_json_token_is_2(self, tmp_path, capsys, cfg, token):
        # Python's json.loads accepts these tokens; JSON does not
        out = tmp_path / "run"
        assert run_cli(["nls", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: malformed JSON: {token} is not a JSON value\n"
        assert not out.exists()

    def test_numerical_failure_is_1(self, tmp_path, capsys):
        # a huge eta breaks the density flow's step-size bound (StabilityError)
        cfg = {"eta": 1e6, "noise": {"T": 0.5, "level": 5, "delta": 0.0625}}
        out = tmp_path / "run"
        assert run_cli(["density", "--config", json.dumps(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["stage"] == "density"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_energy_is_1(self, tmp_path, capsys):
        # x and p stay finite (~1e166) but h0 overflows to inf
        cfg = {"system": {"sigma": "quadratic", "eta": 1e6},
               "noise": {"T": 1.0, "level": 6, "delta": 0.25}}
        out = tmp_path / "run"
        assert run_cli(["flow", "--config", json.dumps(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["stage"] == "flow"
        assert manifest["error"] == {"class": "EvaluationError",
                                     "message": "flow integration failed: h0 is not finite"}
        assert not (out / "flow.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_vlasov_flow_gone_nonfinite_is_an_evaluation_error(self, tmp_path, capsys):
        # the particles overflow before t = 0.5: a numerical failure, not a misaligned time
        cfg = {"system": {"potential": "quadratic", "sigma": "quadratic", "eta": 1e6},
               "n_particles": 10, "noise": {"T": 1.0, "level": 8, "delta": 2.0 ** -8}}
        out = tmp_path / "run"
        assert run_cli(["vlasov", "--config", json.dumps(cfg), "--out", str(out)]) == 1
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error["class"] == "EvaluationError"
        assert error["message"].startswith("the particle flow became non-finite")

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["flow", "--config", json.dumps(FLOW_CFG), "--out", str(out), "--workers", "2"]
        assert run_cli(args) == 2

    @pytest.mark.parametrize("sub,cfg", [
        ("flow", dict(FLOW_CFG, noise={"T": 1.0, "level": 6, "delta": 0.3})),
        # the phase-flow study needs a power-of-two substep count
        ("converge", dict(CONVERGE_CFG, substeps_per_cell=3)),
        ("nls", {"T": 1.0, "dt": 0.3}),  # dt does not divide T: found inside the solver
        # state0 must have dim (here 1) entries
        ("flow", dict(FLOW_CFG, state0={"x": [], "p": []})),
        ("flow", dict(FLOW_CFG, state0={"x": [0.3, 0.1], "p": [0.7, 0.2]})),
        ("converge", dict(CONVERGE_CFG, state0={"x": [0.3], "p": [0.7, 0.2]})),
        # the 9 default sample times are not on the 4-step grid
        ("vlasov", {"noise": {"T": 1.0, "level": 3, "delta": 0.25}, "substeps_per_cell": 1}),
        # a step straddles a noise cell
        ("nls", {"T": 1.0, "dt": 0.1, "driver": "wz_potential",
                 "noise": {"T": 1.0, "level": 5, "delta": 0.125}}),
        # the horizon is beyond the noise path
        ("nls", {"T": 1.0, "dt": 0.015625, "driver": "wz_potential",
                 "noise": {"T": 0.5, "level": 5, "delta": 0.125}}),
        # the noise driver without a noise path
        ("nls", {"T": 0.25, "dt": 0.25, "driver": "wz_potential"}),
        # the exact additive reference solves f = 0, sigma(x) = x, not the default payload
        ("converge", dict(CONVERGE_CFG, reference="exact_additive")),
        ("converge", dict(CONVERGE_CFG, reference="exact_additive", payload={"sigma": "linear"})),
    ])
    def test_config_error_found_at_run_time_is_2(self, tmp_path, capsys, sub, cfg):
        out = tmp_path / "run"
        assert run_cli([sub, "--config", json.dumps(cfg), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["stage"] == sub
        assert manifest["error"]["class"] == "ConfigurationError"
        assert [a["path"] for a in manifest["artifacts"]] == ["effective_config.json"]

    def test_unexpected_error_is_1_with_manifest(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, out_dir, seed):
            raise RuntimeError("runner broke")

        monkeypatch.setitem(cli.RUNNERS, "flow", broken)
        out = tmp_path / "run"
        assert run_cli(["flow", "--config", json.dumps(FLOW_CFG), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["stage"] == "flow"
        assert manifest["error"]["class"] == "RuntimeError"
        assert manifest["error"]["message"] == "runner broke"
        assert "in broken" in manifest["error"]["traceback"]
        assert capsys.readouterr().err == "error: RuntimeError: runner broke\n"


def test_cli_import_loads_no_scipy():
    # nor the jsonschema family: numpy is the only runtime dependency
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    banned = ("scipy", "jsonschema", "referencing", "rpds", "attrs", "attr")
    code = ("import sys, wzflow.cli; "
            f"print([m for m in sys.modules if m.split('.')[0] in {banned!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_study_modules_load_no_hashlib_or_metadata():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, wzflow.studies, wzflow.snls, wzflow.vlasov; "
            "print(sorted({'hashlib', '_hashlib', 'importlib.metadata'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


NO_MASKED_ARRAYS = '''
import json, sys, tempfile
import numpy as np
from wzflow import cli, phase
from wzflow.studies import strong_convergence_study
from wzflow.vlasov import PhaseEnsemble, weak_residual_second_order

f, df, d2f = phase.scalar_potential(lambda x: 0.5 * x ** 2, lambda x: x, np.ones_like)
s, ds, d2s = phase.scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
spec = phase.HamiltonianSpec(1, f, df, s, ds, eta=0.5, d2f=d2f, d2sigma=d2s)
strong_convergence_study("phase_flow", {"spec": spec, "state0": phase.PhaseState([0.0], [1.0])},
                         [0.25, 0.125, 0.0625], 3, 1.0, 2.0 ** -7, seed=0, substeps_per_cell=2)
weak_residual_second_order(spec, PhaseEnsemble(np.zeros((5, 1)), np.ones((5, 1))), 30, 0.125,
                           [0.0, 0.125, 0.25], seed=0)
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["converge", "--config", json.dumps(%r), "--out", out, "--quiet"]) == 0
print("numpy.ma" in sys.modules)
''' % CONVERGE_CFG


def test_bootstrap_studies_leave_numpy_ma_unimported():
    # numpy's quantile imports numpy.ma (1.2 MiB) through np.unique; the
    # bootstrap intervals of both studies and the converge runner do not
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip() == "False"


class TestRunners:
    def test_flow_end_to_end(self, tmp_path):
        out = tmp_path / "flow"
        assert run_cli(["flow", "--config", json.dumps(FLOW_CFG), "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(out / "flow.csv", delimiter=",", skiprows=1)
        assert rows.shape == (33, 4)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        names = [a["path"] for a in manifest["artifacts"]]
        assert "flow.csv" in names and "effective_config.json" in names

    def test_density_end_to_end(self, tmp_path):
        cfg = {"noise": {"T": 0.5, "level": 5, "delta": 0.0625}}
        out = tmp_path / "density"
        assert run_cli(["density", "--config", json.dumps(cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "density.csv").exists() and (out / "potential.csv").exists()

    def test_vlasov_end_to_end(self, tmp_path):
        cfg = {
            "system": {"potential": "quadratic", "sigma": "sin", "eta": 0.5},
            "n_particles": 200,
            "noise": {"T": 0.5, "level": 6, "delta": 0.0625},
        }
        out = tmp_path / "vlasov"
        assert run_cli(["vlasov", "--config", json.dumps(cfg), "--out", str(out), "--quiet"]) == 0
        lines = (out / "residuals.csv").read_text().strip().splitlines()
        assert lines[0].startswith("time,phi")
        assert len(lines) > 1

    def test_nls_end_to_end(self, tmp_path):
        cfg = {
            "T": 0.5,
            "dt": 0.5 / 64,
            "driver": "wz_potential",
            "noise": {"T": 0.5, "level": 6, "delta": 0.125},
        }
        out = tmp_path / "nls"
        assert run_cli(["nls", "--config", json.dumps(cfg), "--out", str(out), "--quiet"]) == 0
        inv = np.loadtxt(out / "invariants.csv", delimiter=",", skiprows=1)
        assert inv.ndim in (1, 2)

    def test_bridge_end_to_end(self, tmp_path):
        cfg = {
            "noise": {"T": 0.2, "level": 4, "delta": 0.2},
            "T": 0.2,
            "dt": 0.2 / 64,
        }
        out = tmp_path / "bridge"
        assert run_cli(["bridge", "--config", json.dumps(cfg), "--out", str(out), "--quiet"]) == 0
        rows = np.loadtxt(out / "bridge_residuals.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 3

    def test_subcommands_in_one_process_share_one_parser(self, tmp_path):
        cli._build_parser.cache_clear()
        density_cfg = {"noise": {"T": 0.5, "level": 5, "delta": 0.0625}}
        assert run_cli(["flow", "--config", json.dumps(FLOW_CFG), "--out",
                        str(tmp_path / "flow"), "--quiet"]) == 0
        assert run_cli(["density", "--config", json.dumps(density_cfg), "--out",
                        str(tmp_path / "density"), "--quiet"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_converge_smoke_has_slope(self, tmp_path):
        out = tmp_path / "conv"
        assert run_cli(["converge", "--config", json.dumps(CONVERGE_CFG), "--out", str(out), "--quiet"]) == 0
        body = json.loads((out / "report.json").read_text())
        assert body["order"] is not None
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "delta,rms_error,ci_low,ci_high"

    def test_converge_exact_additive_errors_fall_with_delta(self, tmp_path):
        cfg = dict(CONVERGE_CFG, reference="exact_additive",
                   payload={"potential": "zero", "sigma": "linear", "eta": 1.0})
        out = tmp_path / "conv"
        assert run_cli(["converge", "--config", json.dumps(cfg), "--out", str(out), "--quiet"]) == 0
        errors = json.loads((out / "report.json").read_text())["errors"]
        assert errors[0] > errors[1] > errors[2]

    def test_manifest_version_and_seed(self, tmp_path):
        import wzflow

        out = tmp_path / "run"
        run_cli(["flow", "--config", json.dumps(FLOW_CFG), "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == wzflow.__version__
        assert manifest["seeds"] == [FLOW_CFG["seed"]]
        assert manifest["error"] is None

    def test_converge_manifest_lists_bootstrap_seed(self, tmp_path):
        out = tmp_path / "conv"
        run_cli(["converge", "--config", json.dumps(CONVERGE_CFG), "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [CONVERGE_CFG["seed"], CONVERGE_CFG["seed"] ^ 0xB007]

    def test_manifest_checksums(self, tmp_path):
        import hashlib

        out = tmp_path / "conv"
        run_cli(["converge", "--config", json.dumps(CONVERGE_CFG), "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        for art in manifest["artifacts"]:
            data = (out / art["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == art["sha256"]
            assert len(data) == art["bytes"]

    def test_single_worker_determinism(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_cli(["converge", "--config", json.dumps(CONVERGE_CFG), "--out", str(out), "--quiet"])
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override(self, tmp_path):
        out = tmp_path / "run"
        run_cli(["flow", "--config", json.dumps(FLOW_CFG), "--out", str(out),
                 "--seed", "99", "--quiet"])
        cfg = json.loads((out / "effective_config.json").read_text())
        assert cfg["seed"] == 99

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WZFLOW_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["flow", "--config", json.dumps(FLOW_CFG), "--quiet"]) == 0
        assert (tmp_path / "envout" / "flow.csv").exists()


# ---------------------------------------------------------------------------
# property: every schema-valid config ends in a manifest and a typed exit

# value pools for the schema's leaf properties, kept tiny (level <= 8, n <= 64);
# dyadic steps make the noise, step and horizon keys agree often enough to run
_DYADIC = [2.0 ** -k for k in range(10)]
_POOLS = {
    "seed": st.integers(0, 3),
    "level": st.integers(0, 8),
    "n": st.sampled_from([8, 16, 64]),
    "n_particles": st.sampled_from([10, 60]),
    "n_samples": st.integers(3, 9),
    "M": st.integers(2, 3),
    "substeps_per_cell": st.integers(1, 3),
    "T": st.sampled_from([0.25, 0.5, 1.0]),
    "delta": st.sampled_from(_DYADIC + [0.1, 0.3]),
    "dt": st.sampled_from(_DYADIC[2:9] + [0.1]),
    "eta": st.sampled_from([0.0, 0.5, -1.0, 1e6, 1e100]),
    "period": st.sampled_from([1.0, 2 * np.pi]),
    "origin": st.sampled_from([0.0, -1.5]),
    "rho_amplitude": st.sampled_from([0.0, 0.3, 0.95]),
    "phi_amplitude": st.sampled_from([0.0, 0.2, 50.0]),
    "lam": st.sampled_from([0.0, 1.0, -2.0]),
    "constant": st.sampled_from([0.0, 0.3, 40.0]),
    "cosine": st.sampled_from([0.0, 0.1]),
    "x": st.lists(st.sampled_from([0.3, -2.0]), min_size=0, max_size=2),
    "p": st.lists(st.sampled_from([0.7, 3.0]), min_size=0, max_size=2),
    "deltas": st.lists(st.sampled_from(_DYADIC[2:7]), min_size=3, max_size=4),
}


def _numerical(error) -> bool:
    """A failure a schema-valid config may meet in the numerics (exit 1)."""
    return error["class"] in ("EvaluationError", "StabilityError", "ConvergenceError",
                              "SupportError")


def _config(schema, key=None):
    """Draw a value valid under ``schema``: an object draws its required
    keys and any of its optional ones, a leaf draws from its pool."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if schema.get("type") == "object":
        props = {k: v for k, v in schema["properties"].items() if k != "out"}
        required = set(schema.get("required", ()))
        return st.fixed_dictionaries(
            {k: _config(v, k) for k, v in props.items() if k in required},
            optional={k: _config(v, k) for k, v in props.items() if k not in required},
        )
    return _POOLS[key]


def _artifact_hashes(out):
    manifest = json.loads((out / "manifest.json").read_text())
    return manifest, {a["path"]: a["sha256"] for a in manifest["artifacts"]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(cli.SUBCOMMANDS).flatmap(
    lambda sub: st.tuples(st.just(sub), _config(cli.SCHEMAS[sub]))))
def test_schema_valid_configs_end_in_a_manifest_and_a_typed_exit(case):
    sub, cfg = case
    text = json.dumps(cfg)
    assert parse_config(text, sub)  # the draw is schema-valid
    with tempfile.TemporaryDirectory() as root:
        out = pathlib.Path(root) / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([sub, "--config", text, "--out", str(out), "--quiet"])
        assert "Traceback" not in err.getvalue()
        manifest, hashes = _artifact_hashes(out)
        assert manifest["status"] == ("ok" if code == 0 else "failed")
        if code:
            error = manifest["error"]
            assert "traceback" not in error, error
            expected = 2 if error["class"] == "ConfigurationError" else 1
            assert code == expected, error
            assert code == 2 or _numerical(error), error
            return
        again = pathlib.Path(root) / "again"
        assert main([sub, "--config", text, "--out", str(again), "--quiet"]) == 0
        assert _artifact_hashes(again)[1] == hashes
