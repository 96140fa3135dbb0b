import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
        assert not (out / "flow.csv").exists()


    def test_workers_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["flow", "--config", json.dumps(FLOW_CFG), "--out", str(out), "--workers", "2"]
        assert run_cli(args) == 2

    @pytest.mark.parametrize("sub,cfg", [
        ("flow", dict(FLOW_CFG, noise={"T": 1.0, "level": 6, "delta": 0.3})),
        ("converge", dict(CONVERGE_CFG, system="snls")),
        ("nls", {"T": 1.0, "dt": 0.3}),  # dt does not divide T: found inside the solver
        # state0 must have dim (here 1) entries
        ("flow", dict(FLOW_CFG, state0={"x": [], "p": []})),
        ("flow", dict(FLOW_CFG, state0={"x": [0.3, 0.1], "p": [0.7, 0.2]})),
        ("converge", dict(CONVERGE_CFG, state0={"x": [0.3], "p": [0.7, 0.2]})),
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

    def test_converge_smoke_has_slope(self, tmp_path):
        out = tmp_path / "conv"
        assert run_cli(["converge", "--config", json.dumps(CONVERGE_CFG), "--out", str(out), "--quiet"]) == 0
        body = json.loads((out / "report.json").read_text())
        assert body["order"] is not None
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "delta,rms_error,ci_low,ci_high"

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
