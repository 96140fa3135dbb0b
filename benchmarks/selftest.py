"""Self-test of the benchmark.

    python3 benchmarks/run.py --selftest

1. Each workload's output check must pass on a real result and count a
   perturbed result as a failed op; the reference comparison must reject a
   change beyond its tolerance; host-speed scaling must undo a uniformly
   slower host.
2. A smoke run (tiny sizes) of every workload, end to end and traced, must
   print every metric that ``BENCHMARK.json`` names, with its unit, and no
   failed op.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class Perturbed:
    """A workload whose op result is altered by ``mutate`` before the check."""

    def __init__(self, base, mutate):
        self.base, self.mutate = base, mutate
        self.name = base.name

    def __getattr__(self, attr):
        return getattr(self.base, attr)

    def run(self, ctx, inputs):
        return self.mutate(self.base.run(ctx, inputs), inputs)


def _replace(**changes):
    return lambda r, inputs: dataclasses.replace(r, **{k: f(r) for k, f in changes.items()})


def _dict_with(key, fn):
    def mutate(out, inputs):
        out = dict(out)
        out[key] = fn(np.array(out[key], dtype=float))
        return out
    return mutate


def _set(a, idx, value):
    a[idx] = value
    return a


def _tamper_artifact(out, inputs):
    with open(os.path.join(inputs["dirs"]["flow"], "flow.csv"), "a") as fh:
        fh.write("0,0,0,0\n")
    return out


def _manifest_status(out, inputs):
    path = os.path.join(inputs["dirs"]["bridge"], "manifest.json")
    with open(path) as fh:
        man = json.load(fh)
    man["status"] = "failed"
    with open(path, "w") as fh:
        json.dump(man, fh)
    return out


def _exit_code(out, inputs):
    return dict(out, codes=dict(out["codes"], nls=1))


def _el_nan(out, inputs):
    el = dict(out["el"])
    el["hjb"] = _set(np.array(el["hjb"]), 0, np.nan)
    return dict(out, el=el)


PERTURBATIONS = {
    "phase_study": {
        "nan error": _replace(errors=lambda r: _set(r.errors.copy(), 0, np.nan)),
        "rms above ci_high": _replace(errors=lambda r: r.ci_high * 1.01),
        "order out of band": _replace(order=lambda r: 0.05),
    },
    "kinetic_residual": {
        "rhs off by 1e-3": _dict_with("rhs", lambda a: _set(a, (0, 0), a[0, 0] + 1e-3)),
        "wrong shape": _dict_with("lhs", lambda a: a[:, :-1]),
        "nan residual": _dict_with("residual", lambda a: _set(a, (3, 1), np.nan)),
        "ci_low above ci_high": _dict_with("ci_low", lambda a: a + 1e3),
    },
    "snls_study": {
        "increasing rms": _dict_with("rms_errors", lambda a: a[::-1]),
        "negative rms": _dict_with("rms_errors", lambda a: _set(a, 0, -a[0])),
        "nan rms": _dict_with("rms_errors", lambda a: _set(a, -1, np.nan)),
        "negative order": _dict_with("order", lambda a: -a),
    },
    "cli_desk": {
        "tampered artifact": _tamper_artifact,
        "failed manifest": _manifest_status,
        "nonzero exit": _exit_code,
        "nan residual": _el_nan,
    },
}


def _request(name):
    return {"seed": 1, "size": "smoke",
            "first_index": 0, "workload": name}


class CheckerTests(unittest.TestCase):
    def _runner(self, w, ctx):
        r = worker.Runner(_request(w.name), w, ctx)
        r.prepare_next()
        r.op()
        return r

    def test_perturbed_results_fail(self):
        for name, cases in PERTURBATIONS.items():
            base = workloads.WORKLOADS[name]
            ctx = base.setup("smoke")
            try:
                self.assertEqual(self._runner(base, ctx).failures, [], name)
                for label, mutate in cases.items():
                    with self.subTest(workload=name, perturbation=label):
                        r = self._runner(Perturbed(base, mutate), ctx)
                        self.assertEqual((r.attempted, len(r.failures)), (1, 1))
            finally:
                if hasattr(base, "teardown"):
                    base.teardown(ctx)

    def test_reference_comparison(self):
        ref = {"a": [1.0, 2.0, 0.0], "b": [3.0]}
        self.assertEqual(workloads.compare_reference(ref, copy.deepcopy(ref)), [])
        near = {"a": [1.0 + 1e-12, 2.0, 1e-16], "b": [3.0]}
        self.assertEqual(workloads.compare_reference(ref, near), [])
        self.assertEqual(len(workloads.compare_reference(ref, {"a": [1.0, 2.0 + 1e-6, 0.0],
                                                              "b": [3.0]})), 1)
        self.assertEqual(len(workloads.compare_reference(ref, {"a": [1.0, 2.0, 0.0]})), 1)

    def test_reference_mismatch_counts_as_failure(self):
        w = workloads.WORKLOADS["snls_study"]
        ctx = w.setup("smoke")
        req = dict(_request(w.name), seed=workloads.REFERENCE_SEED)
        r = worker.Runner(req, w, ctx)
        self.assertIn("0", r.ref)
        r.ref = copy.deepcopy(r.ref)
        r.ref["0"]["rms_errors"][0] *= 1 + 1e-6
        r.prepare_next()
        r.op()
        self.assertEqual(len(r.failures), 1)


class CalibrationTests(unittest.TestCase):
    def test_scaling(self):
        ref = calibrate.REFERENCE_S
        self.assertAlmostEqual(calibrate.scaled(1.5, ref, ref), 1.5)
        # a host twice as slow around a span halves its scaled time
        self.assertAlmostEqual(calibrate.scaled(3.0, 2 * ref, 2 * ref), 1.5)
        self.assertAlmostEqual(calibrate.scaled(1.5, 0.5 * ref, 2 * ref), 1.5)

    def test_kernel_runs(self):
        calibrate.warm_up()
        self.assertGreater(calibrate.kernel_s(), 0.0)
        self.assertGreater(calibrate.import_s(dict(os.environ), ROOT, 60.0), 0.0)


class SmokeRuns(unittest.TestCase):
    def test_every_metric_printed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        for name in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                         "--seed", "0", "--seconds", "2", "--trace", str(trace),
                         "--size", "smoke"],
                        cwd=ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 2)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in out["metrics"].items():
                        self.assertTrue(np.isfinite(v["value"]), k)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
