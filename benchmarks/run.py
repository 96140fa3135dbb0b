"""wzflow benchmark: study-scale workloads timed end to end, or traced per layer.

    python3 benchmarks/run.py --workload phase_study --seed 3 --seconds 30 --trace 0

Run from the root of a wzflow checkout; the package is imported from
``src/``.  Each run starts fresh worker interpreters one after another (all
load comes from one process at a time) and prints, as its last stdout line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it give every metric by name with its unit and the run
record (machine, versions, thread caps, load average, op counts, work per op),
which is also written to ``.bench_out/``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over workers of the time from interpreter start of the
  worker to its first op: importing numpy and the workload's wzflow entry
  module, and building the inputs (each workload sets its number of workers;
  a run stops starting workers when the next could not reach its first op
  within ``--seconds``);
* ``first_op_s``: median over workers of the wall time of the first op in that
  fresh process;
* ``op_p50_s``: median wall time of all later ops;
* ``peak_rss_mb``: median over workers of the peak resident set size.

The three times are scaled to a reference host speed (``calibrate.py``):
each op is bracketed by runs of a fixed calibration kernel, and its wall time
is multiplied by ``calibrate.REFERENCE_S`` over the geometric mean of the two
kernel times around it; each set-up is multiplied by
``calibrate.REFERENCE_IMPORT_S`` over the numpy import time of a fresh
interpreter started just before the worker.  The unscaled medians and the
host speed (``REFERENCE_S`` over the median kernel time) are printed and
recorded next to them.

Failed ops (raised, or failed the workload's output check, or differ from the
reference values at the default seed) are counted in ``failed``.

``--trace 1`` wraps wzflow's public functions from outside (see
``tracer.py``), alternates untraced and traced ops in one worker, and reports
per-layer counts and self times per op, ``setup.import_*`` from
``python -X importtime`` in separate interpreters, and the trace's own
overhead.  ``--size smoke`` runs tiny inputs; ``--selftest`` runs the checker
tests and a smoke run of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARD_LIMIT_S = 170.0
IMPORT_PROBES = 3

E2E_UNITS = {"setup_s": "s", "first_op_s": "s", "op_p50_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(".us_per_step"):
        return "us/step"
    if name.endswith(".path_steps"):
        return "steps/op"
    if name in ("fields.fft_bytes_computed", "cli.bytes_written"):
        return "B/op"
    if name.startswith("setup."):
        return "s"
    if name.startswith("trace."):
        return "frac"
    if name == "cli.bitwise_artifacts":
        return "count"
    return "count/op"


def thread_env():
    n = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = n
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def run_worker(req, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(req)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def parse_importtime(text):
    """(total import of the top-level wzflow entries, scipy's share) in s."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), int(cum_us)))
    total = scipy = 0
    for i, (depth, name, cum) in enumerate(rows):
        # an entry's parent is the next row printed at a smaller depth
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), None)
        if depth == 0 and name.split(".")[0] == "wzflow":
            total += cum
        if name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
            scipy += cum
    return total / 1e6, scipy / 1e6


def import_probe(entry, env, deadline):
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {entry}"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(parse_importtime(proc.stderr))
    return (statistics.median(t[0] for t in times), statistics.median(t[1] for t in times))


def e2e_metrics(results):
    """(scaled metrics, unscaled times, number of timed ops, host speed)."""
    setup, first, ops = [], [], []
    for r in results:
        c = r["cals"]
        setup.append(r["setup_s"] * calibrate.REFERENCE_IMPORT_S / r["import_s"])
        # op i (the first op is 0) lies between kernel runs i and i + 1
        first.append(calibrate.scaled(r["first_op_s"], c[0], c[1]))
        ops += [calibrate.scaled(w, c[i + 1], c[i + 2]) for i, w in enumerate(r["op_walls"])]
    rss = statistics.median(r["peak_rss_mb"] for r in results)
    metrics = {"setup_s": statistics.median(setup), "first_op_s": statistics.median(first),
               "op_p50_s": statistics.median(ops), "peak_rss_mb": rss}
    raw = {"setup_s": statistics.median(r["setup_s"] for r in results),
           "first_op_s": statistics.median(r["first_op_s"] for r in results),
           "op_p50_s": statistics.median(w for r in results for w in r["op_walls"])}
    cals = [c for r in results for c in r["cals"]]
    return metrics, raw, len(ops), calibrate.REFERENCE_S / statistics.median(cals)


def trace_metrics(result, import_s, import_scipy_s):
    layers = result["layers"]
    metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    extra = result["extra"]
    metrics["cli.bytes_written"] = statistics.median(extra["bytes_written"]) \
        if extra["bytes_written"] else 0
    metrics["cli.bitwise_artifacts"] = extra.get("bitwise", {}).get("matched", 0)
    metrics["setup.import_s"] = import_s
    metrics["setup.import_scipy_s"] = import_scipy_s
    metrics["trace.overhead_frac"] = (statistics.median(result["traced_walls"])
                                      / statistics.median(result["op_walls"]) - 1.0)
    return metrics


def versions():
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def bench(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns its record (metrics, units, run facts)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "wzflow", "__init__.py")):
        raise BenchError(f"no wzflow sources under {os.path.join(ROOT, 'src')}")
    env = thread_env()
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    load_before = os.getloadavg()
    req = {"workload": workload, "size": size, "seed": seed, "first_index": 0}
    results = []
    if trace:
        import_s, import_scipy_s = import_probe(
            workloads.WORKLOADS[workload].entry, env, deadline)
        budget = max(seconds - (time.monotonic() - start), 1.0)
        results.append(run_worker(dict(req, mode="trace", budget_s=budget), env, deadline))
        metrics = trace_metrics(results[0], import_s, import_scipy_s)
        units = {k: layer_unit(k) for k in metrics}
        n_timed = len(results[0]["op_walls"])
    else:
        n = workloads.WORKLOADS[workload].workers
        for i in range(n):
            remaining = seconds - (time.monotonic() - start)
            # on a slow host, start no worker that cannot reach its first op
            # in time; only the first worker must time an op after its first,
            # so that op_p50_s has a sample
            if results and remaining < results[-1]["setup_s"] + results[-1]["first_op_s"]:
                break
            req.update(mode="e2e", budget_s=max(remaining / (n - i), 0.0),
                       min_warm=0 if results else 1)
            probe = calibrate.import_s(env, ROOT, max(deadline - time.monotonic(), 1.0))
            r = run_worker(req, env, deadline)
            r["import_s"] = probe
            req["first_index"] += r["attempted"]
            results.append(r)
        metrics, raw, n_timed, host_speed = e2e_metrics(results)
        units = dict(E2E_UNITS)
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "nproc": len(os.sched_getaffinity(0)), "versions": versions(),
        "thread_env": {k: v for k, v in env.items() if k.endswith("_THREADS")},
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "workers": len(results), "ops_attempted": attempted, "ops_timed": n_timed,
        "failed": len(failures), "fail_ratio": len(failures) / attempted,
        "work_per_op": results[0]["work_per_op"], "work_unit": results[0]["work_unit"],
        "wall_s": time.monotonic() - start, "metrics": metrics, "units": units,
        "failures": failures[:20],
    }
    if trace:
        record["shares"] = results[0]["extra"]["share"]
        record["bitwise"] = results[0]["extra"].get("bitwise")
    else:
        record["unscaled"] = raw
        record["host_speed"] = host_speed
    return record


def report_lines(rec):
    lines = [f"# {rec['workload']} seed={rec['seed']} size={rec['size']} "
             f"trace={rec['trace']} wall={rec['wall_s']:.1f}s nproc={rec['nproc']} "
             f"versions={rec['versions']}",
             f"# threads={rec['thread_env']} load before={rec['loadavg_before']} "
             f"after={rec['loadavg_after']}",
             f"# workers={rec['workers']} ops attempted={rec['ops_attempted']} "
             f"timed={rec['ops_timed']} failed={rec['failed']} "
             f"fail_ratio={rec['fail_ratio']:.4g} failed/attempted",
             f"# work per op: {rec['work_per_op']} {rec['work_unit']}"]
    for name, value in rec["metrics"].items():
        extra = ""
        if name == "op_p50_s":
            extra = (f"  (n={rec['ops_timed']} ops; "
                     f"{rec['work_per_op'] / value:.4g} {rec['work_unit']}/s)")
        lines.append(f"{name:44s} {value:14.6g} {rec['units'][name]}{extra}")
    if "host_speed" in rec:
        lines.append(f"# host speed {rec['host_speed']:.4g} of the reference; unscaled: "
                     + ", ".join(f"{k} {v:.6g} s" for k, v in rec["unscaled"].items()))
    if rec.get("shares"):
        lines.append("# share of traced op time: "
                     + ", ".join(f"{k} {v:.1%}" for k, v in rec["shares"].items()))
    if rec.get("bitwise"):
        lines.append("# artifacts bitwise equal to the reference at the default seed: "
                     f"{rec['bitwise']['matched']} of {rec['bitwise']['total']}")
    lines += [f"# FAILED {f.strip()}" for f in rec["failures"]]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--selftest", action="store_true",
                    help="checker tests plus a smoke run of every workload")
    args = ap.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        rec = bench(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    name = f"record_{args.workload}_{args.size}_s{args.seed}_t{args.trace}.json"
    with open(os.path.join(workloads.OUT_DIR, name), "w") as fh:
        json.dump(rec, fh, indent=1)
    for line in report_lines(rec):
        print(line)
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["ops_attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": rec["units"][k]} for k, v in rec["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
