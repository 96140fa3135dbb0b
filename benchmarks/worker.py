"""One benchmark worker: a fresh interpreter that sets up one workload and
runs ops until its time budget is spent.

    python3 benchmarks/worker.py '<json request>'

The request names the workload, the size, the seed, the first op index, the
time budget in seconds, the mode (``e2e`` or ``trace``) and, for ``e2e``, how
many ops after the first to run even past the budget.  The worker prints one
JSON object on its last stdout line.  ``setup_s`` runs from the top of
this file, before numpy or wzflow is imported, to the first op.  In ``e2e``
mode a run of the calibration kernel (``calibrate.py``) follows the set-up and
every op; their times are returned as ``cals``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (imports numpy, never wzflow)
import tracer  # noqa: E402
import workloads  # noqa: E402


def _load_reference(size):
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh).get(size, {})


class Runner:
    def __init__(self, req, workload, ctx):
        self.req = req
        self.w = workload
        self.ctx = ctx
        self.index = req["first_index"]
        self.ref = {}
        if req["seed"] == workloads.REFERENCE_SEED:
            self.ref = _load_reference(req["size"]).get(workload.name, {}).get("ops", {})
        self.attempted = 0
        self.failures = []
        self.next_inputs = None

    def prepare_next(self):
        seed = workloads.op_seed(self.req["seed"], self.index)
        self.next_inputs = self.w.prepare(self.ctx, seed)

    def op(self, after=None):
        """Run, time and check the next op; returns its wall time."""
        inputs, index = self.next_inputs, self.index
        self.attempted += 1
        self.index += 1
        result = None
        start = time.perf_counter()
        try:
            result = self.w.run(self.ctx, inputs)
        except Exception:  # an op that raises is a failed op, not a crash
            wall = time.perf_counter() - start
            self.failures.append(f"op {index}: {traceback.format_exc(limit=3)}")
        else:
            wall = time.perf_counter() - start
            problems = self.w.check(self.ctx, inputs, result)
            ref = self.ref.get(str(index))
            if ref is not None and not problems:
                problems = workloads.compare_reference(
                    ref, self.w.key_numbers(result, inputs))
            if problems:
                self.failures.append(f"op {index}: " + "; ".join(problems))
        if after is not None and result is not None:
            after(inputs, result)
        self.w.finish(self.ctx, inputs, result)
        return wall


def main():
    req = json.loads(sys.argv[1])
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isfile(os.path.join(src, "wzflow", "__init__.py")):
        print(f"wzflow sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    w = workloads.WORKLOADS[req["workload"]]
    ctx = w.setup(req["size"])
    mod = sys.modules["wzflow"]
    if not os.path.abspath(mod.__file__).startswith(src + os.sep):
        print(f"wzflow imported from {mod.__file__}, not {src}", file=sys.stderr)
        return 2
    run = Runner(req, w, ctx)
    run.prepare_next()
    setup_s = time.perf_counter() - T0

    budget = req["budget_s"]
    e2e = req["mode"] == "e2e"
    cals = []
    if e2e:
        calibrate.warm_up()
        cals.append(calibrate.kernel_s())
    first = run.op()
    walls, traced, layers = [], [], []
    extra = {}

    def time_left(est):
        return time.perf_counter() - T0 + est <= budget

    if e2e:
        cals.append(calibrate.kernel_s())
        cal_s = calibrate.SETTLE_S + statistics.median(cals)
        while True:
            est = (statistics.median(walls) if walls else first) + cal_s
            if len(walls) >= req["min_warm"] and not time_left(est):
                break
            run.prepare_next()
            walls.append(run.op())
            cals.append(calibrate.kernel_s())
    else:
        tr = tracer.Tracer()
        summaries = []
        bytes_written = []

        def collect(inputs, result):
            if hasattr(w, "bytes_written"):
                bytes_written.append(w.bytes_written(inputs))

        # alternate untraced and traced ops; at least one of each
        while True:
            est = 2 * (statistics.median(walls) if walls else first)
            if walls and traced and not time_left(est):
                break
            run.prepare_next()
            walls.append(run.op())
            run.prepare_next()
            tr.install()
            tr.op = run.index
            first_span = len(tr.spans)
            tr.reset_counters()
            try:
                wall = run.op(after=collect)
            finally:
                tr.uninstall()
            traced.append(wall)
            summaries.append(tr.op_summary(first_span, wall))
        layers = [tracer.layer_metrics(s) for s in summaries]
        extra["bytes_written"] = bytes_written
        extra["share"] = _shares(summaries, traced)
        if hasattr(w, "artifact_hashes"):
            extra["bitwise"] = _bitwise_artifacts(w, ctx, req)
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        # one file per workload, overwritten by each traced run
        tr.write_spans(os.path.join(workloads.OUT_DIR, f"spans_{w.name}.csv"))
    if hasattr(w, "teardown"):
        w.teardown(ctx)

    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "setup_s": setup_s,
        "first_op_s": first,
        "op_walls": walls,
        "cals": cals,
        "traced_walls": traced,
        "layers": layers,
        "extra": extra,
        "peak_rss_mb": peak_mib,
        "attempted": run.attempted,
        "failures": run.failures,
        "work_per_op": w.work_per_op(ctx),
        "work_unit": w.work_unit,
    }))
    return 0


def _shares(summaries, traced):
    """Median share of traced op time spent in the battery and in FFTs."""
    out = {}
    for key, names in (("battery", tracer.BATTERY), ("fft", (tracer.FFT_SPAN,))):
        vals = [sum(s["self_s"].get(n, 0.0) for n in names) / wall
                for s, wall in zip(summaries, traced)]
        out[key] = statistics.median(vals) if vals else 0.0
    return out


def _bitwise_artifacts(w, ctx, req):
    """Artifacts of the default-seed op 0 whose sha256 equals the recorded one."""
    ref = _load_reference(req["size"]).get(w.name, {}).get("sha256", {})
    inputs = w.prepare(ctx, workloads.op_seed(workloads.REFERENCE_SEED, 0))
    try:
        w.run(ctx, inputs)
        got = w.artifact_hashes(inputs)
    finally:
        w.finish(ctx, inputs, None)
    return {"matched": sum(1 for k, v in ref.items() if got.get(k) == v), "total": len(ref)}


if __name__ == "__main__":
    sys.exit(main())
