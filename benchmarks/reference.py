"""Record the reference values the benchmark compares against.

    python3 benchmarks/reference.py

Runs the first ops of every workload at the default seed, in both sizes,
checks them, and writes their key numbers (and, for ``cli_desk`` op 0, the
sha256 of every artifact) to ``benchmarks/reference.json``.  Rerun it only
when a change is meant to alter the numbers, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OPS = {"full": {"phase_study": 30, "kinetic_residual": 16, "snls_study": 16, "cli_desk": 32},
       "smoke": {name: 4 for name in workloads.WORKLOADS}}


def record(size, w, n_ops):
    ctx = w.setup(size)
    out = {"ops": {}}
    try:
        for i in range(n_ops):
            inputs = w.prepare(ctx, workloads.op_seed(workloads.REFERENCE_SEED, i))
            result = w.run(ctx, inputs)
            problems = w.check(ctx, inputs, result)
            if problems:
                raise SystemExit(f"{w.name} op {i} fails its check: {problems}")
            out["ops"][str(i)] = w.key_numbers(result, inputs)
            if i == 0 and hasattr(w, "artifact_hashes"):
                out["sha256"] = w.artifact_hashes(inputs)
            w.finish(ctx, inputs, result)
            print(size, w.name, i, flush=True)
    finally:
        if hasattr(w, "teardown"):
            w.teardown(ctx)
    return out


def main():
    ref = {size: {name: record(size, workloads.WORKLOADS[name], n)
                  for name, n in ops.items()}
           for size, ops in OPS.items()}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
