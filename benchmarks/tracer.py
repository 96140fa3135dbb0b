"""Spans around wzflow's public functions, installed from outside the package.

Every function defined in a traced wzflow module is wrapped once, and every
module attribute across ``wzflow.*`` that *is* that function object is
replaced by the wrapper, so names bound by ``from .phase import wz_flow`` in
another module are traced too.  A few methods and constructors are wrapped on
their class, and the ``numpy.fft`` transforms are wrapped to count FFTs made
inside wzflow spans.

A span is ``(name, start, end, parent, op)``: ``parent`` indexes the span that
was open when it started (-1 for none) and ``op`` is the benchmark op id.
Spans stay in memory until ``write_spans`` is called after the measurement.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("noise", "phase", "fields", "density", "vlasov", "snls", "bridge",
           "studies", "cli")

# private functions that carry a per-layer metric of their own
PRIVATE = {"density": ("_weighted_laplacian_apply",), "cli": ("_csv_rows",)}

# (module, class, method) wrapped on the class
METHODS = (
    ("vlasov", "TestFunction", "value"),
    ("vlasov", "TestFunction", "dx"),
    ("vlasov", "TestFunction", "dp"),
    ("vlasov", "TestFunction", "dpp"),
    ("noise", "WongZakaiMesh", "__post_init__"),
    ("noise", "WienerField", "increment"),
    ("snls", "WaveField", "__post_init__"),
)

FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft",
             "rfftn", "irfftn", "hfft", "ihfft")

FFT_SPAN = "numpy.fft"

# integrators whose steps and path-steps are counted from their results
FLOWS = ("phase.wz_flow", "phase.strat_flow", "phase.variational_flow")


class Tracer:
    """Collects spans and per-span-name counters for one worker process."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, op)
        self.stack = []          # indices into self.spans of open spans
        self.op = -1
        self.steps = {}          # name -> integrator steps
        self.path_steps = {}     # name -> steps x batch
        self.fft_bytes = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def _count_flow(self, name):
        def on_result(args, result):
            n = len(result.times) - 1
            batch = int(np.prod(result.xs.shape[1:-1], dtype=np.int64))
            self.steps[name] = self.steps.get(name, 0) + n
            self.path_steps[name] = self.path_steps.get(name, 0) + n * batch
        return on_result

    def _count_fft(self, args, out):
        if self.stack:  # only transforms made inside a wzflow span
            self.fft_bytes += np.asarray(args[0]).nbytes + np.asarray(out).nbytes

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the functions, methods and FFTs; ``uninstall`` restores them."""
        mods = {m: importlib.import_module(f"wzflow.{m}") for m in MODULES}
        wrapped = {}  # id of the original function -> its wrapper
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(mname, ()):
                    continue
                name = f"{mname}.{attr}"
                hook = self._count_flow(name) if name in FLOWS else None
                wrapped[id(obj)] = self._wrap(name, obj, hook)
        # rebind every module attribute that is a wrapped function, including
        # names imported into other modules
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(mod, attr, wrapper)
        for mname, cname, meth in METHODS:
            cls = getattr(mods[mname], cname)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(f"{mname}.{cname}.{meth}", fn))
        for fname in FFT_FUNCS:
            fn = getattr(np.fft, fname)
            self._patch(np.fft, fname, self._wrap(FFT_SPAN, fn, self._count_fft))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reduction -----------------------------------------------------------

    def reset_counters(self):
        self.steps.clear()
        self.path_steps.clear()
        self.fft_bytes = 0

    def op_summary(self, first_span, op_wall):
        """Per-name calls and self time over spans recorded since
        ``first_span``, plus the share of ``op_wall`` outside any span."""
        spans = self.spans[first_span:]
        base = first_span
        child = [0.0] * len(spans)
        calls, self_s = {}, {}
        fft_calls = 0
        top = 0.0
        for name, start, end, parent, _ in spans:
            dur = end - start
            if parent >= base:
                child[parent - base] += dur
            elif parent == -1 and name != FFT_SPAN:
                top += dur
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name == FFT_SPAN and parent == -1:
                continue  # FFT made by the benchmark itself, not by wzflow
            if name == FFT_SPAN:
                fft_calls += 1
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        return {
            "calls": calls,
            "self_s": self_s,
            "fft_calls": fft_calls,
            "fft_bytes": self.fft_bytes,
            "steps": dict(self.steps),
            "path_steps": dict(self.path_steps),
            "unattributed_frac": max(op_wall - top, 0.0) / op_wall,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def _sum(d, names):
    return sum(d.get(n, 0) for n in names)


BATTERY = tuple(f"vlasov.TestFunction.{m}" for m in ("value", "dx", "dp", "dpp"))
SPECTRAL = tuple(f"fields.{f}" for f in ("grad_components", "divergence", "laplacian", "dealias"))
WRITERS = ("cli._csv_rows", "fields.field_to_csv", "snls.wave_to_csv",
           "vlasov.residual_table_to_csv", "studies.report_to_csv",
           "studies.report_to_json", "studies.probability_table_to_csv",
           "noise.path_to_csv")
STUDY = ("studies.strong_convergence_study", "studies.probability_convergence_study",
         "studies.fit_order")


def layer_metrics(s):
    """Map one op's ``op_summary`` to the per-layer metric names."""
    calls, self_s, steps, psteps = s["calls"], s["self_s"], s["steps"], s["path_steps"]

    def us_per_step(name):
        n = steps.get(name, 0)
        return 1e6 * self_s.get(name, 0.0) / n if n else 0.0

    snls_steps = calls.get("snls.step", 0)
    return {
        "noise.sample_brownian.calls": calls.get("noise.sample_brownian", 0),
        "noise.sample_brownian.self_s": _sum(self_s, ("noise.sample_brownian", "noise.refine")),
        "noise.wz_mesh.builds": calls.get("noise.WongZakaiMesh.__post_init__", 0),
        "noise.wz_eval.calls": calls.get("noise.wz_eval", 0),
        "noise.wz_eval.self_s": self_s.get("noise.wz_eval", 0.0),
        "noise.wiener_increment.calls": calls.get("noise.WienerField.increment", 0),
        "noise.wiener_increment.self_s": self_s.get("noise.WienerField.increment", 0.0),
        "phase.wz_flow.calls": calls.get("phase.wz_flow", 0),
        "phase.wz_flow.self_s": self_s.get("phase.wz_flow", 0.0),
        "phase.wz_flow.path_steps": psteps.get("phase.wz_flow", 0),
        "phase.wz_flow.us_per_step": us_per_step("phase.wz_flow"),
        "phase.strat_flow.calls": calls.get("phase.strat_flow", 0),
        "phase.strat_flow.self_s": self_s.get("phase.strat_flow", 0.0),
        "phase.strat_flow.path_steps": psteps.get("phase.strat_flow", 0),
        "phase.strat_flow.us_per_step": us_per_step("phase.strat_flow"),
        "phase.variational_flow.calls": calls.get("phase.variational_flow", 0),
        "phase.variational_flow.self_s": self_s.get("phase.variational_flow", 0.0),
        "fields.fft_calls": s["fft_calls"],
        "fields.fft_bytes_computed": s["fft_bytes"],
        "fields.fft.self_s": self_s.get(FFT_SPAN, 0.0),
        "fields.spectral_ops.calls": _sum(calls, SPECTRAL),
        "fields.spectral_ops.self_s": _sum(self_s, SPECTRAL),
        "density.whf_step.calls": calls.get("density.generalized_whf_step", 0),
        "density.whf_step.self_s": self_s.get("density.generalized_whf_step", 0.0),
        "density.elliptic_solve.calls": calls.get("density.elliptic_solve", 0),
        "density.elliptic_solve.self_s": self_s.get("density.elliptic_solve", 0.0),
        "density.laplacian_applies": calls.get("density._weighted_laplacian_apply", 0),
        "density.el_residual.self_s": self_s.get("density.el_residual", 0.0),
        "density.pushforward_jacobian.self_s": self_s.get("density.pushforward_jacobian", 0.0),
        "vlasov.battery.evals": _sum(calls, BATTERY),
        "vlasov.battery.self_s": _sum(self_s, BATTERY),
        "vlasov.weak_residual_second_order.self_s":
            self_s.get("vlasov.weak_residual_second_order", 0.0),
        "vlasov.first_order.self_s": self_s.get("vlasov.weak_residual_first_order", 0.0),
        "snls.step.calls": snls_steps,
        "snls.step.self_s": self_s.get("snls.step", 0.0),
        "snls.step.us_per_step":
            1e6 * self_s.get("snls.step", 0.0) / snls_steps if snls_steps else 0.0,
        "snls.wave_field.builds": calls.get("snls.WaveField.__post_init__", 0),
        "snls.energy.calls": calls.get("snls.energy", 0),
        "snls.energy.self_s": self_s.get("snls.energy", 0.0),
        "snls.wz_convergence_study.self_s": self_s.get("snls.wz_convergence_study", 0.0),
        "bridge.step.calls": calls.get("bridge.bridge_step", 0),
        "bridge.step.self_s": self_s.get("bridge.bridge_step", 0.0),
        "bridge.fb_residual.self_s": self_s.get("bridge.fb_residual", 0.0),
        "studies.study.self_s": _sum(self_s, STUDY),
        "studies.bootstrap.calls": calls.get("studies.bootstrap_rms_ci", 0),
        "studies.bootstrap.self_s": self_s.get("studies.bootstrap_rms_ci", 0.0),
        "cli.parse_config.self_s": self_s.get("cli.parse_config", 0.0),
        "cli.emit_manifest.self_s": self_s.get("cli.emit_manifest", 0.0),
        "cli.write.self_s": _sum(self_s, WRITERS),
        "trace.unattributed_frac": s["unattributed_frac"],
    }
