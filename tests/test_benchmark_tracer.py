"""The benchmark tracer installs on the package as it stands: every method it
wraps by name is still defined on its class, and every integrator it counts
steps for is still a module function. A rename or deletion fails here
instead of in every traced benchmark run."""

import importlib
import importlib.util
import pathlib

import numpy as np

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"wzflow.{module}"), attr)


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer()
    originals = {name: resolve(name) for name in tracer.FLOWS}
    fft = np.fft.fft
    t = tracer.Tracer()
    try:
        t.install()  # looks up every METHODS entry in its class __dict__
        for name in tracer.FLOWS:
            assert resolve(name).__wrapped__ is originals[name]
        assert np.fft.fft.__wrapped__ is fft
    finally:
        t.uninstall()
    assert {name: resolve(name) for name in tracer.FLOWS} == originals
    assert np.fft.fft is fft
