"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x within
minutes, much more than the changes it must detect.  So every timed op is
bracketed by runs of a fixed calibration kernel, and its wall time is scaled
by ``REFERENCE_S`` over the geometric mean of the two calibration times
around it: a reading in seconds of a host on which the kernel takes
``REFERENCE_S``.  The kernel is frozen here and imports no wzflow code, so a
change to wzflow cannot move it; only the host can.

Set-up is mostly importing, whose speed drifted by up to 30% within half an
hour while the kernel's did not; it follows process start-up, page faults and
file reads more than interpreter speed.  So each set-up is scaled instead by
``REFERENCE_IMPORT_S`` over the time a fresh interpreter takes to import
numpy, measured just before the worker starts.

The kernel is a batch-100 RK4 loop of a forced pendulum: per-step Python
overhead plus small numpy ufunc calls, like the inner loops of the workloads.
In side-by-side series of snls_study and kinetic_residual ops, it tracked
their times at least as well as kernels at the batch of those workloads'
arrays (256, 1000) or one built on 256-point FFTs.
"""

import gc
import math
import subprocess
import sys
import time

import numpy as np

# kernel time that scaled times refer to; any constant works.  On the
# 2-vCPU Intel Xeon VM the bounds were set on, the kernel's median moved
# between 0.14 and 0.21 s, so scaled times stay close to wall times there
REFERENCE_S = 0.15

STEPS = 2500
SETTLE_S = 0.15

# numpy import time that scaled set-up times refer to; any constant works.
# On the same host the probe's median moved between 0.09 and 0.16 s
REFERENCE_IMPORT_S = 0.09

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy; "
                 "print(time.perf_counter() - t)")


def _rk4(n_steps):
    x = np.full(100, 0.3)
    p = np.full(100, 0.7)
    h = 1e-3
    for k in range(n_steps):
        xi = 0.1 * (k % 7)

        def f(x, p):
            return p, -np.sin(x) * (1.0 + xi) + np.cos(x) * xi

        a1, b1 = f(x, p)
        a2, b2 = f(x + 0.5 * h * a1, p + 0.5 * h * b1)
        a3, b3 = f(x + 0.5 * h * a2, p + 0.5 * h * b2)
        a4, b4 = f(x + h * a3, p + h * b3)
        x = x + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        p = p + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise FloatingPointError("calibration kernel diverged")
    return x, p


def warm_up():
    """First-call costs of the ufuncs, kept out of the first reading."""
    _rk4(10)


def kernel_s():
    """Wall time of one run of the calibration kernel, taken so that it
    depends on the host and not on what the process did before."""
    # after a BLAS call, OpenBLAS worker threads spin for about 0.1 s and
    # slow this thread by up to 1.7x; wait until they sleep
    time.sleep(SETTLE_S)
    # the cost of a collection grows with the objects the workload keeps
    gc.disable()
    try:
        start = time.perf_counter()
        _rk4(STEPS)
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(wall, cal_before, cal_after):
    """``wall`` in seconds of the reference host."""
    return wall * REFERENCE_S / math.sqrt(cal_before * cal_after)


def import_s(env, cwd, timeout):
    """Time a fresh interpreter takes to import numpy."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout, check=True)
    return float(proc.stdout.strip().splitlines()[-1])
