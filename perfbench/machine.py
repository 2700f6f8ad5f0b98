"""A fixed reference computation that measures how fast the machine is right now.

The host the benchmark was sized on (2 vCPUs shared with other guests)
changes speed by up to ±25% over tens of seconds, and whole 30-second runs
land in fast or slow periods. Process CPU time moves with wall time, so
the change is not time stolen by other guests; it slows memory-heavy and
call-heavy code alike. The reference mixes both kinds of work, the engine's
many small array operations and scene generation's large array passes, and
uses no samdistill code, so a change to the program cannot move it.

Timing the reference right before and right after each measured call and
scaling the call's time by ``NOMINAL_S / reference`` cancels most of the
host's drift: over 150 s of alternating probe calls, the median call time
of 15-second windows varied by a factor of 1.52 raw and 1.10 scaled.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The reference's median time on the host the benchmark was sized on
# (2 vCPUs, Python 3.11, numpy 2.4 with OpenBLAS). Scaled times read as
# seconds on that host at its typical speed.
NOMINAL_S = 0.020


def reference_s() -> float:
    """Run the fixed reference computation and return its wall time."""
    rng = np.random.default_rng(0x5EED)
    x = rng.normal(size=(12, 64))
    w = rng.normal(size=(64, 64))
    gc.collect()
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(600):
        h = np.maximum(x @ w, 0.0)
        acc += float(h.sum())
    for _ in range(3):
        a = rng.random((128, 128, 32))
        labels = rng.integers(-1, 12, size=(128, 128))
        ys, xs = np.nonzero(labels >= 0)
        acc += float(a[ys, xs].sum()) + float(a.astype(np.float32).max())
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference computation produced a non-finite value")
    return elapsed
