"""Host-speed calibration: a fixed kernel timed after every operation.

A share of a shared host runs at a speed that drifts by tens of percent
over seconds to minutes as other tenants' load changes, and different
kinds of work slow down by different amounts.  The kernel therefore
times three kinds of work and sums them: a pure-Python loop (the
interpreter-bound parts of every workload), NumPy calls on small arrays
from a Python loop plus text formatting and parsing (the oracle's
quadrature, tag files), and NumPy passes over arrays far larger than the
CPU caches (generation and matching), made on as many threads as the
operation uses, so that a workload that keeps both CPUs busy is
calibrated against both.  It never imports eprsim, so a
change to the program cannot change it.

It runs in the operation's own process, right after the timed calls:
the two CPUs of a shared host can run at different speeds at the same
moment, so a kernel timed in another process does not see the speed the
operation saw.  ``REF_S`` is the kernel's time at the reference host
speed; a time scaled by REF_S over the kernel's measured time is in
reference seconds.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REF_S = 0.45


def _large_arrays(n: int) -> float:
    a = np.arange(n, dtype=np.float64) * 1.000001
    acc = 0.0
    for _ in range(3):
        c = np.cumsum(np.cos(a))
        acc += float(c[np.argsort(c[::8])[0] * 8])
        a = a + c * 1e-12
    return acc


def kernel(threads: int = 1) -> float:
    """Run the fixed calibration work once; returns its wall seconds.

    ``threads`` threads each make the same large-array passes at once;
    the other parts run on the calling thread.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(360_000):
        counts[i & 511] = counts.get(i & 511, 0) + (i ^ (i >> 3))

    xs = np.linspace(0.0, 1.0, 15)
    acc = 0.0
    for i in range(6000):
        acc += float(np.sum(np.cos(xs * i) * xs)) + math.sqrt(i)
    for rep in range(6):
        # A multiplicative-congruential sequence in [0, 1), the same on every run.
        state = (np.arange(50_000, dtype=np.uint64) + np.uint64(rep)) * np.uint64(6364136223846793005)
        big = (state >> np.uint64(11)).astype(np.float64) * 2.0**-53
        ordered = np.sort(big)
        acc += float(np.cumsum(ordered)[-1])
        where = np.searchsorted(ordered, big[:10_000])
        text = "\n".join(f"{v:.9f},{k}" for v, k in zip(big[:10_000].tolist(), where.tolist()))
        acc += sum(float(line.split(",", 1)[0]) for line in text.splitlines())

    with ThreadPoolExecutor(threads) as pool:
        acc += sum(pool.map(_large_arrays, [2_000_000] * threads))

    if not (math.isfinite(acc) and len(counts) == 512):
        raise RuntimeError("calibration kernel computed a wrong result")
    return time.perf_counter() - start
