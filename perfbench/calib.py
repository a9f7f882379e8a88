"""Calibration: the yardstick that end-to-end times are divided by.

The shared VM this benchmark targets changes speed over seconds to tens of
seconds, so raw wall times of identical code drift by tens of percent between
runs.  A fixed loop owned by the benchmark (Python calls around small dense
numpy kernels, like spdflow's hot paths) slows down with the machine, so an
op time divided by the loop's time stays put when the machine changes speed.

The loop runs in short slices: one just before the op, one just after it,
and one every PERIOD_S seconds during it, from a SIGALRM handler.  Slices
taken only before and after a multi-second op miss speed changes inside it:
on the reference machine the per-op ratio then spread by 16-19% (quartile
distance over median) and op time grew only as the 0.65 power of loop time;
with slices during the op the spread fell to 5-9% and the power was 1.0.
The time spent in slices during the op is subtracted from the op's time.
"""

import signal
import statistics
import time

import numpy as np

# Rounds of the fixed loop in one slice, and the slice period during an op.
SLICE_ROUNDS = 25
PERIOD_S = 0.1
# Median duration of one slice on the reference machine (2-core x86-64 VM,
# Python 3.11, numpy 2.4 on single-threaded OpenBLAS).  Microbenchmark times
# are scaled to this speed: us * SLICE_NOMINAL_S / measured slice time.
SLICE_NOMINAL_S = 2.5e-3


def _inputs():
    rng = np.random.default_rng(12345)
    mats = []
    for n in (2, 3, 8):
        W = rng.standard_normal((n, n))
        mats.append((0.3 * W, W @ W.T + n * np.eye(n)))
    return mats


_MATS = _inputs()


def cal_slice() -> float:
    """Run one slice of the fixed loop and return its wall time in seconds."""
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(SLICE_ROUNDS):
        for M, S in _MATS:
            T = 0.5 * (M @ S + S @ M.T)
            acc += float(np.linalg.eigvalsh(S + 0.1 * T)[0])
            acc += float(np.linalg.solve(S, T)[0, 0])
            acc += float(np.abs(T).sum(axis=0).max())
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):  # keeps the loop's results live
        raise FloatingPointError("calibration loop produced a non-finite sum")
    return elapsed


def timed_call(fn, during=True):
    """Call fn(); return (its seconds net of slices, mean slice seconds).

    With ``during`` false only the slices just before and just after the
    call are taken.
    """
    slices = [cal_slice()]
    inside = []  # (start, duration) of the slices taken during the call

    def on_alarm(signum, frame):
        start = time.perf_counter()
        inside.append((start, cal_slice()))

    previous = signal.signal(signal.SIGALRM, on_alarm) if during else None
    t0 = time.perf_counter()
    try:
        if during:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        fn()
    finally:
        if during:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        t1 = time.perf_counter()
        if during:
            signal.signal(signal.SIGALRM, previous)
    # A handler may still run after t1; its slice was not inside the call.
    inside_s = [d for start, d in inside if start < t1]
    slices += [d for _, d in inside]
    slices.append(cal_slice())
    return t1 - t0 - sum(inside_s), statistics.fmean(slices)
