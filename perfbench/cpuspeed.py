"""How fast the CPU runs while a call runs, from a fixed reference kernel.

On a shared virtual machine the speed of a vCPU drifts with its
neighbours' load: on the 2-vCPU VM this benchmark was tuned on, the same
code ran anywhere from 1x to 2.7x its fastest time, in spells lasting from
a fraction of a second to more than thirty seconds. So the benchmark times
each phase call while a timer signal runs a short kernel every
``INTERVAL`` seconds, and rescales the call's time (minus the kernel's) to
the speed at which the kernel takes ``REFERENCE_SECONDS``. The kernel is
plain numpy on small vectors driven by an interpreter loop, the same kind
of work the program does, and it calls no program code. It runs twice per
sample and only the second run is timed. Run cold, straight after the
program's work, it read 4-16% slower (medians) on the benchmark's
workloads and 46-50% slower after a loop streaming through 16 MB arrays, so
a change that grew the program's working set would have slowed the kernel
and hidden part of its own cost; the timed second run reads within 2.5%
(medians) of a later sample in every case. ``cpuspeed_check.py``
measures this.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
REFERENCE_SECONDS = 0.00017  # kernel time at the tuning VM's fast speed
_MATRIX = np.random.default_rng(0).random((32, 32)) * 0.1


def _kernel() -> None:
    v = np.full(32, 0.1)
    last = {}
    for i in range(80):
        v = np.tanh(v @ _MATRIX + 0.1)
        last[i % 7] = float(v[0])


def kernel_seconds() -> float:
    """Seconds of one kernel run, timed after an untimed run that brings
    the kernel's code and data back into the caches, so that the work the
    program did just before does not slow the timed run."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def timed(fn, *args, **kwargs):
    """Call ``fn``; return (result, raw seconds, seconds at the reference speed).

    Raw seconds exclude the kernel runs made during the call. The speed
    over the call is the mean of the kernel's speed before, during and
    after it.
    """
    samples = [kernel_seconds()]
    spent = 0.0

    def tick(_signum, _frame):
        nonlocal spent
        t0 = time.perf_counter()
        samples.append(kernel_seconds())
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    try:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0 - spent
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(kernel_seconds())
    return result, raw, raw * statistics.fmean(REFERENCE_SECONDS / s for s in samples)
