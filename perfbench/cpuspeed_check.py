"""Does the program's own work slow the reference kernel of cpuspeed.py?

    python3 perfbench/cpuspeed_check.py

The timer-driven kernel runs inside the benchmark's process, between the
program's own instructions, so a program with a larger working set could
evict the kernel's data and slow it, which would shrink the rescaled time
and hide part of a slowdown. ``cpuspeed.kernel_seconds`` therefore runs
the kernel once untimed and times a second run. This check runs the batch
of every workload, and two control calls, with both of those runs timed
and another sample straight after them. They are a fraction of a
millisecond apart, so they share one CPU speed. It prints, over the
first run's and over the timed run's time, the ratio to the later
sample: the first shows how much the preceding work slows a cold kernel,
the second how much of that is left in the sample the benchmark uses. The
controls are a small-vector numpy loop like the kernel itself and a loop
that streams through 16 MB arrays, far beyond the CPU caches.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time

import numpy as np

from run import _null_span, import_program

_SMALL = np.random.default_rng(1).random((48, 48)) * 0.05
_BIG = np.ones((2, 2 * 1024 * 1024))  # two 16 MB rows


def small_vectors() -> None:
    v = np.full(48, 0.1)
    for _ in range(200000):
        v = np.tanh(v @ _SMALL + 0.1)


def streaming() -> None:
    out = np.empty_like(_BIG[0])
    for _ in range(400):
        np.add(_BIG[0], _BIG[1], out=out)


def main() -> int:
    import_program()
    import cpuspeed
    import workloads

    ratios: dict[str, tuple[list[float], list[float]]] = {}
    label = [""]
    measure = cpuspeed.kernel_seconds

    def timed_pair() -> float:
        t0 = time.perf_counter()
        cpuspeed._kernel()
        t1 = time.perf_counter()
        cpuspeed._kernel()
        t2 = time.perf_counter()
        later = measure()
        cold, warm = ratios.setdefault(label[0], ([], []))
        cold.append((t1 - t0) / later)
        warm.append((t2 - t1) / later)
        return t2 - t1

    cpuspeed.kernel_seconds = timed_pair
    calls = [(name, lambda w=w: w.run(w.setup(0, _null_span), workloads.PhaseLog()))
             for name, w in workloads.WORKLOADS.items()]
    for name, fn in calls + [("small-vectors", lambda: cpuspeed.timed(small_vectors)),
                             ("streaming", lambda: cpuspeed.timed(streaming))]:
        label[0] = name
        fn()
        cold, warm = ratios[name]
        print(f"{name}: over the later sample, the first run reads "
              f"{statistics.fmean(cold):.3f} (median {statistics.median(cold):.3f}), "
              f"the timed run {statistics.fmean(warm):.3f} "
              f"(median {statistics.median(warm):.3f}); {len(cold)} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
