"""Host speed reference: a fixed kernel timed next to every measurement.

The hosts this benchmark runs on are shared. Each CPU switches between
a fast state and states 1.6 to 2 times slower (as when a busy
neighbour shares its core) within a second, and can stay slow for
minutes; process CPU time slows with it, so no statistic over the
workload's own timings removes it. The benchmark therefore times this
kernel on the CPUs the workload runs on, about every 0.2 seconds of
workload (and inside each set-up interpreter), and scales every timing
by ``REFERENCE_S / kernel time``: a timing is reported as it would read
on a host that runs the kernel in ``REFERENCE_S`` seconds. A
single-threaded workload is pinned to one CPU so that the kernel times
the CPU its work runs on.

The kernel does not touch the footrule package, so a change to the
package moves the scaled timings as much as the raw ones. Its mix
follows the workloads. Half its time is interpreter work (dicts, string
formatting) and many small numpy calls with Philox generators, as in
the simulation loop. The other half allocates a few megabytes of int16
and streams through them, as the exact law does. Timed next to each
operation, interpreter work alone tracks the slowdowns of the
simulating workloads, and streaming those of stat_exact; the two
together track all three about as well as the best mix for each.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# Kernel seconds on a 2-vCPU Xeon VM in a quiet period, Python 3.11,
# numpy 2.4; on such a host the scaled timings equal the raw ones.
REFERENCE_S = 0.0075
REPEATS = 3
STREAM_ROWS = 60_000


def _kernel() -> float:
    total = 0.0
    table: dict[int, int] = {}
    for i in range(1_500):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += len(f"{i!r},{key!r}")
    for key in range(75):
        rng = np.random.Generator(np.random.Philox(key=key))
        x = rng.random(16)
        total += float(np.argsort(x)[0]) + float(np.abs(x - x.mean()).sum())
    rows = np.empty((STREAM_ROWS, 10), dtype=np.int16)
    rows[:] = np.arange(10, dtype=np.int16)[::-1]
    dists = np.abs(rows - np.arange(10, dtype=np.int16)).sum(axis=1)
    total += float(np.bincount(dists).argmax())
    return total


def _median_seconds(repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin_to_one_cpu() -> None:
    """Keep the calling thread on one CPU, where the kernel will also run."""
    cpus = _cpus()
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[:1])


def kernel_seconds(repeats: int = REPEATS) -> float:
    """Kernel time now: the median of `repeats` calls.

    Timed on each CPU the calling thread may use, in turn, and averaged.
    """
    cpus = _cpus()
    if len(cpus) <= 1:
        return _median_seconds(repeats)
    try:
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, [cpu])
            per_cpu.append(_median_seconds(repeats))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)

