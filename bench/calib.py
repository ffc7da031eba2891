"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared virtual machines whose vCPUs slow down and
speed up by a quarter or more, over seconds and over minutes, independently
of each other. Timing the program alone measures that drift as much as the
program. So the driver stops each timed run every few tenths of a second,
times one slice of a fixed pure-Python reference loop on each CPU the run
uses while it is stopped, and reports every time metric at a reference
speed:

    time at reference speed = measured time * REF_SLICE_S / mean slice time

The reference loop uses the standard library only, never dynctl, so no
change to the program under test can move it. It does what dynctl's sweeps
do: iterate a rational map over Q with Fraction arithmetic on growing
integers, and it builds and sorts a table of small objects."""

from __future__ import annotations

import os
from fractions import Fraction
from time import perf_counter

# Seconds of one slice on a 2-vCPU Intel Xeon VM, Python 3.11.7, at its usual speed.
# Only the ratio between a slice now and this figure matters: it makes the
# reported times read as seconds on that machine at its usual speed.
REF_SLICE_S = 0.0227
# The value slice_work() returns; a different one means the loop went wrong.
SLICE_CHECK = 687095


def slice_work() -> int:
    """One slice of the reference loop: a degree-2 map over Q, eight steps
    from each of 96 basepoints, then a dict of 6000 Fractions sorted by key,
    which is the many-small-objects side of dynctl's sweeps."""
    acc = 0
    for start in range(1, 97):
        x = Fraction(start, start + 7)
        for _ in range(8):
            x = (x * x - 3) / (2 * x + 1)
        acc += x.denominator.bit_length()
    table = {((i * 7919) % 100003, i & 255): Fraction(i, 97) for i in range(6000)}
    for key, value in sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0]))[::500]:
        acc += key[0] + value.denominator
    return acc


def burst() -> list[float]:
    """Time one slice pinned to each CPU the calling thread may use, in turn,
    then restore its affinity. Returns every slice's seconds."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            t0 = perf_counter()
            check = slice_work()
            times.append(perf_counter() - t0)
            if check != SLICE_CHECK:
                raise RuntimeError(f"calibration slice returned {check}, "
                                   f"expected {SLICE_CHECK}")
    finally:
        os.sched_setaffinity(0, allowed)
    return times
