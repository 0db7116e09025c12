"""Machine-speed correction for the benchmark's timings.

On a shared virtual machine, the same pure-Python work can run up to 1.7
times slower for minutes at a time while other tenants load the host. Raw
wall times then move more between runs than any change worth measuring.
So the benchmark times a fixed kernel before and after each operation and
scales the operation's wall time by ``REFERENCE_S`` over the kernel's mean
time around it. The kernel mixes what the program does most: a recursive
lexicographic subset walk over bitmasks (the solver) and churn of small
sets, tuples and dicts (corpus, bounds and oracle), so it slows down with
the program. Reported times are seconds at the reference speed, the speed at
which the kernel takes ``REFERENCE_S``. Raw wall times are printed too.

The kernel runs in the program's process, so it is timed with the garbage
collector switched off and then put back as the program left it: a program
change to the collector (``gc.disable``, ``gc.set_threshold``,
``gc.freeze``) then moves the program's times but not the kernel's.
"""

from __future__ import annotations

import gc
import time

# Kernel time on the reference machine (2 vCPUs of an Intel Xeon at
# 2.1 GHz, CPython 3.11.7) in its fast state.
REFERENCE_S = 0.004

_ADJ = [((i * 7919) ^ (i << 3) ^ (i >> 2)) & 0x3FFFF for i in range(18)]
_SMALL = frozenset((1, 2, 3, 5, 8, 13, 21, 34, 55))


def _walk(chosen: list[int], pos: int, need: int, mask: int, cover: int) -> int:
    # Copies ``chosen`` at every node, as the solver's search does.
    if need == 0:
        return (cover & ~mask).bit_count()
    total = 0
    for v in range(pos, 18 - need + 1):
        total += _walk(chosen + [v], v + 1, need - 1, mask | (1 << v), cover | _ADJ[v])
    return total


def _churn() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i * 7919) % 4099
        members = {key % 97, key % 89, key % 83, key % 61}
        table[(key, i & 7)] = len(members & _SMALL) + len(table) % 3
    return len(table)


def kernel_seconds() -> float:
    """Time of the fixed kernel now: the median of five runs, so that an
    interrupted or unusually lucky run does not count. The collector is
    off while the kernel runs, whatever state the program has set."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            _walk([], 0, 4, 0, 0)
            _churn()
            times.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return sorted(times)[2]


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work timed between
    two kernel runs."""
    return REFERENCE_S * 2 / (before + after)
