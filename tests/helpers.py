"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from typing import Iterator

from oddmaps import CommuteInstance, Partition, fiber
from oddmaps.reference import _nu2_degree_parts


def random_partition(rng: random.Random, max_size: int) -> Partition:
    """A quick non-uniform sampler: greedy parts under a decreasing cap."""
    n = rng.randint(0, max_size)
    parts = []
    remaining, cap = n, n
    while remaining:
        p = rng.randint(1, min(cap, remaining))
        parts.append(p)
        cap = p
        remaining -= p
    return Partition(parts)


def commute_instances(n_max: int) -> Iterator[CommuteInstance]:
    """Every valid (n; k, l) with n <= n_max."""
    for n in range(2, n_max + 1):
        l = 1
        while (1 << l) <= n:
            for k in range(l):
                if (1 << k) + (1 << l) <= n:
                    yield CommuteInstance(n=n, k=k, l=l)
            l += 1


def slides_by_recount(x: int, step: int) -> list[int]:
    """Every slide of one bead of the bead mask ``x`` by ``step`` to a free
    position that stays odd, in increasing order. Each moved bead set is
    turned into parts here and tested from scratch by Frobenius's degree
    formula, which shares no code with the digit peel of the slide scan it
    is compared with, nor with the mask decoder."""
    beads = {b for b in range(x.bit_length()) if x >> b & 1}
    slides = []
    for b in beads:
        c = b + step
        if c < 0 or c in beads:
            continue
        # Read from the lowest, a bead's part is its position less the
        # beads below it.
        moved = sorted(beads - {b} | {c})
        parts = tuple(d - j for j, d in enumerate(moved) if d > j)[::-1]
        if _nu2_degree_parts(parts) == 0:
            slides.append(x ^ (1 << b) ^ (1 << c))
    return sorted(slides)


def odd_by_fiber_walk(rng: random.Random, n: int) -> Partition:
    """A uniformly random odd partition of n, for n too large to sample
    ``odd_partitions(n)``: walk up n's binary digits from the lowest, each
    step a random member of the fiber over the partition so far."""
    lam, m = Partition(()), 0
    for j in range(n.bit_length()):
        if n >> j & 1:
            m += 1 << j
            lam = rng.choice(fiber(lam, m, j).members)
    return lam


def vm_hwm_mb() -> float:
    """This process's peak resident memory in MB: ``VmHWM`` of
    ``/proc/self/status``, so Linux only."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def recording_executor(created: list[int]) -> type:
    """A stand-in for ``ProcessPoolExecutor`` that starts no process: it
    appends each pool size asked for to ``created`` and maps in-process."""

    class RecordingExecutor:
        def __init__(self, max_workers: int) -> None:
            created.append(max_workers)

        def __enter__(self) -> "RecordingExecutor":
            return self

        def __exit__(self, *exc_info) -> bool:
            return False

        def map(self, fn, items):
            return map(fn, items)

    return RecordingExecutor
