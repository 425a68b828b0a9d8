"""Stdlib reference combinatorics that the benchmark makes and checks inputs with.

Nothing here imports the package under test. Partitions are plain tuples of
weakly decreasing positive parts. Oddness is decided by the hook length
formula alone (the 2-adic valuation of the degree is nu2(n!) minus the sum of
nu2 over all hook lengths), and odd partitions are built from their 2-core
towers on the abacus, so a convention bug in the package cannot be copied
into the benchmark's expectations.
"""

from __future__ import annotations

import itertools
import random


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[n - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


def odd_count(n: int) -> int:
    """Number of odd partitions of n: 2 to the sum of the exponents of n's binary digits."""
    return 1 << sum(j for j in range(n.bit_length()) if n >> j & 1)


def verify_checks(n_max: int) -> int:
    """The number of checks `oddmaps verify --max-n n_max` must report: one
    oddness check per partition and one map check per odd partition and k."""
    p = partition_counts(n_max)
    total = 0
    for n in range(1, n_max + 1):
        ks = sum(1 for k in range(n.bit_length()) if (1 << k) < n)
        total += p[n] + odd_count(n) * ks
    return total


def all_partitions(n: int):
    """Every partition of n, in descending lexicographic order."""
    def rec(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return rec(n, n)


def is_odd_degree(parts: tuple[int, ...]) -> bool:
    """True iff the character labelled by ``parts`` has odd degree."""
    n = sum(parts)
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    hook_nu2 = 0
    for i, row in enumerate(parts):
        for j in range(row):
            h = (row - j) + (cols[j] - i) - 1
            hook_nu2 += (h & -h).bit_length() - 1
    return hook_nu2 == n - bin(n).count("1")


def beta(parts: tuple[int, ...], size: int) -> list[int]:
    """The ``size`` beta numbers (abacus bead positions) of ``parts``."""
    return [(parts[i] if i < len(parts) else 0) + size - 1 - i for i in range(size)]


def from_beta(beads) -> tuple[int, ...]:
    beads = sorted(beads, reverse=True)
    s = len(beads)
    return tuple(p for p in (b - (s - 1 - i) for i, b in enumerate(beads)) if p > 0)


def _compose(core_one: bool, q0: tuple[int, ...], q1: tuple[int, ...]) -> tuple[int, ...]:
    """The partition with 2-core () or (1,) and 2-quotient (q0, q1)."""
    s = 2 * (max(len(q0), len(q1)) + 1)
    core_beads = beta((1,) if core_one else (), s)
    beads = []
    for r, q in ((0, q0), (1, q1)):
        runner = sum(1 for b in core_beads if b % 2 == r)
        beads += [2 * x + r for x in beta(q, runner)]
    return from_beta(beads)


def odd_partition_at(n: int, choice: dict[int, int]) -> tuple[int, ...]:
    """The odd partition of n whose 2-core tower holds its single cell of row
    j at position ``choice[j]`` (0 <= choice[j] < 2^j), for each binary digit
    2^j of n. Distinct choices give distinct partitions."""
    def node(row: int, index: int) -> tuple[int, ...]:
        if not any(j >= row and p >> (j - row) == index for j, p in choice.items()):
            return ()
        return _compose(choice.get(row) == index, node(row + 1, 2 * index), node(row + 1, 2 * index + 1))
    return node(0, 0)


def _digits(n: int) -> list[int]:
    return [j for j in range(n.bit_length()) if n >> j & 1]


def random_odd_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniformly random odd partition of n (every tower position equally likely)."""
    return odd_partition_at(n, {j: rng.randrange(1 << j) for j in _digits(n)})


def all_odd_partitions(n: int) -> list[tuple[int, ...]]:
    """Every odd partition of n, descending lexicographic."""
    exps = _digits(n)
    found = [
        odd_partition_at(n, dict(zip(exps, pos)))
        for pos in itertools.product(*(range(1 << j) for j in exps))
    ]
    return sorted(found, reverse=True)


def remove_odd_hook(parts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Slide the one bead that removes a 2^k-hook and leaves an odd partition."""
    step = 1 << k
    beads = set(beta(parts, len(parts)))
    found = [
        mu
        for b in beads
        if b >= step and b - step not in beads
        for mu in (from_beta(beads - {b} | {b - step}),)
        if is_odd_degree(mu)
    ]
    if len(found) != 1:
        raise ValueError(f"{parts} has {len(found)} odd 2^{k}-hook removals")
    return found[0]


def predicted_commute(n: int, k: int, l: int) -> bool:
    """The source paper's closed criterion, restated: the removals at k < l
    disagree somewhere on n iff l < t and 2^k <= m, where 2^t is n's largest
    binary digit and m = n - 2^t, except at (6; 0, 1)."""
    if (n, k, l) == (6, 0, 1):
        return True
    t = n.bit_length() - 1
    return not (l < t and (1 << k) <= n - (1 << t))
