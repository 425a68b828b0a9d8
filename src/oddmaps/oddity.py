"""Oddness predicates, odd-partition enumeration, and goodness bookkeeping.

A partition labels an odd-degree character exactly when every row of its
2-core tower has weight at most 1. Production code decides that on the
abacus: the weight of tower row k depends only on how many beads of a
beta-set fall in each residue class mod 2^(k+1), so no tower is built.
The tower route (``core_tower`` and :func:`is_odd_via_row`) stays as the
reference that the tests and ``oddmaps verify`` compare the count against.

Two enumerators use the criterion: a filter over all partitions (reference)
and a constructive one that places a single 1-cell core in row k of the
tower for each binary digit 2^k of n and rebuilds the partition. The
constructive route is authoritative for large n; agreement of the two is a
standing test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .partition import (
    Partition,
    all_two_disjoint,
    beta_set,
    binary_digits,
    is_hook_partition,
    nu2,
    partitions_of,
)
from .quotient import (
    KData,
    QuotientTowerRow,
    core_tower,
    e_core,
    k_data,
    partition_from_kdata,
    tower_row,
)

__all__ = [
    "DnkDecomposition",
    "is_odd",
    "is_odd_via_row",
    "odd_partitions",
    "odd_partitions_by_filter",
    "d_good",
    "dnk",
]

_EMPTY = Partition(())
_ONE = Partition((1,))


@dataclass(frozen=True)
class DnkDecomposition:
    """floor(n / 2^k) split as 2^d + m with 2^(d+1) dividing m."""

    n: int
    k: int
    d: int
    m: int


def _is_odd_beta(beta: tuple[int, ...]) -> bool:
    """Oddness of the partition with beta-set ``beta``, on the abacus.

    Each entry of quotient-tower row k is read off the beads in one residue
    class r mod 2^k. Those at r and at r + 2^k mod 2^(k+1) become its even
    and odd beads, a and c of them, so its 2-core has
    a(a-1) + c^2 - (a+c)(a+c-1)/2 cells. Row k's weight is the sum over
    r < 2^k; rows with 2^k above the partition's size n weigh nothing.
    """
    s = len(beta)
    n = sum(beta) - s * (s - 1) // 2
    half = 1
    while half <= n:
        mask = 2 * half - 1
        counts = [0] * (2 * half)
        for b in beta:
            counts[b & mask] += 1
        weight = 0
        for a, c in zip(counts[:half], counts[half:]):
            weight += a * (a - 1) + c * c - (a + c) * (a + c - 1) // 2
        if weight > 1:
            return False
        half *= 2
    return True


def is_odd(lam: Partition) -> bool:
    """True iff the character labelled by ``lam`` has odd degree.

    Every 2-core tower row must have weight at most 1; the empty partition
    counts as odd.
    """
    return _is_odd_beta(beta_set(lam))


def is_odd_via_row(lam: Partition, k: int) -> bool:
    """Oddness decided from tower row k alone.

    Requires: core rows below k each weigh at most 1, all row-k entries are
    odd, and their sizes are pairwise 2-disjoint. Agrees with
    :func:`is_odd` for every k.
    """
    if k < 0:
        raise ValueError("row index must be non-negative")
    tower = core_tower(lam)
    if any(tower.weight(j) > 1 for j in range(k)):
        return False
    row = tower_row(lam, k)
    if not all(is_odd(p) for p in row.entries):
        return False
    return all_two_disjoint(row.sizes)


@lru_cache(maxsize=None)
def odd_partitions(n: int) -> tuple[Partition, ...]:
    """All odd partitions of n, descending lexicographic.

    Constructive enumeration: for each binary digit 2^j of n choose which
    of the 2^j cores in tower row j is the single cell, then rebuild the
    partition from that tower data. Produces exactly prod(2^j) partitions.
    """
    if n < 0:
        raise ValueError("partitions are defined for non-negative integers")
    if n == 0:
        return (_EMPTY,)
    exponents = [d.bit_length() - 1 for d in binary_digits(n)]
    t = max(exponents)
    found = []
    for choice in itertools.product(*(range(1 << j) for j in exponents)):
        core_rows = [[_EMPTY] * (1 << j) for j in range(t + 1)]
        for j, pos in zip(exponents, choice):
            core_rows[j][pos] = _ONE
        data = KData(
            k=t + 1,
            core_rows=tuple(tuple(row) for row in core_rows),
            quotient_row=QuotientTowerRow(t + 1, (_EMPTY,) * (1 << (t + 1))),
        )
        found.append(partition_from_kdata(data))
    return tuple(sorted(found, reverse=True))


def odd_partitions_by_filter(n: int) -> tuple[Partition, ...]:
    """Reference enumeration: filter all partitions of n by :func:`is_odd`."""
    return tuple(p for p in partitions_of(n) if is_odd(p))


def d_good(lam: Partition, d: int) -> bool:
    """Goodness at depth d: size congruent to 2^d - 1 mod 2^(d+1), and the
    2^d-core is a hook partition. Defined for odd partitions only."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    if not is_odd(lam):
        raise ValueError("d-good is defined for odd partitions")
    modulus = 1 << (d + 1)
    size_ok = lam.size % modulus == (1 << d) - 1
    core = e_core(lam, 1 << d)
    core_ok = is_hook_partition(core)
    if d <= 2 and size_ok and not core_ok:
        # For d <= 2 the core condition follows from the size condition.
        raise RuntimeError(f"core condition failed for d={d} on {lam}")
    good = size_ok and core_ok
    if good and core.size != (1 << d) - 1:
        raise RuntimeError(f"good partition {lam} has 2^{d}-core of wrong size")
    return good


def dnk(n: int, k: int) -> DnkDecomposition:
    """The depth d = nu2(floor(n / 2^k)) and remainder m of the split."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if (1 << k) > n:
        raise ValueError("floor(n / 2^k) = 0, nu2 undefined")
    q = n >> k
    d = nu2(q)
    return DnkDecomposition(n=n, k=k, d=d, m=q - (1 << d))
