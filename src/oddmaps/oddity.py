"""Oddness predicates, odd-partition enumeration, and goodness bookkeeping.

A partition labels an odd-degree character exactly when every row of its
2-core tower has weight at most 1. Production code decides that on the
abacus: the weight of tower row k depends only on how many beads of a
beta-set fall in each residue class mod 2^(k+1), so no tower is built.
The tower route (``core_tower`` and :func:`is_odd_via_row`, which reads
quotient row k as the 2^k-quotient) stays as the reference that the tests
compare the count against.

Two enumerators use the criterion: a filter over all partitions (reference)
and a constructive one on the abacus. With 2^t the top binary digit of n,
every odd partition of n is one of the 2^t odd 2^t-hook additions to an odd
partition of n - 2^t, and adding a 2^t-hook slides one bead b up to a free
b + 2^t. The constructive route is authoritative for large n; agreement of
the two is a standing test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partition import (
    Partition,
    all_two_disjoint,
    beta_set,
    is_hook_partition,
    nu2,
    partition_from_beta,
    partitions_of,
)
from .quotient import core_tower, e_core, e_quotient

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


def _odd_slides(beta: tuple[int, ...], step: int) -> list[tuple[int, ...]]:
    """Every beta-set reached from ``beta`` by sliding one bead b to a free
    position b + step >= 0 whose partition passes :func:`_is_odd_beta`.

    A step of -2^k removes a 2^k-hook and +2^k adds one; beads move in place,
    so a slide up may leave the tuple out of order.
    """
    occupied = set(beta)
    slides = []
    for i, b in enumerate(beta):
        c = b + step
        if c >= 0 and c not in occupied:
            moved = beta[:i] + (c,) + beta[i + 1 :]
            if _is_odd_beta(moved):
                slides.append(moved)
    return slides


def is_odd(lam: Partition) -> bool:
    """True iff the character labelled by ``lam`` has odd degree.

    Every 2-core tower row must have weight at most 1; the empty partition
    counts as odd.
    """
    return _is_odd_beta(beta_set(lam))


def is_odd_via_row(lam: Partition, k: int) -> bool:
    """Oddness decided from tower row k alone.

    Requires: core rows below k each weigh at most 1, all row-k entries are
    odd, and their sizes are pairwise 2-disjoint. None of that depends on
    the order of the row, so it is read from the 2^k-quotient of ``lam``
    ((lam,) at k = 0). Agrees with :func:`is_odd` for every k.
    """
    if k < 0:
        raise ValueError("row index must be non-negative")
    tower = core_tower(lam)
    if any(tower.weight(j) > 1 for j in range(k)):
        return False
    row = e_quotient(lam, 1 << k)
    if not all(is_odd(p) for p in row):
        return False
    return all_two_disjoint(p.size for p in row)


@lru_cache(maxsize=None)
def odd_partitions(n: int) -> tuple[Partition, ...]:
    """All odd partitions of n, descending lexicographic.

    With 2^t the top binary digit of n, every odd partition of n - 2^t has
    exactly 2^t odd 2^t-hook additions, each a slide of one bead up by 2^t
    on a beta-set padded by 2^t beads; together they give every odd
    partition of n once, prod(2^j) over the binary digits 2^j of n.
    """
    if n < 0:
        raise ValueError("partitions are defined for non-negative integers")
    if n == 0:
        return (_EMPTY,)
    t = n.bit_length() - 1
    step = 1 << t
    found = []
    for mu in odd_partitions(n - step):
        slides = _odd_slides(beta_set(mu, len(mu) + step), step)
        if len(slides) != step:
            raise RuntimeError(
                f"{mu} has {len(slides)} odd 2^{t}-hook additions, expected {step}"
            )
        found.extend(partition_from_beta(beta) for beta in slides)
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
    if k >= n.bit_length():
        raise ValueError("floor(n / 2^k) = 0, nu2 undefined")
    q = n >> k
    d = nu2(q)
    return DnkDecomposition(n=n, k=k, d=d, m=q - (1 << d))
