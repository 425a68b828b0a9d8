"""Restriction maps on odd partitions: fibers, images, commutativity.

An odd partition of n has exactly one hook of length 2^k whose removal
leaves an odd partition; removing it is the restriction map down to
n - 2^k. Production code computes it with one route on the abacus:
removing a 2^k-hook slides one bead of the beta-set down by 2^k, and the
map keeps the one slide whose result passes the abacus oddness count.
Two references stay for the tests and ``oddmaps verify``: exhaustive hook
enumeration with an oddness filter (:func:`odd_hook_removals`), and a
tower route that removes a single cell from the right entry of quotient
row k and rebuilds (:func:`remove_odd_hook_via_tower`). The branching
oracle checks the map independently of both.

On top of the map sit the classification results this package exists to
verify: fiber sizes are always 0, 2 or 2^k and are predicted without
enumeration from quotient row k of the target, read as its 2^k-quotient
because only the row's entries matter, not their order; surjectivity
depends only on the depth of n at level k; and commutativity of two
removals is decided by a closed criterion with one sporadic exception,
backed by constructed counterexample witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .oddity import _is_odd_beta, _odd_slides, d_good, dnk, is_odd, odd_partitions
from .partition import (
    Partition,
    all_two_disjoint,
    beta_set,
    hooks_of_length,
    partition_from_beta,
    remove_hook,
)
from .quotient import KData, e_quotient, from_core_quotient, k_data, partition_from_kdata

__all__ = [
    "Fiber",
    "CommuteInstance",
    "CommuteVerdict",
    "odd_hook_removals",
    "remove_odd_hook",
    "remove_odd_hook_via_tower",
    "fiber",
    "fiber_size_formula",
    "image_misses",
    "is_surjective",
    "predicted_commute",
    "commute_verdict",
    "counterexample_witness",
]

_EMPTY = Partition(())


@dataclass(frozen=True)
class Fiber:
    """All odd partitions of n that restrict to ``mu`` by one 2^k-hook removal."""

    mu: Partition
    n: int
    k: int
    members: tuple[Partition, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CommuteInstance:
    """A triple (n; k, l) with k < l and 2^k + 2^l <= n."""

    n: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if not 0 <= self.k < self.l:
            raise ValueError("need 0 <= k < l")
        if self.l >= self.n.bit_length() or (1 << self.k) + (1 << self.l) > self.n:
            raise ValueError("need 2^k + 2^l <= n")

    @property
    def t(self) -> int:
        """Exponent of the largest binary digit of n."""
        return self.n.bit_length() - 1

    @property
    def m(self) -> int:
        """n with its largest binary digit removed."""
        return self.n - (1 << self.t)


@dataclass(frozen=True)
class CommuteVerdict:
    instance: CommuteInstance
    commutes: bool
    witness: Partition | None

    def __post_init__(self) -> None:
        if self.commutes != (self.witness is None):
            raise ValueError("witness must be present exactly when the maps disagree")


def odd_hook_removals(lam: Partition, k: int) -> tuple[Partition, ...]:
    """All odd partitions reachable from ``lam`` by removing one 2^k-hook."""
    return tuple(
        mu
        for h in hooks_of_length(lam, 1 << k)
        for mu in (remove_hook(lam, h),)
        if is_odd(mu)
    )


def remove_odd_hook(lam: Partition, k: int) -> Partition:
    """Remove the unique 2^k-hook of the odd partition ``lam`` whose removal
    stays odd.

    Accepts 2^k equal to the size of ``lam`` (the result is then empty), so
    that compositions with 2^k + 2^l = n stay inside the domain. Each
    2^k-hook is a slide of a bead b to a free position b - 2^k; exactly one
    slide may leave an odd partition.
    """
    beta = beta_set(lam)
    if not _is_odd_beta(beta):
        raise ValueError("the map is defined for odd partitions")
    if k >= lam.size.bit_length():
        raise ValueError("2^k exceeds the partition size")
    slides = _odd_slides(beta, -(1 << k))
    if len(slides) != 1:
        raise RuntimeError(
            f"{lam} has {len(slides)} odd 2^{k}-hook removals, expected exactly 1"
        )
    return partition_from_beta(slides[0])


def remove_odd_hook_via_tower(lam: Partition, k: int) -> Partition:
    """Tower route for k >= 1: removing an odd 2^k-hook leaves the core rows
    below k untouched and removes a single cell from one entry of quotient
    row k; only one entry admits that without breaking 2-disjointness."""
    if k < 1:
        raise ValueError("the tower route needs k >= 1")
    if not is_odd(lam):
        raise ValueError("the map is defined for odd partitions")
    if (1 << k) > lam.size:
        raise ValueError("2^k exceeds the partition size")
    data = k_data(lam, k)
    row = data.quotient_row
    sizes = [p.size for p in row]
    hits = [
        i
        for i, s in enumerate(sizes)
        if s >= 1 and all_two_disjoint(sizes[:i] + [s - 1] + sizes[i + 1 :])
    ]
    if len(hits) != 1:
        raise RuntimeError(f"{lam}: {len(hits)} tower entries admit a cell removal")
    i = hits[0]
    shrunk = odd_hook_removals(row[i], 0)
    if len(shrunk) != 1:
        raise RuntimeError(f"tower entry {row[i]} has {len(shrunk)} odd cell removals")
    return partition_from_kdata(KData(k, data.core_rows, row[:i] + shrunk + row[i + 1 :]))


@lru_cache(maxsize=None)
def _fiber_map(n: int, k: int) -> dict[Partition, tuple[Partition, ...]]:
    """Preimages of every reached partition, members in descending lex order."""
    buckets: dict[Partition, list[Partition]] = {}
    for lam in odd_partitions(n):
        buckets.setdefault(remove_odd_hook(lam, k), []).append(lam)
    return {mu: tuple(members) for mu, members in buckets.items()}


def _check_fiber_args(mu: Partition, n: int, k: int) -> None:
    if k < 0 or n < 1 or k >= n.bit_length():
        raise ValueError("need n >= 1 and 2^k <= n")
    if mu.size != n - (1 << k):
        raise ValueError(f"mu must be a partition of {n - (1 << k)}, got size {mu.size}")
    if not is_odd(mu):
        raise ValueError("fibers are taken over odd partitions")


def fiber(mu: Partition, n: int, k: int) -> Fiber:
    """The set of odd partitions of n mapping to ``mu``, by brute force."""
    _check_fiber_args(mu, n, k)
    return Fiber(mu=mu, n=n, k=k, members=_fiber_map(n, k).get(mu, ()))


def fiber_size_formula(mu: Partition, n: int, k: int) -> int:
    """Predicted fiber size without enumeration: 2^k at depth 0, else 2 when
    quotient row k of ``mu`` holds a d-good partition, else 0.

    The question ignores the order of the row, so the row is read from the
    2^k-quotient of ``mu`` in one beta-set pass, not by walking the tower.
    """
    _check_fiber_args(mu, n, k)
    d = dnk(n, k).d
    if d == 0:
        return 1 << k
    return 2 if any(d_good(p, d) for p in e_quotient(mu, 1 << k)) else 0


def image_misses(n: int, k: int) -> tuple[Partition, ...]:
    """Odd partitions of n - 2^k with empty fiber, descending lexicographic."""
    if n < 1 or k >= (n - 1).bit_length():
        raise ValueError("need 2^k < n")
    return tuple(
        mu for mu in odd_partitions(n - (1 << k)) if fiber_size_formula(mu, n, k) == 0
    )


def is_surjective(n: int, k: int, verify: bool = False) -> bool:
    """Whether every odd partition of n - 2^k has a nonempty fiber.

    Closed criterion: depth d(n, k) at most 2 for k = 0, at most 1 for
    k > 0. With ``verify`` the criterion is checked against
    :func:`image_misses`, which applies :func:`fiber_size_formula` to every
    odd partition of n - 2^k; disagreement would refute the classification.
    """
    if n < 1 or k >= (n - 1).bit_length():
        raise ValueError("need 2^k < n")
    d = dnk(n, k).d
    criterion = d <= 2 if k == 0 else d <= 1
    if verify:
        actual = len(image_misses(n, k)) == 0
        if actual != criterion:
            raise RuntimeError(
                f"surjectivity criterion {criterion} but image misses say {actual} "
                f"at (n={n}, k={k})"
            )
    return criterion


def predicted_commute(inst: CommuteInstance) -> bool:
    """Closed criterion for the two removals to commute on every odd
    partition of n: the maps disagree somewhere iff l < t and 2^k <= m,
    except at (6; 0, 1) where they commute anyway."""
    if (inst.n, inst.k, inst.l) == (6, 0, 1):
        return True
    return not (inst.l < inst.t and (1 << inst.k) <= inst.m)


def _composition_disagrees(lam: Partition, inst: CommuteInstance) -> bool:
    k, l = inst.k, inst.l
    return remove_odd_hook(remove_odd_hook(lam, l), k) != remove_odd_hook(
        remove_odd_hook(lam, k), l
    )


def commute_verdict(inst: CommuteInstance) -> CommuteVerdict:
    """Exhaustive check over all odd partitions of n; the witness, if any,
    is the lexicographically greatest counterexample."""
    for lam in odd_partitions(inst.n):
        if _composition_disagrees(lam, inst):
            return CommuteVerdict(instance=inst, commutes=False, witness=lam)
    return CommuteVerdict(instance=inst, commutes=True, witness=None)


def counterexample_witness(inst: CommuteInstance) -> Partition:
    """Construct an odd partition of n on which the two removal orders
    disagree, for an instance where the criterion predicts disagreement.

    For k = 0 the witness comes from a three-way case split on m against
    2^l; for k >= 1 it is lifted from a witness at (floor(n/2); k-1, l-1)
    as the partition with 2-quotient (witness, empty) and the parity-forced
    2-core. Lifts that would land on the sporadic instance (6; 0, 1) use
    pinned witnesses at (12; 1, 2) and (13; 1, 2) instead. The returned
    partition is verified before being handed back.
    """
    if predicted_commute(inst):
        raise ValueError("no counterexample exists for a commuting instance")
    lam = _construct_witness(inst)
    if lam.size != inst.n or not is_odd(lam):
        raise RuntimeError(f"constructed witness {lam} is not an odd partition of {inst.n}")
    if not _composition_disagrees(lam, inst):
        raise RuntimeError(f"constructed witness {lam} fails to separate the compositions")
    return lam


def _construct_witness(inst: CommuteInstance) -> Partition:
    n, k, l = inst.n, inst.k, inst.l
    if k == 0:
        t, m = inst.t, inst.m
        two_l = 1 << l
        if two_l < m:
            return Partition((m, m) + (1,) * ((1 << t) - m))
        if m < two_l:
            return Partition((n - two_l, m + 1) + (1,) * (two_l - m - 1))
        if l >= 2:
            return Partition((1 << t, two_l - 1, 1))
        return Partition(((1 << t) - 2, 2, 2))
    if (n // 2, k - 1, l - 1) == (6, 0, 1):
        return Partition((6, 4, 2)) if n % 2 == 0 else Partition((6, 4, 3))
    child = CommuteInstance(n=n // 2, k=k - 1, l=l - 1)
    core = _EMPTY if n % 2 == 0 else Partition((1,))
    return from_core_quotient(core, (counterexample_witness(child), _EMPTY), 2)
