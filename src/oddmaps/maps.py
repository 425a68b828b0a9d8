"""Restriction maps on odd partitions: fibers, images, commutativity.

An odd partition of n has exactly one hook of length 2^k whose removal
leaves an odd partition; removing it is the restriction map down to
n - 2^k. Production code computes it with one route on the abacus:
removing a 2^k-hook slides one bead down by 2^k, one XOR on the bead mask
of the partition. The map encodes the mask once, decides oddness by
peeling n's binary digits off as such slides, top first, and then keeps
the one slide by 2^k whose result peels too: the same peel tests the
partition and each of its candidate slides, and the kept mask is decoded
into the image.
A fiber needs no level: an odd partition of n made from an odd mu by
adding a 2^k-hook has mu as its only odd 2^k-removal, so :func:`fiber`
reads mu's odd 2^k-hook additions, the upward slide scan that also
enumerates the odd partitions. Questions about a whole level read one
table per (n, k), built once over every odd partition of n: for each, in
enumeration order, the position of its image in the enumeration of
n - 2^k. :func:`image_misses` lists the positions no image reaches, and
:func:`commute_verdict` composes four tables. A table runs no peel and
decodes no partition: it walks the level of ``oddity._level``, the bead
mask of each odd partition of n padded to n beads, mapped to its
position. A 2^k-slide keeps n beads with 2^k of them padding, so shifting
them out gives the key of the level below, which holds exactly the odd
partitions there: a slide is odd exactly when its key is found, and the
lookup also gives the image's position. Only answers are decoded: the
misses of :func:`image_misses` and the witness of :func:`commute_verdict`.
:func:`fiber_size_formula` reads the runner masks of mu's bead mask and
tests each for goodness on its mask, and the witness check of
:func:`counterexample_witness` composes both removal orders on the
witness's bead mask and compares masks, so neither decodes a partition.
A constructed witness is one bead mask: each lift from the instance below
interleaves the child's mask with a runner of pushed-up beads, so the
witness is decoded once, at the end, and verified once.
``oddmaps verify`` checks the route against the branching oracle. The
tests also check it against two second routes kept in ``reference``:
exhaustive hook enumeration with an oddness filter, and tower surgery
that removes a single cell from the right entry of quotient row k and
rebuilds the partition.

On top of the map sit the classification results this package exists to
verify: fiber sizes are always 0, 2 or 2^k and are predicted without
enumeration from quotient row k of the target, read as its 2^k-quotient
because only the row's entries matter, not their order; surjectivity
depends only on the depth of n at level k; and commutativity of two
removals is decided by a closed criterion with one sporadic exception,
backed by constructed counterexample witnesses.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .oddity import _good, _known_odd_slides, _level, dnk, is_odd
from .partition import Partition, _bead_mask, _mask_size, _partition_from_mask
from .quotient import _from_runners, _runners

__all__ = [
    "Fiber",
    "CommuteInstance",
    "CommuteVerdict",
    "remove_odd_hook",
    "fiber",
    "fiber_size_formula",
    "image_misses",
    "is_surjective",
    "predicted_commute",
    "commute_verdict",
    "counterexample_witness",
]

class Fiber(namedtuple("Fiber", "mu n k members")):
    """All odd partitions of n that restrict to ``mu`` by one 2^k-hook removal.

    Fields: ``mu: Partition``, ``n: int``, ``k: int``,
    ``members: tuple[Partition, ...]``.
    """

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)


class CommuteInstance(namedtuple("CommuteInstance", "n k l")):
    """A triple (n; k, l) with k < l and 2^k + 2^l <= n.

    Fields: ``n: int``, ``k: int``, ``l: int``.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, l: int) -> CommuteInstance:
        if not 0 <= k < l:
            raise ValueError("need 0 <= k < l")
        if l >= n.bit_length() or (1 << k) + (1 << l) > n:
            raise ValueError("need 2^k + 2^l <= n")
        return super().__new__(cls, n, k, l)

    @property
    def t(self) -> int:
        """Exponent of the largest binary digit of n."""
        return self.n.bit_length() - 1

    @property
    def m(self) -> int:
        """n with its largest binary digit removed."""
        return self.n - (1 << self.t)


class CommuteVerdict(namedtuple("CommuteVerdict", "instance commutes witness")):
    """Whether the two removals of ``instance`` commute on every odd
    partition of n, with a partition where they disagree when they do not.

    Fields: ``instance: CommuteInstance``, ``commutes: bool``,
    ``witness: Partition | None``.
    """

    __slots__ = ()

    def __new__(
        cls, instance: CommuteInstance, commutes: bool, witness: Partition | None
    ) -> CommuteVerdict:
        if commutes != (witness is None):
            raise ValueError("witness must be present exactly when the maps disagree")
        return super().__new__(cls, instance, commutes, witness)


def remove_odd_hook(lam: Partition, k: int) -> Partition:
    """Remove the unique 2^k-hook of the odd partition ``lam`` whose removal
    stays odd.

    Accepts 2^k equal to the size of ``lam`` (the result is then empty), so
    that compositions with 2^k + 2^l = n stay inside the domain. Each
    2^k-hook is a slide of a bead b to a free position b - 2^k; exactly one
    slide may leave an odd partition. :func:`is_odd` decides the oddness of
    ``lam``, peeling it only if no call has before, and the slide scan
    :func:`_known_odd_slides` reads the bead mask kept on ``lam`` to keep
    the one slide whose result peels.
    """
    if not is_odd(lam):
        raise ValueError("the map is defined for odd partitions")
    # 2^k is built only once k is in range.
    if not 0 <= k < lam.size.bit_length():
        raise ValueError("k must be non-negative" if k < 0 else "2^k exceeds the partition size")
    return _partition_from_mask(_only_removal(_bead_mask(lam), lam.size, k))


def _only_removal(x: int, n: int, k: int) -> int:
    """The one odd slide of :func:`remove_odd_hook` on the bead mask ``x``
    of an odd partition of n, with 2^k <= n: a mask of as many beads, whose
    partition the scan has peeled, so it is odd in turn."""
    slides = _known_odd_slides(x, n, -(1 << k))
    if len(slides) != 1:
        raise RuntimeError(
            f"{_partition_from_mask(x)} has {len(slides)} odd 2^{k}-hook removals, "
            "expected exactly 1"
        )
    return slides[0]


@lru_cache(maxsize=None)
def _images(n: int, k: int) -> tuple[int, ...]:
    """f_k on the whole level n: for each odd partition of n, in the order
    of :func:`odd_partitions`, the position of its image in
    ``odd_partitions(n - 2^k)``.

    Oddness is read from the level below, not peeled: each free 2^k-slide
    of an n-bead mask of ``_level(n)`` has its low 2^k bits set, and with
    them shifted out it is looked up in ``_level(n - 2^k)``, which holds
    exactly the odd partitions there. By Theorem A of Isaacs, Navarro,
    Olsson and Tiep exactly one slide is found, and this is checked as in
    :func:`remove_odd_hook`; a partition is decoded only to report an
    entry that breaks it.
    """
    step = 1 << k
    below = _level(n - step).get
    images = []
    for x in _level(n):
        # The slide x ^ low ^ (low << step), shifted by step, is
        # xs ^ low ^ (low >> step).
        xs = x >> step
        targets = xs & ~x
        hits = 0
        while targets:
            low = targets & -targets
            targets ^= low
            j = below(xs ^ low ^ (low >> step))
            if j is not None:
                hits += 1
                i = j
        if hits != 1:
            raise RuntimeError(
                f"{_partition_from_mask(x)} has {hits} odd 2^{k}-hook removals, "
                "expected exactly 1"
            )
        images.append(i)
    return tuple(images)


def _check_fiber_args(mu: Partition, n: int, k: int) -> None:
    if k < 0 or n < 1 or k >= n.bit_length():
        raise ValueError("need n >= 1 and 2^k <= n")
    if mu.size != n - (1 << k):
        raise ValueError(f"mu must be a partition of {n - (1 << k)}, got size {mu.size}")
    if not is_odd(mu):
        raise ValueError("fibers are taken over odd partitions")


def fiber(mu: Partition, n: int, k: int) -> Fiber:
    """The odd partitions of n mapping to ``mu``, descending lexicographic.

    They are the odd 2^k-hook additions to ``mu``: each has ``mu`` as its
    only odd 2^k-removal. Read from one slide scan of ``mu``'s bead mask,
    padded by 2^k beads so that every slide fits, so the cost is per
    instance and no level of n is built. The slides all hold as many beads,
    so descending ints are descending parts.
    """
    _check_fiber_args(mu, n, k)
    step = 1 << k
    slides = _known_odd_slides(_bead_mask(mu, step), n - step, step)
    members = tuple(map(_partition_from_mask, sorted(slides, reverse=True)))
    return Fiber(mu=mu, n=n, k=k, members=members)


def fiber_size_formula(mu: Partition, n: int, k: int) -> int:
    """Predicted fiber size without enumeration: 2^k at depth 0, else 2 when
    quotient row k of ``mu`` holds a d-good partition, else 0.

    The question ignores the order of the row, so the row is read from the
    2^k-quotient of ``mu`` in one pass over its runners, not by walking the
    tower. Each runner is a bead mask, tested in order by ``oddity._good``
    with its size from ``partition._mask_size``, and none is decoded.
    """
    _check_fiber_args(mu, n, k)
    d = dnk(n, k).d
    if d == 0:
        return 1 << k
    e = 1 << k
    for r in _runners(_bead_mask(mu, -len(mu) % e), e):
        if _good(r, _mask_size(r), d):
            return 2
    return 0


def image_misses(n: int, k: int) -> tuple[Partition, ...]:
    """Odd partitions of n - 2^k with empty fiber, descending lexicographic.

    Read from the level table of :func:`_images`: the odd partitions of
    n - 2^k at positions that no odd partition of n maps to. Only those are
    decoded.
    """
    if n < 1 or k < 0 or k >= (n - 1).bit_length():
        raise ValueError("need 2^k < n")
    reached = set(_images(n, k))
    below = _level(n - (1 << k))
    return tuple(_partition_from_mask(y) for y, i in below.items() if i not in reached)


def is_surjective(n: int, k: int, verify: bool = False) -> bool:
    """Whether every odd partition of n - 2^k has a nonempty fiber.

    Closed criterion: depth d(n, k) at most 2 for k = 0, at most 1 for
    k > 0. With ``verify`` the criterion is checked against the map's
    actual image: the number of distinct positions in the level table of
    f_k against the size of the level below, with no partition decoded;
    disagreement would refute the classification.
    """
    if n < 1 or k >= (n - 1).bit_length():
        raise ValueError("need 2^k < n")
    d = dnk(n, k).d
    criterion = d <= 2 if k == 0 else d <= 1
    if verify:
        actual = len(set(_images(n, k))) == len(_level(n - (1 << k)))
        if actual != criterion:
            raise RuntimeError(
                f"surjectivity criterion {criterion} but the level table gives "
                f"surjective {actual} at (n={n}, k={k})"
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
    """Whether f_k(f_l(lam)) and f_l(f_k(lam)) differ, for an odd ``lam``
    of n: both composed on its bead mask, which every slide leaves with as
    many beads, so the two results agree exactly where their masks do."""
    n, k, l = inst.n, inst.k, inst.l
    x = _bead_mask(lam)
    then_k = _only_removal(_only_removal(x, n, l), n - (1 << l), k)
    then_l = _only_removal(_only_removal(x, n, k), n - (1 << k), l)
    return then_k != then_l


def commute_verdict(inst: CommuteInstance) -> CommuteVerdict:
    """Exhaustive check over all odd partitions of n; the witness, if any,
    is the lexicographically greatest counterexample.

    Both compositions are read from the level tables of :func:`_images`:
    f_l and f_k on n, then f_k on n - 2^l and f_l on n - 2^k, walked in the
    order of :func:`odd_partitions`. Both land in the level
    n - 2^k - 2^l, so they agree exactly where their positions there do.
    Only the witness is decoded.
    """
    n, k, l = inst.n, inst.k, inst.l
    then_k = _images(n - (1 << l), k)
    then_l = _images(n - (1 << k), l)
    for x, a, b in zip(_level(n), _images(n, l), _images(n, k)):
        if then_k[a] != then_l[b]:
            return CommuteVerdict(
                instance=inst, commutes=False, witness=_partition_from_mask(x)
            )
    return CommuteVerdict(instance=inst, commutes=True, witness=None)


def counterexample_witness(inst: CommuteInstance) -> Partition:
    """Construct an odd partition of n on which the two removal orders
    disagree, for an instance where the criterion predicts disagreement.

    For k = 0 the witness comes from a three-way case split on m against
    2^l; for k >= 1 it is lifted from a witness at (floor(n/2); k-1, l-1)
    as the partition with 2-quotient (witness, empty) and the parity-forced
    2-core. Lifts that would land on the sporadic instance (6; 0, 1) use
    pinned witnesses at (12; 1, 2) and (13; 1, 2) instead. The whole
    construction is one bead mask (:func:`_witness_mask`): it is decoded
    once, and only the returned partition is verified, once.
    """
    if predicted_commute(inst):
        raise ValueError("no counterexample exists for a commuting instance")
    lam = _partition_from_mask(_witness_mask(inst.n, inst.k, inst.l))
    if lam.size != inst.n or not is_odd(lam):
        raise RuntimeError(f"constructed witness {lam} is not an odd partition of {inst.n}")
    if not _composition_disagrees(lam, inst):
        raise RuntimeError(f"constructed witness {lam} fails to separate the compositions")
    return lam


def _witness_mask(n: int, k: int, l: int) -> int:
    """A bead mask, with some padding, of the witness of
    :func:`counterexample_witness` at (n; k, l), unverified.

    For k >= 1 the child's mask x at (floor(n/2); k-1, l-1) is runner 0 of
    the 2-runner abacus, padded by two beads so that it holds at least two;
    runner 1 holds as many beads as runner 0 (2-core empty, n even) or two
    fewer (2-core (1), n odd), all pushed up, which is the empty partition.
    One interleave gives the lift; no child is decoded or checked.
    """
    if k == 0:
        t = n.bit_length() - 1
        m, two_l = n - (1 << t), 1 << l
        if two_l < m:
            return _bead_mask(Partition((m, m) + (1,) * ((1 << t) - m)))
        if m < two_l:
            return _bead_mask(Partition((n - two_l, m + 1) + (1,) * (two_l - m - 1)))
        if l >= 2:
            return _bead_mask(Partition((1 << t, two_l - 1, 1)))
        return _bead_mask(Partition(((1 << t) - 2, 2, 2)))
    if (n // 2, k - 1, l - 1) == (6, 0, 1):
        return _bead_mask(Partition((6, 4, 2 + n % 2)))
    x = _witness_mask(n // 2, k - 1, l - 1) << 2 | 3
    return _from_runners([x, (1 << x.bit_count() - 2 * (n % 2)) - 1], 2)
