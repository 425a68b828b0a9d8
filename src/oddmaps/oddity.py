"""Oddness, odd-partition enumeration, and goodness bookkeeping.

A partition of n labels an odd-degree character exactly when every row of
its 2-core tower has weight at most 1. With 2^t the top binary digit of n,
that holds exactly when it has a 2^t-hook whose removal leaves an odd
partition of n - 2^t, so this module decides oddness by peeling n's
binary digits off, top first, as hook removals: bead slides on the abacus,
with no tower built and no weight counted (:func:`_peels`). The tests
compare the peel with Frobenius's degree formula and with the core tower
of ``reference``.

The peel is the one oddness kernel. It runs on bead masks, the one bead
format of ``partition``: ints whose set bits are the beads. Hook additions
and removals of length 2^k are bead slides by 2^k, and
:func:`_known_odd_slides`, the one slide scan, marks every free target of
a mask with one shift and keeps each slide whose mask peels. The scan
takes and returns masks; a partition is decoded only from a slide that is
kept. The map of ``maps`` decides oddness once and then reads its slide
from this scan, as do the enumeration and the fibers.

The enumeration is the peel run forwards, on bead masks alone. With 2^t
the top digit of n, every odd partition of n is one of the 2^t odd
2^t-hook additions to an odd partition mu of n - 2^t, and adding a
2^t-hook slides one bead b up to a free b + 2^t. :func:`_level` holds a
level as the bead masks of its odd partitions, each padded to exactly n
beads: padding mu's mask by 2^t beads and taking its upward slides gives
n-bead masks, and for masks with one bead count descending ints are
descending parts, so a plain sort orders the level. It is the one cache
of a level: :func:`odd_partitions` decodes it on each call and keeps no
decoded level. Each partition built so has mu as its only odd
2^t-removal, so mu's additions at k = t are its fiber under the removal
map f_t; ``maps`` reads fibers at every k from the same scan, and its
level tables from :func:`_level`. A standing test checks the enumeration
against the filter over all partitions in ``reference``.

Goodness is decided on bead masks too: :func:`_good` takes a mask and its
size, such as a runner of a larger mask, peels it for oddness and reads
its 2^d-core from the runner bead counts as a mask, so the fiber-size
formula of ``maps`` decodes a partition only to report a broken invariant.
Goodness of a partition, as defined, is ``reference.d_good``, which the
tests call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .partition import Partition, _bead_mask, _mask_size, _partition_from_mask, nu2
from .quotient import _core

__all__ = [
    "DnkDecomposition",
    "is_odd",
    "odd_partitions",
    "dnk",
]

class DnkDecomposition(namedtuple("DnkDecomposition", "n k d m")):
    """floor(n / 2^k) split as 2^d + m with 2^(d+1) dividing m.

    Fields: ``n: int``, ``k: int``, ``d: int``, ``m: int``.
    """

    __slots__ = ()


def _peels(x: int, n: int) -> bool:
    """Oddness of the partition of n whose beta-set is the set bits of the
    bead mask ``x``, by peeling the binary digits of n off as hooks, the top
    digit first.

    With 2^t the top digit of n, removing a 2^t-hook slides a bead b >= 2^t
    down to a free b - 2^t, and ``(x >> 2^t) & ~x`` marks the free targets.
    The peel makes that slide, takes 2^t from n and goes on; the partition
    is odd iff n reaches 0, and even as soon as a digit finds no slide. This
    is right for two reasons:

    - (i) At k = t the unique odd 2^k-hook removal is Macdonald's test: a
      partition of n is odd iff it has a 2^t-hook whose removal is odd.
      Read backwards it is the enumeration: every +2^t slide of an odd mu
      of n - 2^t is odd, and :func:`_level` counts exactly 2^t.
    - (ii) One XOR moves exactly one bead: the hooks of length 2^t number
      at most the 2^t-weight, which is at most n / 2^t < 2, so the targets
      hold at most one bit and the peel never chooses between beads.
    """
    while n:
        step = 1 << (n.bit_length() - 1)
        low = (x >> step) & ~x
        if not low:
            return False
        x ^= low | (low << step)
        n -= step
    return True


def _known_odd_slides(x: int, n: int, step: int) -> list[int]:
    """Every bead mask reached from ``x``, the bead mask of an odd partition
    of n, by sliding one bead b to a free position b + step >= 0 whose
    partition is odd.

    A step of -2^k removes a 2^k-hook and +2^k adds one. Shifting ``x`` by
    the step and masking out the beads marks every free target at once, in
    one int; a slide is kept when its mask peels at size n + step
    (:func:`_peels`). A step above n needs no peel: it is then the top
    digit of n + step, and by (i) every such hook addition to an odd
    partition is odd. That case alone relies on the oddness of ``x``, which
    the caller vouches for. The slides come in increasing target order.
    """
    size = n + step
    targets = (x << step if step > 0 else x >> -step) & ~x
    slides = []
    while targets:
        low = targets & -targets
        targets ^= low
        c = low.bit_length() - 1
        y = x ^ low ^ (1 << (c - step))
        if step > n or _peels(y, size):
            slides.append(y)
    return slides


def is_odd(lam: Partition) -> bool:
    """True iff the character labelled by ``lam`` has odd degree.

    The binary digits 2^t of the size are peeled off as 2^t-hooks, top
    first (:func:`_peels`): ``lam`` is odd iff every digit comes off.
    The empty partition counts as odd. ``lam`` is peeled at most once: the
    verdict is kept on it.
    """
    if lam._odd is None:
        lam._odd = _peels(_bead_mask(lam), lam.size)
    return lam._odd


@lru_cache(maxsize=None)
def _level(n: int) -> dict[int, int]:
    """The bead mask of each odd partition of n, padded to exactly n beads,
    to its position in :func:`odd_partitions`; the masks come in descending
    int order, which for one bead count is descending order of the parts.

    With 2^t the top binary digit of n, each mask mu of the level n - 2^t,
    padded by 2^t more beads, has exactly 2^t odd upward 2^t-slides
    (Macdonald), n-bead masks that together give every odd partition of n
    once, prod(2^j) over the binary digits 2^j of n.
    """
    if n < 0:
        raise ValueError("partitions are defined for non-negative integers")
    if n == 0:
        return {0: 0}
    t = n.bit_length() - 1
    step = 1 << t
    found = []
    for mu in _level(n - step):
        slides = _known_odd_slides(mu << step | ((1 << step) - 1), n - step, step)
        if len(slides) != step:
            raise RuntimeError(
                f"{_partition_from_mask(mu)} has {len(slides)} odd 2^{t}-hook additions, "
                f"expected {step}"
            )
        found.extend(slides)
    found.sort(reverse=True)
    return {x: i for i, x in enumerate(found)}


def odd_partitions(n: int) -> tuple[Partition, ...]:
    """All odd partitions of n, descending lexicographic: the decoded masks
    of :func:`_level`, decoded again on each call and cached nowhere, so a
    caller that reads a level more than once keeps its own tuple."""
    return tuple(map(_partition_from_mask, _level(n)))


def _good(x: int, size: int, d: int) -> bool:
    """Goodness at depth d >= 0 of the odd partition of ``size`` whose bead
    mask is ``x``, with any padding: size congruent to 2^d - 1 mod 2^(d+1),
    and the 2^d-core a hook partition. The oddness comes from the peel, the
    core from the runner bead counts (``quotient._core``), and the core is
    tested for a hook on its mask; the mask is decoded only to report a
    failure."""
    if not _peels(x, size):
        raise ValueError("d-good is defined for odd partitions")
    # Once 2^d > size + 1, size < 2^d - 1 is its own residue mod 2^(d+1),
    # so the size condition fails; compared by bit length so no 2^d is built.
    if d >= (size + 1).bit_length() or size % (2 << d) != (1 << d) - 1:
        return False
    core = _core(x, 1 << d)
    # A hook (a, 1, ..., 1) has parts of at most 1 below its first row:
    # below its top bead at most one position is free.
    below = core ^ (1 << core.bit_length() - 1) if core else 0
    good = below.bit_length() - below.bit_count() <= 1
    if d <= 2 and not good:
        # For d <= 2 the core condition follows from the size condition.
        raise RuntimeError(f"core condition failed for d={d} on {_partition_from_mask(x)}")
    if good and _mask_size(core) != (1 << d) - 1:
        raise RuntimeError(
            f"good partition {_partition_from_mask(x)} has 2^{d}-core of wrong size"
        )
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
