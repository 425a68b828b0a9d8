"""Independent character-theoretic cross-checks.

Everything here is computed from degree parities and skew standard
tableau counts alone. The quotient machinery is deliberately never
imported: a convention bug there cannot cancel against itself when the
same answer is recomputed from branching parities. The one partition
primitive shared with production is the Partition type. The enumeration
of all partitions (:func:`partitions_of`) is this module's own, and builds
each partition it lists itself; a shape this module decodes is built
through Partition's own checks. Neither goes through production's mask
decoder. The bead masks below are this module's own code, shared with
nothing in ``oddity``.

Multiplicities in an iterated one-box restriction are counted by standard
tableaux of the skew shape, so the map being certified must send an odd
partition to the unique odd-degree partition reached with odd skew-tableau
parity. ``cross_validate`` sweeps that statement, and the plain oddness
criterion, over everything up to a size bound and reports mismatches as
data rather than raising; an exception from the map under test is that
check's mismatch. A two-box skew shape has one standard filling if it is a
domino and two otherwise, so mod 2 two one-box steps are one domino step.
Each odd partition of n takes one walk: one one-box step to depth 1, and
2^(K - 1) domino steps for the largest 2^K < n, and every k is checked
against the frontier that walk passes at depth 2^k. The walk stops at
dominoes on purpose: mod 2, 2^k one-box steps are also the 2^k-rim-hook
removals, and walking by those would be the map's own slide route.

Shapes are bead masks: an int whose set bits are the beta numbers of the
shape, with as many beads as lam has parts for the whole walk. Removing a
box moves one bead b to a free b - 1 and removing a domino moves it to a
free b - 2, bit moves, and the degree valuation is read off the mask with
popcounts (see :func:`_nu2_degree_mask`). ``cross_validate`` encodes the
map's answer at each 2^k as a mask and compares it with the one odd-degree
survivor there, which it decodes back to parts only to report a mismatch.

A level is checked in batches of ``_BATCH`` partitions, taken as they are
enumerated, and each batch goes through one layer at a time: the oracle's
masks and degree tests, then ``is_odd``, then the walks, then the map, and
last one pass in enumeration order that compares and reports. Taking every
layer partition by partition does the same work but runs slower, most of
all at small n, where a level is a few hundred partitions. A batch holds
at most ``_BATCH`` partitions, so memory is bounded by the batch and not
the level, and mismatches still come in enumeration order.

The walks of one level reach the same shapes many times, from partitions
with different numbers of parts and so at different paddings. Each level of
``cross_validate`` keeps one dict from a shape's unpadded mask (its low run
of set bits, the beads of parts 0, shifted out) to its degree parity, so
every shape's degree is tested once per level whatever its padding. The
dict is local to the level, so no shape's parity outlives its level. The
one cache that lasts between levels and calls is :func:`_width_tables`, a
process-wide ``lru_cache`` with one entry per mask bit width: the gaps and
selectors of the degree test, which depend on the width alone and name no
shape.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from operator import index

from .partition import Partition

__all__ = [
    "Mismatch",
    "ParityReport",
    "partitions_of",
    "skew_syt_parity",
    "unique_odd_constituent",
    "cross_validate",
]


class Mismatch(namedtuple("Mismatch", "lam k expected got")):
    """One disagreement between the oracle and the implementation.

    Fields: ``lam: Partition``, ``k: int | None`` (None for the oddness
    check), ``expected: object``, ``got: object``.
    """

    __slots__ = ()


class ParityReport(namedtuple("ParityReport", "n_max checks_run mismatches")):
    """What one :func:`cross_validate` sweep ran and found.

    Fields: ``n_max: int``, ``checks_run: int``,
    ``mismatches: tuple[Mismatch, ...]``.
    """

    __slots__ = ()


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order.

    Zoghbi and Stojmenović's ZS1 (Int. J. Comput. Math. 70 (1998) 319-332),
    in constant amortised time per partition: ``x`` holds the parts padded
    with 1s to length n, ``m`` is the number of parts and ``h`` the index of
    the last part above 1. Every step lowers x[h] by one and refills the
    parts after it greedily with that value, so the trailing 1s are never
    rescanned; a part of 2 becomes a 1 and one more part. The listing ends
    at n ones, where m = n; at n = 0 that is the first partition, ().

    ZS1 keeps the parts weakly decreasing and positive, and their sum n, so
    each partition is built here without Partition's checks, which would
    make the listing three to four times as slow.
    """
    n = index(n)
    if n < 0:
        raise ValueError("partitions are defined for non-negative integers")
    x = [n] + [1] * (n - 1)
    m = min(n, 1)
    h = 0
    while True:
        lam = Partition.__new__(Partition)
        lam.parts = tuple(x[:m])
        lam.size = n
        yield lam
        if m == n:
            return
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            # The amount freed: one from x[h] and the m - 1 - h trailing 1s.
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t


def _mask_of(parts: tuple[int, ...], m: int) -> int:
    """The bead mask of ``parts`` padded to ``m >= len(parts)`` beads: bit b
    is set for each beta number b = parts[i] + m - 1 - i, i < m, a missing
    part counting as 0."""
    x = (1 << (m - len(parts))) - 1
    for i, p in enumerate(parts):
        x |= 1 << (p + m - 1 - i)
    return x


def _parts_of(x: int) -> tuple[int, ...]:
    """The part tuple of the bead mask ``x``, for any padding."""
    parts = []
    i = 0
    while x:
        low = x & -x
        if low >> i > 1:
            parts.append(low.bit_length() - 1 - i)
        x ^= low
        i += 1
    parts.reverse()
    return tuple(parts)


@lru_cache(maxsize=None)
def _width_tables(width: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """For masks of bit length ``width``: each even gap d < width with
    nu2(d), and for each bit j of a position below width the selector S_j
    of the positions with that bit set."""
    gaps = tuple((d, (d & -d).bit_length() - 1) for d in range(2, width, 2))
    selectors = []
    for j in range(max(width - 1, 0).bit_length()):
        # S_j repeats 2^j clear bits then 2^j set bits: the block's set
        # half times (2^(period*reps) - 1) / (2^period - 1), cut to width.
        half = 1 << j
        period = half << 1
        reps = -(-width // period)
        repeat = ((1 << period * reps) - 1) // ((1 << period) - 1)
        selectors.append(((1 << half) - 1 << half) * repeat & ((1 << width) - 1))
    return gaps, tuple(selectors)


def _nu2_degree_mask(x: int, n: int) -> int:
    """2-adic valuation of the degree of the partition of ``n`` whose bead
    mask is ``x``, by Frobenius's formula; 0 for the empty partition.

    With m beads b_i, the valuation is
    nu2(n!) - sum of nu2(b_i!) + sum over i < j of nu2(b_i - b_j).
    The pairs at gap d are the set bits of x & (x >> d), and only even gaps
    count, so the last sum is sum over even d of nu2(d) popcount(x & (x >> d)).
    With nu2(b!) = b - popcount(b), the middle sum is
    sum of b_i - sum over j of popcount(x & S_j), where sum of b_i is
    n + m(m - 1)/2.
    """
    gaps, selectors = _width_tables(x.bit_length())
    m = x.bit_count()
    # nu2(n!) - sum of b_i, the n of each cancelled.
    total = -n.bit_count() - m * (m - 1) // 2
    for s in selectors:
        total += (x & s).bit_count()
    for d, v in gaps:
        total += v * (x & (x >> d)).bit_count()
    return total


def _toggle_step(frontier: set[int], s: int) -> set[int]:
    """One level of the parity walk down, on bead masks: XOR-accumulate the
    shapes reached by sliding one bead of a shape of ``frontier`` down by
    ``s``, a one-box removal at s = 1 and a domino removal at s = 2.

    The movable beads of x are the set bits b >= s of x & ~(x << s), those
    with b - s free, and moving the bead at bit ``low`` gives
    x ^ low ^ (low >> s).
    """
    nxt: set[int] = set()
    floor = ~((1 << s) - 1)
    for x in frontier:
        movable = x & ~(x << s) & floor
        while movable:
            low = movable & -movable
            movable ^= low
            y = x ^ low ^ (low >> s)
            if y in nxt:
                nxt.remove(y)
            else:
                nxt.add(y)
    return nxt


def skew_syt_parity(lam: Partition, mu: Partition) -> int:
    """Parity of the number of standard tableaux of shape lam/mu.

    Level-by-level walk down the one-box lattice from lam to mu, carrying
    only the set of shapes reached by an odd number of paths. It walks one
    box at a time even where dominoes would do: it is the definition the
    domino walk of :func:`unique_odd_constituent` is tested against. Both
    shapes are bead masks with len(lam) beads. ``mu`` must fit inside
    ``lam``: no more parts, and no part longer than lam's.
    """
    if len(mu) > len(lam) or any(a > b for a, b in zip(mu.parts, lam.parts)):
        raise ValueError("not a subdiagram")
    m = len(lam)
    frontier = {_mask_of(lam.parts, m)}
    for _ in range(lam.size - mu.size):
        frontier = _toggle_step(frontier, 1)
    return 1 if _mask_of(mu.parts, m) in frontier else 0


def _frontiers(x: int, k_max: int) -> Iterator[set[int]]:
    """The bead masks, with as many beads as the mask ``x``, of the shapes
    reached from the shape of ``x`` by an odd number of one-box removal
    paths at depths 1, 2, 4, ..., 2^k_max.

    Depth 1 is one one-box step from ``x``. Mod 2 two one-box steps are
    one domino step, so depth 2^k, k >= 1, is 2^(k - 1) domino steps from
    ``x``, read off one walk as it passes each depth.
    """
    if k_max < 0:
        return
    frontier = {x}
    yield _toggle_step(frontier, 1)
    dominoes = 0
    for k in range(1, k_max + 1):
        while dominoes < 1 << (k - 1):
            frontier = _toggle_step(frontier, 2)
            dominoes += 1
        yield frontier


def _odd_survivor(lam: Partition, k: int, frontier: set[int], odd: dict[int, bool]) -> int:
    """The bead mask of the one odd-degree shape in ``lam``'s depth-2^k
    frontier, with its padding.

    ``odd`` memoises the degree test for one level: it maps a shape's mask
    with its low run of set bits (the padding, parts of 0) shifted out to
    whether its degree is odd. Walks from partitions with different numbers
    of parts reach the same shape at different paddings, and the unpadded
    mask names the shape, and so its size, whatever the padding. The
    valuation is padding-invariant, so a miss is computed on that mask.
    """
    size = lam.size - (1 << k)
    candidates = []
    for x in frontier:
        key = x >> ((x + 1) & ~x).bit_length() - 1
        odd_degree = odd.get(key)
        if odd_degree is None:
            odd_degree = odd[key] = _nu2_degree_mask(key, size) == 0
        if odd_degree:
            candidates.append(x)
    if len(candidates) != 1:
        raise RuntimeError(
            f"{lam} at k={k}: {len(candidates)} odd constituents with odd parity"
        )
    return candidates[0]


def unique_odd_constituent(lam: Partition, k: int) -> Partition:
    """The one odd-degree partition of |lam| - 2^k reached from ``lam`` with
    odd skew-tableau parity.

    Oddness is decided by degree valuation only. One walk of 2^(k - 1)
    domino removals (one box at k = 0) computes every parity at once;
    anything other than exactly one odd-degree survivor contradicts the
    uniqueness fact being relied on, so that case raises instead of
    guessing.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    # 2^k >= |lam| exactly when k >= bit_length(|lam| - 1), and always at
    # |lam| = 0; compared by bit length so no 2^k is built.
    if k >= max(lam.size - 1, 0).bit_length():
        raise ValueError("need 2^k < |lam|")
    x = _mask_of(lam.parts, len(lam))
    if _nu2_degree_mask(x, lam.size) != 0:
        raise ValueError("defined for odd-degree partitions")
    *_, frontier = _frontiers(x, k)
    return Partition(_parts_of(_odd_survivor(lam, k, frontier, {})))


# How many partitions of a level one batch of :func:`_check_level` holds.
_BATCH = 1024


def _check_level(n: int) -> tuple[int, list[Mismatch]]:
    """The checks of one level of :func:`cross_validate`, and its mismatches.

    The partitions of n are taken in batches of ``_BATCH``, and each batch
    goes through one layer at a time: the oracle's masks and degree tests,
    then ``is_odd`` on every member, then one walk for each member of odd
    degree, read at each depth 2^k < n, then the map at every k, and last
    one pass in enumeration order that compares and reports. Interleaving
    the layers partition by partition does no extra work but runs slower;
    a batch keeps each layer's loop hot, and holds at most ``_BATCH``
    partitions, so memory is bounded by the batch and not the level, and
    mismatches still come in enumeration order. The walks of a level meet
    the same shapes again and again, so the level keeps one memo of their
    degree parities (see :func:`_odd_survivor`) and tests each shape once.
    The memo is the one thing that outlives a batch, and it is local: it
    dies with the call, so no level holds another's shapes. What a worker
    process carries from one level to the next is only the entries of
    :func:`_width_tables`, one per mask bit width it has tested.
    """
    # Imports deferred so the oracle itself stays free of tower machinery.
    from .maps import remove_odd_hook
    from .oddity import is_odd

    checks = 0
    mismatches: list[Mismatch] = []
    odd: dict[int, bool] = {}
    # The largest k with 2^k < n; -1 at n = 1, where no k is checked.
    k_max = (n - 1).bit_length() - 1
    ks = range(k_max + 1)
    level = partitions_of(n)
    while batch := list(islice(level, _BATCH)):
        masks = [_mask_of(lam.parts, len(lam.parts)) for lam in batch]
        expected = [_nu2_degree_mask(x, n) == 0 for x in masks]
        got = [is_odd(lam) for lam in batch]
        # One walk per member of odd degree, from the mask of its degree
        # test, serves every k; the survivors and the map's answers are
        # kept flat, one per (member, k) in that order.
        walked = [(lam, x) for lam, x, e in zip(batch, masks, expected) if e]
        survivors: list[object] = []
        for lam, x in walked:
            for k, frontier in enumerate(_frontiers(x, k_max)):
                try:
                    survivors.append(_odd_survivor(lam, k, frontier, odd))
                except RuntimeError as exc:
                    survivors.append(f"oracle failure: {exc}")
        answers: list[object] = []
        for lam, _ in walked:
            for k in ks:
                try:
                    answers.append(remove_odd_hook(lam, k))
                except Exception as exc:
                    answers.append(f"error: {exc}")
        checks += len(batch) + len(survivors)
        # The map's answer is compared as a bead mask with as many beads as
        # lam has parts, and a survivor is decoded only to report a
        # mismatch. zip draws from ks first, so a member takes exactly its
        # own k_max + 1 pairs.
        pairs = zip(survivors, answers)
        for lam, e, g in zip(batch, expected, got):
            if e != g:
                mismatches.append(Mismatch(lam=lam, k=None, expected=e, got=g))
            if not e:
                continue
            m = len(lam.parts)
            for k, (survivor, got_mu) in zip(ks, pairs):
                if (
                    isinstance(got_mu, Partition)
                    and len(got_mu.parts) <= m
                    and _mask_of(got_mu.parts, m) == survivor
                ):
                    continue
                expected_mu = (
                    survivor if isinstance(survivor, str) else Partition(_parts_of(survivor))
                )
                mismatches.append(Mismatch(lam=lam, k=k, expected=expected_mu, got=got_mu))
    return checks, mismatches


def cross_validate(n_max: int, jobs: int = 1) -> ParityReport:
    """Sweep all n up to ``n_max``: oddness parity on every partition, and
    the odd-constituent comparison on every odd partition and every k.

    The report's mismatches run by level, in ascending n, and within a
    level in enumeration order: a partition's oddness mismatch (k None)
    before its map mismatches in ascending k.

    Levels run in at most ``jobs`` worker processes, never more than there
    are levels or CPUs: the pool starts all of its workers at once. The
    process pool is imported only when more than one worker runs, so a
    serial sweep, and every import of this module, loads no
    ``multiprocessing``.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    levels = range(1, n_max + 1)
    workers = min(jobs, len(levels), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_level, levels))
    else:
        results = [_check_level(n) for n in levels]
    checks = sum(c for c, _ in results)
    mismatches = tuple(m for _, ms in results for m in ms)
    return ParityReport(n_max=n_max, checks_run=checks, mismatches=mismatches)
