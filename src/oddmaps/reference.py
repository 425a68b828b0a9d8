"""Second routes that the tests and the acceptance gate check production against.

Production computes oddness, the odd partitions of n and the removal map
with one route on the abacus (``oddity`` and ``maps``); nothing there
imports this module. Each route here answers one of those questions
another way, straight from the definitions:

- hook enumeration on the diagram, by arm and leg lengths
  (:func:`hooks_of_length`), each hook removed as a bead slide on the
  beta numbers (:func:`remove_hook`), and the map as every 2^k-hook
  removal filtered by oddness (:func:`odd_hook_removals`). The route
  stands apart from production's slide scan by finding its hooks on the
  diagram; its oddness filter is ``is_odd``, the production digit peel;
- the 2-core tower by a descent that splits each entry as a partition
  (:func:`core_tower`), the route that production's mask walk
  ``quotient.k_data`` is tested against, oddness read from one tower row
  (:func:`is_odd_via_row`), and the map as tower surgery that removes a
  single cell from one entry of quotient row k and rebuilds the partition
  from its k-data (:func:`remove_odd_hook_via_tower`,
  :func:`partition_from_kdata`);
- the odd partitions of n as a filter over all partitions of n, listed
  by the oracle's ZS1 (:func:`odd_partitions_by_filter`).

It also holds, in their textbook forms, the primitives that production
computes on its one bead format, the bead mask:

- the beta-set as a tuple and its inverse (:func:`beta_set`,
  :func:`partition_from_beta`), the conjugate (:func:`conjugate`), the
  hook-length table (:func:`hook_lengths`) and the hook-shape test
  (:func:`is_hook_partition`);
- goodness at depth d of a partition (:func:`d_good`), as defined, which
  production decides on bead masks (``oddity._good``) inside the
  fiber-size formula;
- the degree valuation by Frobenius's formula on beta numbers
  (:func:`nu2_degree`), a second route beside the oracle's valuation on
  masks;
- the e-core and e-quotient of a partition in one pass over its runners,
  as the record :class:`CoreQuotient` (:func:`core_and_quotient`), and the
  e-quotient and the rebuild of a partition from its e-core and e-quotient,
  as partitions (:func:`e_quotient`, :func:`from_core_quotient`).

The character-theory oracle in ``oracle`` checks the map independently of
all of them.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from operator import add, index

from .oddity import _good, is_odd
from .oracle import partitions_of
from .partition import Partition, _bead_mask, _partition_from_mask
from .quotient import KData, _from_runners, _pushed_up, _runners, k_data

__all__ = [
    "beta_set",
    "partition_from_beta",
    "conjugate",
    "hook_lengths",
    "is_hook_partition",
    "d_good",
    "nu2_degree",
    "CoreQuotient",
    "core_and_quotient",
    "e_quotient",
    "from_core_quotient",
    "Hook",
    "CoreTower",
    "all_two_disjoint",
    "hooks_of_length",
    "remove_hook",
    "core_tower",
    "is_two_core",
    "partition_from_kdata",
    "is_odd_via_row",
    "odd_partitions_by_filter",
    "odd_hook_removals",
    "remove_odd_hook_via_tower",
]


class Hook(namedtuple("Hook", "row col arm leg")):
    """A cell of a partition together with its arm and leg counts.

    Rows and columns are 1-based. The length is arm + leg + 1.
    Fields: ``row: int``, ``col: int``, ``arm: int``, ``leg: int``.
    """

    __slots__ = ()

    def __new__(cls, row: int, col: int, arm: int, leg: int) -> Hook:
        if row < 1 or col < 1:
            raise ValueError("hook cell coordinates are 1-based")
        if arm < 0 or leg < 0:
            raise ValueError("arm and leg must be non-negative")
        return super().__new__(cls, row, col, arm, leg)

    @property
    def length(self) -> int:
        return self.arm + self.leg + 1


def beta_set(lam: Partition, size: int | None = None) -> tuple[int, ...]:
    """First-column hook lengths of ``lam`` padded to ``size`` beta numbers.

    Returned strictly decreasing. With the default size the values are
    exactly the first-column hook lengths; a larger size appends the padded
    values size-1-i for the missing rows.
    """
    if size is None:
        size = len(lam)
    if size < len(lam):
        raise ValueError("beta-set size must be at least the number of parts")
    beads = tuple(map(add, lam.parts, range(size - 1, -1, -1)))
    return beads + tuple(range(size - 1 - len(beads), -1, -1))


def partition_from_beta(beta: Iterable[int]) -> Partition:
    """Inverse of :func:`beta_set`: recover the partition from beta numbers."""
    beta = tuple(map(index, beta))
    if any(b < 0 for b in beta):
        raise ValueError("beta numbers must be non-negative")
    if len(set(beta)) != len(beta):
        raise ValueError("beta numbers must be distinct")
    return _partition_from_mask(sum(1 << b for b in beta))


def conjugate(lam: Partition) -> Partition:
    """The transposed diagram (column lengths)."""
    if not lam.parts:
        return lam
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of every cell, row by row."""
    conj = conjugate(lam).parts
    return [
        [(row - (j + 1)) + (conj[j] - (i + 1)) + 1 for j in range(row)]
        for i, row in enumerate(lam.parts)
    ]


def is_hook_partition(lam: Partition) -> bool:
    """True iff ``lam`` is empty or of the form (a, 1, 1, ..., 1)."""
    return all(p == 1 for p in lam.parts[1:])


def d_good(lam: Partition, d: int) -> bool:
    """Goodness at depth d: size congruent to 2^d - 1 mod 2^(d+1), and the
    2^d-core is a hook partition. Defined for odd partitions only. Decided
    on the bead mask of ``lam`` by ``oddity._good``."""
    if d < 0:
        raise ValueError("depth must be non-negative")
    return _good(_bead_mask(lam), lam.size, d)


def _nu2_degree_parts(parts: tuple[int, ...]) -> int:
    """2-adic valuation of the character degree labelled by the part tuple
    ``parts``, from Frobenius's formula on its beta numbers; 0 for ().

    The beta numbers b_i are computed here, not by :func:`beta_set`, so the
    tests that check the abacus against this valuation share no code with
    that primitive.
    """
    m = len(parts)
    betas = [p + m - 1 - i for i, p in enumerate(parts)]
    n = sum(parts)
    total = n - n.bit_count()
    for i, b in enumerate(betas):
        total -= b - b.bit_count()
        for c in betas[i + 1 :]:
            d = b - c
            total += (d & -d).bit_length() - 1
    return total


def nu2_degree(lam: Partition) -> int:
    """2-adic valuation of the character degree labelled by ``lam``.

    Evaluates Frobenius's degree formula on the beta numbers
    b_i = lam_i + len(lam) - i, in valuations:
    nu2(n!) + sum over i < j of nu2(b_i - b_j) - sum over i of nu2(b_i!),
    with nu2(m!) = m - (number of ones in the binary expansion of m).
    """
    if lam.size == 0:
        raise ValueError("degree valuation undefined for the empty partition")
    return _nu2_degree_parts(lam.parts)


class CoreQuotient(namedtuple("CoreQuotient", "e core quotient")):
    """An e-core together with the e-tuple of quotient components.

    Fields: ``e: int``, ``core: Partition``, ``quotient: tuple[Partition, ...]``.
    """

    __slots__ = ()

    @property
    def total(self) -> int:
        """Size of the partition this decomposition came from."""
        return self.core.size + self.e * sum(q.size for q in self.quotient)


def core_and_quotient(lam: Partition, e: int) -> CoreQuotient:
    """The e-core and e-quotient of ``lam`` in one pass over its runners."""
    if e < 1:
        raise ValueError("e must be at least 1")
    runners = _runners(_bead_mask(lam), e)
    core = _partition_from_mask(_pushed_up(runners, e))
    return CoreQuotient(e=e, core=core, quotient=tuple(map(_partition_from_mask, runners)))


def _descend(
    entries: tuple[Partition, ...],
) -> tuple[tuple[Partition, ...], tuple[Partition, ...]]:
    """The 2-cores of one tower row and the row below it, one split per entry."""
    split = [core_and_quotient(p, 2) for p in entries]
    return tuple(cq.core for cq in split), tuple(q for cq in split for q in cq.quotient)


def e_quotient(lam: Partition, e: int) -> tuple[Partition, ...]:
    """The e-tuple of quotient components of ``lam``."""
    return core_and_quotient(lam, e).quotient


def from_core_quotient(
    core: Partition, quotient: tuple[Partition, ...] | list[Partition], e: int
) -> Partition:
    """The unique partition with the given e-core and e-quotient."""
    if e < 1:
        raise ValueError("e must be at least 1")
    quotient = tuple(quotient)
    if len(quotient) != e:
        raise ValueError(f"quotient must have exactly {e} components")
    # An e-core has no e-hook: no bead b >= e with b - e free.
    x = _bead_mask(core)
    if x >> e & ~x:
        raise ValueError("not an e-core")
    counts = [r.bit_count() for r in _runners(x, e)]
    # Padding by e more beads puts one more bead on every runner.
    extra = max(0, *(len(q) - c for c, q in zip(counts, quotient)))
    runners = [_bead_mask(q, c + extra - len(q)) for c, q in zip(counts, quotient)]
    return _partition_from_mask(_from_runners(runners, e))



def all_two_disjoint(values: Iterable[int]) -> bool:
    """True iff the values are pairwise 2-disjoint (no shared binary digit)."""
    total = 0
    acc = 0
    for v in values:
        total += v
        acc |= v
    return total == acc


def hooks_of_length(lam: Partition, length: int) -> list[Hook]:
    """All hooks of ``lam`` with the given exact length, in row-major order."""
    if length < 1:
        raise ValueError("hook lengths are positive")
    conj = conjugate(lam).parts
    found = []
    for i, row in enumerate(lam.parts):
        for j in range(row):
            arm = row - (j + 1)
            leg = conj[j] - (i + 1)
            if arm + leg + 1 == length:
                found.append(Hook(row=i + 1, col=j + 1, arm=arm, leg=leg))
    return found


def remove_hook(lam: Partition, hook: Hook) -> Partition:
    """Remove the rim hook at ``hook`` from ``lam``.

    Implemented on the beta numbers: the hook of length L at row i
    corresponds to replacing beta_i by beta_i - L.
    """
    if not (1 <= hook.row <= len(lam)) or not (1 <= hook.col <= lam[hook.row - 1]):
        raise ValueError("not a hook of this partition")
    arm = lam[hook.row - 1] - hook.col
    leg = conjugate(lam)[hook.col - 1] - hook.row
    if arm != hook.arm or leg != hook.leg:
        raise ValueError("not a hook of this partition")
    beta = list(beta_set(lam))
    beta[hook.row - 1] -= hook.length
    return partition_from_beta(beta)


class CoreTower(namedtuple("CoreTower", "rows weights")):
    """2-core tower rows, up to and including the first all-empty tower row.

    Fields: ``rows: tuple[tuple[Partition, ...], ...]``,
    ``weights: tuple[int, ...]``. ``weights[k]`` is the total number of
    cells in row k; trailing zero weights are trimmed, so the last stored
    row (whose entries' sources were all empty) carries no weight entry.
    """

    __slots__ = ()

    def weight(self, k: int) -> int:
        return self.weights[k] if 0 <= k < len(self.weights) else 0


def core_tower(lam: Partition) -> CoreTower:
    """The 2-core tower, cut off at the first all-empty tower row."""
    rows = []
    weights = []
    entries = (lam,)
    while True:
        cores, below = _descend(entries)
        rows.append(cores)
        weights.append(sum(c.size for c in cores))
        if all(p.size == 0 for p in entries):
            break
        entries = below
    while weights and weights[-1] == 0:
        weights.pop()
    return CoreTower(rows=tuple(rows), weights=tuple(weights))


def is_two_core(lam: Partition) -> bool:
    """True iff ``lam`` is a staircase (r, r-1, ..., 1) or empty."""
    return lam.parts == tuple(range(len(lam), 0, -1))


def partition_from_kdata(data: KData) -> Partition:
    """Rebuild the unique partition with the given k-data (inverse of :func:`k_data`)."""
    if data.k < 1:
        raise ValueError("k-data defined for k > 0")
    if len(data.core_rows) != data.k:
        raise ValueError(f"expected {data.k} core rows")
    for j, row in enumerate(data.core_rows):
        if len(row) != 1 << j:
            raise ValueError(f"core row {j} must hold 2^{j} entries")
        for p in row:
            if not is_two_core(p):
                raise ValueError("core row entry is not a 2-core")
    if len(data.quotient_row) != 1 << data.k:
        raise ValueError(f"quotient row must hold 2^{data.k} entries")
    level = data.quotient_row
    for j in range(data.k - 1, -1, -1):
        level = tuple(
            from_core_quotient(data.core_rows[j][i], (level[2 * i], level[2 * i + 1]), 2)
            for i in range(1 << j)
        )
    return level[0]


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


def odd_partitions_by_filter(n: int) -> tuple[Partition, ...]:
    """Reference enumeration: filter all partitions of n by :func:`is_odd`."""
    return tuple(p for p in partitions_of(n) if is_odd(p))


def odd_hook_removals(lam: Partition, k: int) -> tuple[Partition, ...]:
    """All odd partitions reachable from ``lam`` by removing one 2^k-hook."""
    return tuple(
        mu
        for h in hooks_of_length(lam, 1 << k)
        for mu in (remove_hook(lam, h),)
        if is_odd(mu)
    )


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
