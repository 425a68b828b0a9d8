"""e-cores, e-quotients, and the iterated 2-quotient machinery.

The quotient convention is fixed once and for all: a beta-set whose size is
a multiple of e, with quotient components ordered by the residue classes of
the beta numbers mod e. Growing the beta-set by e shifts every class in a
way that leaves both core and quotient unchanged, so the decomposition is
well defined. A regression test pins the convention against a worked
6-part example, including the order of the second tower row.

Towers iterate the e = 2 decomposition: row k of the quotient tower holds
2^k partitions, obtained by replacing each entry of row k-1 with its
2-quotient pair; the core tower records the 2-cores of those entries.
Row k holds the components of the 2^k-quotient in another order (the
abacus fact of James and Kerber), so a question that ignores the order
reads row k from one ``e_quotient(lam, 2**k)`` pass. Only the k-data
tables, which rebuild partitions and which the ``tower`` command prints,
need the order; they walk the tower level by level.
Production code never builds a tower: oddness and the removal map work
on bead counts of a beta-set, and the tests check those counts against
the core tower.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partition import (
    Partition,
    beta_set,
    hooks_of_length,
    partition_from_beta,
)

__all__ = [
    "CoreQuotient",
    "CoreTower",
    "KData",
    "core_and_quotient",
    "e_core",
    "e_quotient",
    "from_core_quotient",
    "core_tower",
    "k_data",
    "partition_from_kdata",
    "is_two_core",
]


@dataclass(frozen=True)
class CoreQuotient:
    """An e-core together with the e-tuple of quotient components."""

    e: int
    core: Partition
    quotient: tuple[Partition, ...]

    @property
    def total(self) -> int:
        """Size of the partition this decomposition came from."""
        return self.core.size + self.e * sum(q.size for q in self.quotient)


@dataclass(frozen=True)
class CoreTower:
    """2-core tower rows, up to and including the first all-empty tower row.

    ``weights[k]`` is the total number of cells in row k; trailing zero
    weights are trimmed, so the last stored row (whose entries' sources were
    all empty) carries no weight entry.
    """

    rows: tuple[tuple[Partition, ...], ...]
    weights: tuple[int, ...]

    def weight(self, k: int) -> int:
        return self.weights[k] if 0 <= k < len(self.weights) else 0


@dataclass(frozen=True)
class KData:
    """Core-tower rows 0..k-1 plus quotient-tower row k, left to right;
    determines the partition."""

    k: int
    core_rows: tuple[tuple[Partition, ...], ...]
    quotient_row: tuple[Partition, ...]


def _residue_classes(beta: tuple[int, ...], e: int) -> list[list[int]]:
    """Quotient digits of the beta numbers, bucketed by residue, each decreasing."""
    classes: list[list[int]] = [[] for _ in range(e)]
    for x in beta:
        classes[x % e].append(x // e)
    return classes


def core_and_quotient(lam: Partition, e: int) -> CoreQuotient:
    """The e-core and e-quotient of ``lam`` in one beta-set pass."""
    if e < 1:
        raise ValueError("e must be at least 1")
    s = -(-len(lam) // e) * e
    classes = _residue_classes(beta_set(lam, s), e)
    quotient = tuple(partition_from_beta(c) for c in classes)
    pushed = [r + e * j for r, c in enumerate(classes) for j in range(len(c))]
    return CoreQuotient(e=e, core=partition_from_beta(pushed), quotient=quotient)


def e_core(lam: Partition, e: int) -> Partition:
    """The partition left after all hooks of length e are removed."""
    return core_and_quotient(lam, e).core


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
    if hooks_of_length(core, e):
        raise ValueError("not an e-core")
    s = -(-len(core) // e) * e
    while True:
        classes = _residue_classes(beta_set(core, s), e)
        if all(len(c) >= len(q) for c, q in zip(classes, quotient)):
            break
        s += e
    beta = [
        e * m + r
        for r, (c, q) in enumerate(zip(classes, quotient))
        for m in beta_set(q, len(c))
    ]
    return partition_from_beta(beta)


def _descend(
    entries: tuple[Partition, ...],
) -> tuple[tuple[Partition, ...], tuple[Partition, ...]]:
    """The 2-cores of one tower row and the row below it, one split per entry."""
    split = [core_and_quotient(p, 2) for p in entries]
    return tuple(cq.core for cq in split), tuple(q for cq in split for q in cq.quotient)


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


def k_data(lam: Partition, k: int) -> KData:
    """Core rows 0..k-1 together with quotient row k."""
    if k < 1:
        raise ValueError("k-data defined for k > 0")
    core_rows = []
    entries = (lam,)
    for _ in range(k):
        cores, entries = _descend(entries)
        core_rows.append(cores)
    return KData(k=k, core_rows=tuple(core_rows), quotient_row=entries)


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
