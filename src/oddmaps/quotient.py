"""e-cores, e-quotients, and the k-data tables of the 2-quotient tower.

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
tables, which the ``tower`` command prints, need the order; they walk
the tower level by level. Production code never builds a whole tower:
oddness and the removal map work on bead slides of a beta-set. The full
core tower and the rebuild of a partition from its k-data are kept in
``reference``, where the tests check those slides against them.
"""

from __future__ import annotations

from collections import namedtuple

from .partition import Partition, _partition_from_slid_beads, beta_set, partition_from_beta

__all__ = [
    "CoreQuotient",
    "KData",
    "core_and_quotient",
    "e_core",
    "e_quotient",
    "from_core_quotient",
    "k_data",
]


class CoreQuotient(namedtuple("CoreQuotient", "e core quotient")):
    """An e-core together with the e-tuple of quotient components.

    Fields: ``e: int``, ``core: Partition``, ``quotient: tuple[Partition, ...]``.
    """

    __slots__ = ()

    @property
    def total(self) -> int:
        """Size of the partition this decomposition came from."""
        return self.core.size + self.e * sum(q.size for q in self.quotient)


class KData(namedtuple("KData", "k core_rows quotient_row")):
    """Core-tower rows 0..k-1 plus quotient-tower row k, left to right;
    determines the partition.

    Fields: ``k: int``, ``core_rows: tuple[tuple[Partition, ...], ...]``,
    ``quotient_row: tuple[Partition, ...]``.
    """

    __slots__ = ()


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
    quotient = tuple(map(_partition_from_slid_beads, classes))
    return CoreQuotient(e=e, core=_pushed_up([len(c) for c in classes], e), quotient=quotient)


def _pushed_up(counts: list[int], e: int) -> Partition:
    """The e-core whose abacus holds counts[r] beads on runner r, all pushed up."""
    return _partition_from_slid_beads(r + e * j for r, c in enumerate(counts) for j in range(c))


def e_core(lam: Partition, e: int) -> Partition:
    """The partition left after all hooks of length e are removed.

    Only the number of beads on each runner matters, so no quotient is built.
    """
    if e < 1:
        raise ValueError("e must be at least 1")
    counts = [0] * e
    for x in beta_set(lam, -(-len(lam) // e) * e):
        counts[x % e] += 1
    return _pushed_up(counts, e)


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
    beads = set(beta_set(core))
    if any(b >= e and b - e not in beads for b in beads):
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
