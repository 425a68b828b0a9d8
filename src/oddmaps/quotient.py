"""e-cores, e-quotients, and the k-data tables of the 2-quotient tower.

The quotient convention is fixed once and for all: a beta-set whose size is
a multiple of e, with quotient components ordered by the residue classes of
the beta numbers mod e. Growing the beta-set by e shifts every class in a
way that leaves both core and quotient unchanged, so the decomposition is
well defined. A regression test pins the convention against a worked
6-part example, including the order of the second tower row.

The beads are held as bead masks (see ``partition``). Residue class r is
runner r of the e-runner abacus, itself a bead mask whose bit j is bead
e*j + r: quotient component r is the partition of that mask, and the core
keeps each runner's bead count, pushed up. A core needs those counts
alone (:func:`_core`), so d-goodness builds no runner mask and decodes
no quotient.

Towers iterate the e = 2 decomposition: row k of the quotient tower holds
2^k partitions, obtained by replacing each entry of row k-1 with its
2-quotient pair; the core tower records the 2-cores of those entries.
Row k holds the components of the 2^k-quotient in another order (the
abacus fact of James and Kerber), so a question that ignores the order
reads row k from one ``core_and_quotient(lam, 2**k)`` pass. Only the k-data
tables, which the ``tower`` command prints, need the order; they walk
the tower level by level. Production code never builds a whole tower:
oddness and the removal map work on bead slides of a bead mask. The full
core tower, the rebuild of a partition from its k-data, and the e-core,
e-quotient and rebuild from them as partitions are kept in ``reference``,
where the tests check those slides against them.
"""

from __future__ import annotations

from collections import namedtuple

from .partition import Partition, _bead_mask, _partition_from_mask

__all__ = [
    "CoreQuotient",
    "KData",
    "core_and_quotient",
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


def _runners(x: int, e: int) -> list[int]:
    """The e runners of the abacus of the bead mask ``x``, each a bead mask:
    bit j of runner r is bead e*j + r."""
    digits = bin(x)[:1:-1]  # the lowest bit first
    return [int(digits[r::e][::-1] or "0", 2) for r in range(e)]


def _from_runners(runners: list[int], e: int) -> int:
    """The bead mask whose e-runner abacus holds the bead masks ``runners``,
    interleaved so that bit j of runner r is bead e*j + r: the inverse of
    :func:`_runners`. Nothing is decoded; the mask carries whatever padding
    the runners do."""
    width = max(r.bit_length() for r in runners)
    columns = zip(*(format(r, f"0{width}b")[::-1] for r in runners))
    return int("".join(map("".join, columns))[::-1], 2)


def core_and_quotient(lam: Partition, e: int) -> CoreQuotient:
    """The e-core and e-quotient of ``lam`` in one pass over its runners."""
    if e < 1:
        raise ValueError("e must be at least 1")
    runners = _runners(_bead_mask(lam, -len(lam) % e), e)
    core = _partition_from_mask(_pushed_up([r.bit_count() for r in runners], e))
    return CoreQuotient(e=e, core=core, quotient=tuple(map(_partition_from_mask, runners)))


def _pushed_up(counts: list[int], e: int) -> int:
    """The bead mask of the e-core whose abacus holds counts[r] beads on
    runner r, all pushed up."""
    # Runner r holds beads r, r + e, ..., r + e*(c - 1): the set bits of
    # (2^(e*c) - 1) / (2^e - 1), shifted up by r.
    ones = (1 << e) - 1
    return sum(((1 << e * c) - 1) // ones << r for r, c in enumerate(counts))


def _core(x: int, e: int) -> int:
    """The bead mask of the e-core of the bead mask ``x``, padded first to
    a multiple of e beads, from its runner bead counts alone: no runner
    mask and no quotient component is built."""
    pad = -x.bit_count() % e
    digits = bin(x << pad | ((1 << pad) - 1))[:1:-1]  # the lowest bit first
    return _pushed_up([digits[r::e].count("1") for r in range(e)], e)


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
