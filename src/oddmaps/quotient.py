"""The k-data tables of the 2-quotient tower, walked on bead masks.

The quotient convention is fixed once and for all: a beta-set whose size is
a multiple of e, with quotient components ordered by the residue classes of
the beta numbers mod e. :func:`_runners` is where it is applied: it pads
the mask it is given, so no caller pads for a split. Growing the beta-set
by e shifts every class in a way that leaves both core and quotient
unchanged, so the decomposition is well defined. A regression test pins
the convention against a worked 6-part example, including the order of
the second tower row, and another pins it at every padding of the mask.

The beads are held as bead masks (see ``partition``). Residue class r is
runner r of the e-runner abacus (:func:`_runners`), itself a bead mask
whose bit j is bead e*j + r: quotient component r is the partition of that
mask, and the core keeps each runner's bead count, pushed up
(:func:`_pushed_up`, which reads the counts off the runner masks), so
d-goodness decodes no quotient.

Towers iterate the e = 2 decomposition: row k of the quotient tower holds
2^k partitions, obtained by replacing each entry of row k-1 with its
2-quotient pair; the core tower records the 2-cores of those entries.
Row k holds the components of the 2^k-quotient in another order (the
abacus fact of James and Kerber). Only the k-data tables, which the
``tower`` command prints, need the order. :func:`k_data` walks them on
masks: ``lam`` is encoded once, each entry splits into its two runner
masks, which split in turn, and only the cores and the row-k entries that
the table holds are decoded. Production code never builds a whole tower:
oddness and the removal map work on bead slides of a bead mask. The
e-core and e-quotient as partitions (``core_and_quotient``), the full
core tower by a descent over them, and the rebuild of a partition from
its k-data are kept in ``reference``, where the tests check the mask
walk and the slides against them.
"""

from __future__ import annotations

from collections import namedtuple

from .partition import Partition, _bead_mask, _partition_from_mask

__all__ = [
    "KData",
    "k_data",
]


class KData(namedtuple("KData", "k core_rows quotient_row")):
    """Core-tower rows 0..k-1 plus quotient-tower row k, left to right;
    determines the partition.

    Fields: ``k: int``, ``core_rows: tuple[tuple[Partition, ...], ...]``,
    ``quotient_row: tuple[Partition, ...]``.
    """

    __slots__ = ()


def _runners(x: int, e: int) -> list[int]:
    """The e runners of the abacus of the bead mask ``x``, each a bead mask:
    bit j of runner r is bead e*j + r, once ``x`` is padded to a multiple of
    e beads. This is where the quotient convention is applied, so every
    caller passes its mask with any padding and gets the same runners."""
    pad = -x.bit_count() % e
    digits = bin(x << pad | ((1 << pad) - 1))[:1:-1]  # the lowest bit first
    return [int(digits[r::e][::-1] or "0", 2) for r in range(e)]


def _from_runners(runners: list[int], e: int) -> int:
    """The bead mask whose e-runner abacus holds the bead masks ``runners``,
    interleaved so that bit j of runner r is bead e*j + r: the inverse of
    :func:`_runners` up to its padding, so ``_from_runners(_runners(x, e), e)``
    is ``x`` padded to a multiple of e beads. Nothing is decoded; the mask
    carries whatever padding the runners do."""
    width = max(r.bit_length() for r in runners)
    columns = zip(*(format(r, f"0{width}b")[::-1] for r in runners))
    return int("".join(map("".join, columns))[::-1], 2)


def _pushed_up(runners: list[int], e: int) -> int:
    """The bead mask of the e-core of the abacus whose runners are the bead
    masks ``runners``: each runner's beads, counted and pushed up."""
    # Runner i with c beads holds beads i, i + e, ..., i + e*(c - 1): the set
    # bits of (2^(e*c) - 1) / (2^e - 1), shifted up by i.
    ones = (1 << e) - 1
    return sum(((1 << e * r.bit_count()) - 1) // ones << i for i, r in enumerate(runners))


def k_data(lam: Partition, k: int) -> KData:
    """Core rows 0..k-1 together with quotient row k, in one walk over
    bead masks: ``lam`` is encoded once, each entry's runner pair is its
    2-quotient in tower order and gives its 2-core, and only the entries
    the table holds are decoded."""
    if k < 1:
        raise ValueError("k-data defined for k > 0")
    core_rows = []
    masks = [_bead_mask(lam)]
    for _ in range(k):
        split = [_runners(x, 2) for x in masks]
        core_rows.append(tuple(_partition_from_mask(_pushed_up(pair, 2)) for pair in split))
        masks = [r for pair in split for r in pair]
    quotient_row = tuple(map(_partition_from_mask, masks))
    return KData(k=k, core_rows=tuple(core_rows), quotient_row=quotient_row)
