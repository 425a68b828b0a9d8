"""Partition arithmetic: the partition value, its bead mask, the
enumeration of partitions, and nu2.

Partitions are weakly decreasing tuples of positive integers; the empty
partition is a first-class value. A beta-set holds the first-column hook
lengths (beta numbers), the beads of the abacus; removing a rim hook of
length L slides one bead down by L. The quotient, oddness and map modules
compute on one bead format, the bead mask: the int whose set bits are the
beads, which :func:`_bead_mask` encodes from a partition and
:func:`_partition_from_mask` decodes back, so a slide is one XOR and a
partition is built once, at the end; :func:`_mask_size` reads a mask's
size without building it. A partition is encoded at most once: the first
encoding is kept on it and later ones only pad it. That mask and the
oddness verdict that ``oddity.is_odd`` keeps are the only memos a
partition holds. A decoded partition does not store its mask, since most
decoded answers are rendered and never encoded again. The beta-set as a
tuple, the conjugate, the hook-length table and the degree valuation by
Frobenius's formula are second routes that the tests check the masks
against; they live in ``reference``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import total_ordering
from itertools import accumulate
from operator import index, lt

__all__ = [
    "Partition",
    "nu2",
    "partitions_of",
]


@total_ordering
class Partition:
    """Weakly decreasing positive integer parts; () is the empty partition."""

    # The unpadded bead mask, stored on the instance by the first
    # _bead_mask call, and the oddness verdict, stored by the first
    # oddity.is_odd call.
    _beads: int | None = None
    _odd: bool | None = None

    def __init__(self, parts: Iterable[int] = ()):
        # operator.index rejects a non-integral part instead of truncating it.
        parts = tuple(map(index, parts))
        if any(map(lt, parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        if parts and parts[-1] <= 0:
            raise ValueError("parts must be positive")
        self.parts = parts
        self.size = sum(parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts < other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.parts)) + "]"


def nu2(n: int) -> int:
    """Exponent of the largest power of 2 dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("nu2 undefined at 0")
    return (n & -n).bit_length() - 1


def _trusted_partition(parts: tuple[int, ...]) -> Partition:
    """The :class:`Partition` of ``parts``, a tuple of ints the library
    built weakly decreasing and positive, without re-checking it.

    Its callers are in this module only: the enumeration and the mask
    decoder. The oracle builds what it decodes through the checked
    constructor, so it shares no unchecked path with the code it checks."""
    lam = Partition.__new__(Partition)
    lam.parts = parts
    lam.size = sum(parts)
    return lam


def _bead_mask(lam: Partition, pad: int = 0) -> int:
    """The bead mask of ``reference.beta_set(lam, len(lam) + pad)``: the
    int whose bit b is set iff b is a bead. Padding shifts every bead up
    by ``pad`` and fills the ``pad`` low bits.

    ``lam`` is encoded at most once: the unpadded mask is kept on it and
    every later call only pads it. :func:`_partition_from_mask` does not
    store the mask it decodes, so a partition built only to be rendered
    carries none.
    """
    x = lam._beads
    if x is None:
        x = 0
        for b, p in enumerate(reversed(lam.parts)):
            x |= 1 << (p + b)
        lam._beads = x
    return x << pad | ((1 << pad) - 1)


def _partition_from_mask(x: int) -> Partition:
    """The partition of the bead mask ``x``, with any padding.

    A bead's part is the number of free positions below it. The padding is
    the low run of set bits, whose parts are 0, so it is dropped first; a
    mask of padding alone leaves no gaps and gives (). Split top bit first,
    the binary string gives the gaps above each bead; taken from the last,
    the gaps below the lowest bead, they sum to the parts, which come out
    positive and increasing.
    """
    gaps = bin(x).rstrip("1").split("1")[:0:-1]
    return _trusted_partition(tuple(accumulate(map(len, gaps)))[::-1])


def _mask_size(x: int) -> int:
    """The size of the partition of the bead mask ``x``, with any padding,
    without decoding it: the sum of the bead positions less L(L - 1)/2 for
    L beads, since the beads of the empty partition sit at 0, ..., L - 1."""
    # Shifting the padding out moves every other bead down as far and
    # leaves the size as it is.
    x >>= (x ^ (x + 1)).bit_length() - 1
    m = x.bit_count()
    total = -(m * (m - 1) // 2)
    while x:
        low = x & -x
        x ^= low
        total += low.bit_length() - 1
    return total


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order.

    Zoghbi and Stojmenović's ZS1 (Int. J. Comput. Math. 70 (1998) 319-332),
    in constant amortised time per partition: ``x`` holds the parts padded
    with 1s to length n, ``m`` is the number of parts and ``h`` the index of
    the last part above 1. Every step lowers x[h] by one and refills the
    parts after it greedily with that value, so the trailing 1s are never
    rescanned; a part of 2 becomes a 1 and one more part.
    """
    n = index(n)
    if n < 0:
        raise ValueError("partitions are defined for non-negative integers")
    if n == 0:
        yield _trusted_partition(())
        return
    x = [1] * n
    x[0] = n
    m = 1
    h = 0
    yield _trusted_partition((n,))
    while x[0] != 1:
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
        yield _trusted_partition(tuple(x[:m]))
