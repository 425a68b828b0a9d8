"""Partition arithmetic: hooks, rim-hook removal, and 2-adic helpers.

Partitions are weakly decreasing tuples of positive integers; the empty
partition is a first-class value. Rim-hook removal goes through the
first-column hook lengths (beta numbers), which keeps it linear in the
number of parts. Character degrees are never materialized: only their
2-adic valuations are computed, via the hook length formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "Hook",
    "beta_set",
    "partition_from_beta",
    "hook_lengths",
    "hooks_of_length",
    "remove_hook",
    "nu2",
    "nu2_degree",
    "is_hook_partition",
    "all_two_disjoint",
    "partitions_of",
]


@total_ordering
class Partition:
    """Weakly decreasing positive integer parts; () is the empty partition."""

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        if any(a < b for a, b in zip(parts, parts[1:])):
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

    @cached_property
    def conjugate(self) -> "Partition":
        """The transposed diagram (column lengths)."""
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """Cellwise containment: ``other`` fits inside this Young diagram."""
        if len(other) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(other.parts, self.parts))


@dataclass(frozen=True)
class Hook:
    """A cell of a partition together with its arm and leg counts.

    Rows and columns are 1-based. The length is arm + leg + 1.
    """

    row: int
    col: int
    arm: int
    leg: int

    def __post_init__(self) -> None:
        if self.row < 1 or self.col < 1:
            raise ValueError("hook cell coordinates are 1-based")
        if self.arm < 0 or self.leg < 0:
            raise ValueError("arm and leg must be non-negative")

    @property
    def length(self) -> int:
        return self.arm + self.leg + 1


def all_two_disjoint(values: Iterable[int]) -> bool:
    """True iff the values are pairwise 2-disjoint (no shared binary digit)."""
    total = 0
    acc = 0
    for v in values:
        total += v
        acc |= v
    return total == acc


def nu2(n: int) -> int:
    """Exponent of the largest power of 2 dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("nu2 undefined at 0")
    return (n & -n).bit_length() - 1


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
    parts = lam.parts
    return tuple(
        (parts[i] if i < len(parts) else 0) + size - 1 - i for i in range(size)
    )


def partition_from_beta(beta: Iterable[int]) -> Partition:
    """Inverse of :func:`beta_set`: recover the partition from beta numbers."""
    beta = sorted(beta, reverse=True)
    if any(b < 0 for b in beta):
        raise ValueError("beta numbers must be non-negative")
    if len(set(beta)) != len(beta):
        raise ValueError("beta numbers must be distinct")
    s = len(beta)
    parts = [b - (s - 1 - i) for i, b in enumerate(beta)]
    return Partition([p for p in parts if p > 0])


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of every cell, row by row."""
    conj = lam.conjugate.parts
    return [
        [(row - (j + 1)) + (conj[j] - (i + 1)) + 1 for j in range(row)]
        for i, row in enumerate(lam.parts)
    ]


def hooks_of_length(lam: Partition, length: int) -> list[Hook]:
    """All hooks of ``lam`` with the given exact length, in row-major order."""
    if length < 1:
        raise ValueError("hook lengths are positive")
    conj = lam.conjugate.parts
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
    leg = lam.conjugate[hook.col - 1] - hook.row
    if arm != hook.arm or leg != hook.leg:
        raise ValueError("not a hook of this partition")
    beta = list(beta_set(lam))
    beta[hook.row - 1] -= hook.length
    return partition_from_beta(beta)


def nu2_degree(lam: Partition) -> int:
    """2-adic valuation of the character degree labelled by ``lam``.

    Uses the hook length formula: nu2(n!) - sum of nu2 over all hook
    lengths, with nu2(n!) = n - (number of binary digits of n).
    """
    if lam.size == 0:
        raise ValueError("degree valuation undefined for the empty partition")
    total = lam.size - bin(lam.size).count("1")
    for row in hook_lengths(lam):
        for h in row:
            total -= (h & -h).bit_length() - 1
    return total


def is_hook_partition(lam: Partition) -> bool:
    """True iff ``lam`` is empty or of the form (a, 1, 1, ..., 1)."""
    return all(p == 1 for p in lam.parts[1:])


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("partitions are defined for non-negative integers")
    if n == 0:
        yield Partition(())
        return
    r = (n,)
    yield Partition(r)
    while True:
        i = len(r) - 1
        while i >= 0 and r[i] == 1:
            i -= 1
        if i < 0:
            return
        freed = len(r) - i
        r = r[:i] + (r[i] - 1,)
        while freed > 0:
            nxt = min(r[-1], freed)
            r += (nxt,)
            freed -= nxt
        yield Partition(r)
