"""Independent character-theoretic cross-checks.

Everything here is computed from degree parities and skew standard
tableau counts alone. The quotient machinery is deliberately never
imported: a convention bug there cannot cancel against itself when the
same answer is recomputed from branching parities. Only the raw partition
primitives are shared.

Multiplicities in an iterated one-box restriction are counted by standard
tableaux of the skew shape, so the map being certified must send an odd
partition to the unique odd-degree partition reached with odd skew-tableau
parity. ``cross_validate`` sweeps that statement, and the plain oddness
criterion, over everything up to a size bound and reports mismatches as
data rather than raising.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from .partition import Partition, nu2_degree, partitions_of

__all__ = [
    "Mismatch",
    "ParityReport",
    "skew_syt_parity",
    "unique_odd_constituent",
    "cross_validate",
]


@dataclass(frozen=True)
class Mismatch:
    """One disagreement between the oracle and the implementation."""

    lam: Partition
    k: int | None
    expected: Any
    got: Any


@dataclass(frozen=True)
class ParityReport:
    n_max: int
    checks_run: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _one_box_removals(nu: tuple[int, ...]):
    for i in range(len(nu)):
        if i + 1 < len(nu) and nu[i] == nu[i + 1]:
            continue
        if nu[i] == 1:
            yield nu[:i]
        else:
            yield nu[:i] + (nu[i] - 1,) + nu[i + 1 :]


def _toggle_step(frontier: set) -> set:
    """One level of the parity walk down: XOR-accumulate the neighbours."""
    nxt: set = set()
    for nu in frontier:
        for out in _one_box_removals(nu):
            if out in nxt:
                nxt.remove(out)
            else:
                nxt.add(out)
    return nxt


def skew_syt_parity(lam: Partition, mu: Partition) -> int:
    """Parity of the number of standard tableaux of shape lam/mu.

    Level-by-level walk down the one-box lattice from lam to mu, the walk
    :func:`unique_odd_constituent` takes, carrying only the set of shapes
    reached by an odd number of paths.
    """
    if not lam.contains(mu):
        raise ValueError("not a subdiagram")
    frontier = {lam.parts}
    for _ in range(lam.size - mu.size):
        frontier = _toggle_step(frontier)
    return 1 if mu.parts in frontier else 0


def unique_odd_constituent(lam: Partition, k: int) -> Partition:
    """The one odd-degree partition of |lam| - 2^k reached from ``lam`` with
    odd skew-tableau parity.

    Oddness is decided by degree valuation only. A walk of 2^k one-box
    removals computes every parity at once; anything other than exactly one
    odd-degree survivor contradicts the uniqueness fact being relied on,
    so that case raises instead of guessing.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    # 2^k >= |lam| exactly when k >= bit_length(|lam| - 1), and always at
    # |lam| = 0; compared by bit length so no 2^k is built.
    if k >= max(lam.size - 1, 0).bit_length():
        raise ValueError("need 2^k < |lam|")
    if nu2_degree(lam) != 0:
        raise ValueError("defined for odd-degree partitions")
    frontier = {lam.parts}
    for _ in range(1 << k):
        frontier = _toggle_step(frontier)
    candidates = [nu for nu in frontier if nu2_degree(Partition(nu)) == 0]
    if len(candidates) != 1:
        raise RuntimeError(
            f"{lam} at k={k}: {len(candidates)} odd constituents with odd parity"
        )
    return Partition(candidates[0])


def _check_level(n: int) -> tuple[int, list[Mismatch]]:
    # Imports deferred so the oracle itself stays free of tower machinery.
    from .maps import remove_odd_hook
    from .oddity import is_odd

    checks = 0
    mismatches: list[Mismatch] = []
    odd_by_degree = []
    for lam in partitions_of(n):
        expected = nu2_degree(lam) == 0
        got = is_odd(lam)
        checks += 1
        if expected != got:
            mismatches.append(Mismatch(lam=lam, k=None, expected=expected, got=got))
        if expected:
            odd_by_degree.append(lam)
    for lam in odd_by_degree:
        k = 0
        while (1 << k) < n:
            try:
                expected_mu: Any = unique_odd_constituent(lam, k)
            except RuntimeError as exc:
                expected_mu = f"oracle failure: {exc}"
            got_mu = remove_odd_hook(lam, k)
            checks += 1
            if expected_mu != got_mu:
                mismatches.append(Mismatch(lam=lam, k=k, expected=expected_mu, got=got_mu))
            k += 1
    return checks, mismatches


def cross_validate(n_max: int, jobs: int = 1) -> ParityReport:
    """Sweep all n up to ``n_max``: oddness parity on every partition, and
    the odd-constituent comparison on every odd partition and every k.

    Levels run in at most ``jobs`` worker processes, never more than there
    are levels or CPUs: the pool starts all of its workers at once.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    levels = range(1, n_max + 1)
    workers = min(jobs, len(levels), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_check_level, levels))
    else:
        results = [_check_level(n) for n in levels]
    checks = sum(c for c, _ in results)
    mismatches = tuple(m for _, ms in results for m in ms)
    return ParityReport(n_max=n_max, checks_run=checks, mismatches=mismatches)
