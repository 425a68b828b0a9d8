"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every check is exact; the time bounds are the stated
budgets for a cold single-threaded run.
"""

import time

from helpers import commute_instances
from oddmaps import (
    CommuteInstance,
    Partition,
    commute_verdict,
    counterexample_witness,
    cross_validate,
    dnk,
    fiber,
    fiber_size_formula,
    image_misses,
    is_odd,
    is_surjective,
    k_data,
    nu2_degree,
    odd_hook_removals,
    odd_partitions,
    odd_partitions_by_filter,
    partitions_of,
    predicted_commute,
    remove_odd_hook,
    remove_odd_hook_via_tower,
)
from oddmaps.cli import render_kdata

P = Partition


class _Gate:
    """Measure one criterion and print its verdict line, with its runtime
    and its budget."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:2d} {self.label}: {status} ({elapsed:.1f}s)"
            f" budget {self.budget_s:g}s"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_01_worked_example_map_and_table():
    with _Gate(1, "worked example: map value and 2-data table", 1.0):
        lam = P((5, 4, 2, 2, 1, 1))
        assert remove_odd_hook(lam, 2) == P((3, 2, 2, 2, 1, 1))
        rows = [line.strip() for line in render_kdata(k_data(lam, 2)).splitlines()]
        assert rows == ["[1]", "[] [1]", "[1,1] [1] [] []"]


def test_criterion_02_worked_example_fibers():
    with _Gate(2, "worked example: three fibers", 1.0):
        fib = fiber(P((2,)), 6, 2)
        assert fib.members == (P((6,)), P((3, 3)), P((2, 2, 1, 1)), P((2, 1, 1, 1, 1)))
        assert fib.size == 4
        fib = fiber(P((6,)), 10, 2)
        assert fib.members == (P((10,)), P((6, 3, 1)))
        assert fib.size == 2
        assert fiber(P((5, 4, 2, 2, 1, 1)), 19, 2).members == ()


def test_criterion_03_oddness_oracle_equivalence():
    with _Gate(3, "oddness equals degree parity, n <= 28", 30.0):
        mismatches = 0
        for n in range(1, 29):
            for lam in partitions_of(n):
                if is_odd(lam) != (nu2_degree(lam) == 0):
                    mismatches += 1
        assert mismatches == 0


def test_criterion_04_odd_count_law():
    with _Gate(4, "odd-partition count law, n <= 40", 60.0):
        for n in range(1, 41):
            expected = 1
            for j in range(n.bit_length()):
                if n & (1 << j):
                    expected <<= j
            assert len(odd_partitions(n)) == expected, n
        assert len(odd_partitions(6)) == 8
        for n in range(13):
            assert odd_partitions(n) == odd_partitions_by_filter(n)


def test_criterion_05_map_well_definedness():
    with _Gate(5, "unique odd removal and route agreement, n <= 28", 60.0):
        violations = 0
        for n in range(1, 29):
            for lam in odd_partitions(n):
                k = 0
                while (1 << k) < n:
                    candidates = odd_hook_removals(lam, k)
                    if len(candidates) != 1:
                        violations += 1
                    elif k >= 1 and remove_odd_hook_via_tower(lam, k) != candidates[0]:
                        violations += 1
                    k += 1
        assert violations == 0


def test_criterion_06_branching_oracle():
    with _Gate(6, "branching-parity cross-validation, n <= 18", 120.0):
        report = cross_validate(18)
        assert report.mismatches == ()
        assert report.checks_run > 0


def test_criterion_07_fiber_regularity():
    with _Gate(7, "fiber sizes match the closed formula, n <= 28", 120.0):
        for n in range(2, 29):
            domain_size = len(odd_partitions(n))
            k = 0
            while (1 << k) < n:
                total = 0
                for mu in odd_partitions(n - (1 << k)):
                    fib = fiber(mu, n, k)
                    predicted = fiber_size_formula(mu, n, k)
                    assert fib.size == predicted, (n, k, mu)
                    assert predicted in (0, 2, 1 << k)
                    total += fib.size
                assert total == domain_size, (n, k)
                k += 1


def test_criterion_08_surjectivity_classification():
    with _Gate(8, "surjectivity criterion vs actual misses, n <= 32", 120.0):
        for n in range(2, 33):
            k = 0
            while (1 << k) < n:
                depth = dnk(n, k).d
                criterion = depth <= 2 if k == 0 else depth <= 1
                assert is_surjective(n, k, verify=True) == criterion
                assert criterion == (image_misses(n, k) == ()), (n, k)
                k += 1


def test_criterion_09_commutativity_classification():
    with _Gate(9, "commutativity verdicts vs closed criterion, n <= 28", 300.0):
        checked = 0
        for inst in commute_instances(28):
            assert commute_verdict(inst).commutes == predicted_commute(inst), inst
            checked += 1
        assert checked > 0
        assert commute_verdict(CommuteInstance(6, 0, 1)).commutes
        verdict = commute_verdict(CommuteInstance(12, 1, 2))
        assert not verdict.commutes
        lam = P((6, 4, 2))
        assert remove_odd_hook(remove_odd_hook(lam, 2), 1) != remove_odd_hook(
            remove_odd_hook(lam, 1), 2
        )


def test_criterion_10_witness_constructor():
    with _Gate(10, "constructed witnesses verified on every F-instance, n <= 28", 60.0):
        failures = 0
        f_instances = 0
        for inst in commute_instances(28):
            if predicted_commute(inst):
                continue
            f_instances += 1
            lam = counterexample_witness(inst)
            ok = (
                lam.size == inst.n
                and is_odd(lam)
                and remove_odd_hook(remove_odd_hook(lam, inst.l), inst.k)
                != remove_odd_hook(remove_odd_hook(lam, inst.k), inst.l)
            )
            if not ok:
                failures += 1
        assert f_instances > 0
        assert failures == 0
