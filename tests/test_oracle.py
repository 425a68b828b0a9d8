import tracemalloc
from functools import lru_cache

import pytest

from helpers import recording_executor
from oddmaps import Partition, cross_validate, partitions_of, remove_odd_hook
from oddmaps.oracle import skew_syt_parity, unique_odd_constituent

P = Partition


# A second, slower oracle: count saturated removal chains recursively.
# Kept free of the package's lattice-walk code on purpose.
@lru_cache(maxsize=None)
def chain_count(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if lam == mu:
        return 1
    total = 0
    for i in range(len(lam)):
        if i + 1 < len(lam) and lam[i] == lam[i + 1]:
            continue
        smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
        smaller = tuple(p for p in smaller if p)
        if len(smaller) >= len(mu) and all(
            s >= m for s, m in zip(smaller, mu)
        ):
            total += chain_count(smaller, mu)
    return total


def subdiagrams(lam: tuple[int, ...]):
    if not lam:
        yield ()
        return
    for rest in subdiagrams(lam[1:]):
        top = rest[0] if rest else 0
        for first in range(top, lam[0] + 1):
            yield ((first,) + rest) if first else rest


def test_skew_parity_examples():
    assert skew_syt_parity(P((3, 1)), P((3,))) == 1
    assert skew_syt_parity(P((3, 1)), P((2,))) == 0
    assert skew_syt_parity(P((2, 1)), P((1,))) == 0


def test_skew_parity_degenerate_shapes():
    for n in range(9):
        for lam in partitions_of(n):
            assert skew_syt_parity(lam, lam) == 1
            for i in range(len(lam)):
                if i + 1 < len(lam) and lam[i] == lam[i + 1]:
                    continue
                mu = tuple(p for p in lam.parts[:i] + (lam[i] - 1,) + lam.parts[i + 1 :] if p)
                assert skew_syt_parity(lam, P(mu)) == 1


def test_skew_parity_rejects_non_subdiagram():
    with pytest.raises(ValueError, match="not a subdiagram"):
        skew_syt_parity(P((4,)), P((1, 1)))


def test_skew_parity_matches_chain_enumeration():
    for n in range(11):
        for lam in partitions_of(n):
            for mu in subdiagrams(lam.parts):
                expected = chain_count(lam.parts, mu) % 2
                assert skew_syt_parity(lam, P(mu)) == expected, (lam, mu)


def test_unique_odd_constituent_examples():
    assert unique_odd_constituent(P((3, 1)), 0) == P((3,))
    assert unique_odd_constituent(P((5, 4, 2, 2, 1, 1)), 2) == P((3, 2, 2, 2, 1, 1))
    assert unique_odd_constituent(P((4,)), 1) == P((2,))


def test_unique_odd_constituent_rejects_bad_input():
    with pytest.raises(ValueError, match="odd-degree"):
        unique_odd_constituent(P((2, 1)), 0)
    with pytest.raises(ValueError, match="2\\^k"):
        unique_odd_constituent(P((3, 1)), 2)


def test_unique_odd_constituent_bound_is_exact_without_building_2_to_the_k():
    # A one-row partition is odd and keeps one row under every box removal.
    for size in range(0, 34):
        lam = P((size,) if size else ())
        for k in range(8):
            if (1 << k) >= size:
                with pytest.raises(ValueError, match=r"need 2\^k < \|lam\|"):
                    unique_odd_constituent(lam, k)
            else:
                assert unique_odd_constituent(lam, k) == P((size - (1 << k),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"need 2\^k < \|lam\|"):
            unique_odd_constituent(P((3,)), 200_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cross_validate_small():
    report = cross_validate(2)
    assert report.checks_run > 0 and report.ok
    report = cross_validate(6)
    assert report.ok
    report = cross_validate(15)
    assert report.ok
    # That sweep covers the 6-part calibration partition at k = 2.
    assert unique_odd_constituent(P((5, 4, 2, 2, 1, 1)), 2) == remove_odd_hook(
        P((5, 4, 2, 2, 1, 1)), 2
    )
    with pytest.raises(ValueError):
        cross_validate(1)


def test_cross_validate_parallel_matches_serial():
    serial = cross_validate(8)
    parallel = cross_validate(8, jobs=2)
    assert parallel.checks_run == serial.checks_run
    assert parallel.mismatches == serial.mismatches


def test_cross_validate_bounds_workers(monkeypatch):
    created = []
    monkeypatch.setattr("oddmaps.oracle.ProcessPoolExecutor", recording_executor(created))
    monkeypatch.setattr("oddmaps.oracle.os.cpu_count", lambda: 8)
    serial = cross_validate(12)
    assert cross_validate(12, jobs=100_000) == serial
    assert cross_validate(12, jobs=3) == serial
    assert cross_validate(5, jobs=100_000) == cross_validate(5)
    assert created == [8, 3, 5]
    monkeypatch.setattr("oddmaps.oracle.os.cpu_count", lambda: None)
    assert cross_validate(12, jobs=100_000) == serial
    assert created == [8, 3, 5]
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            cross_validate(5, jobs=jobs)
