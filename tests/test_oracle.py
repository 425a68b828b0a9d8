import pickle
import tracemalloc
from functools import lru_cache

import pytest

from helpers import recording_executor
from oddmaps import Partition, cross_validate, odd_partitions, partitions_of, remove_odd_hook
from oddmaps.cli import main
from oddmaps.oracle import (
    Mismatch,
    _check_level,
    _frontiers,
    _mask_of,
    _nu2_degree_mask,
    _odd_survivor,
    _parts_of,
    _toggle_step,
    _width_tables,
    skew_syt_parity,
    unique_odd_constituent,
)
from oddmaps.partition import nu2
from oddmaps.reference import beta_set, nu2_degree

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


def test_bead_masks_round_trip():
    # Bit b of the mask is set for each beta number b, at every padding.
    for n in range(21):
        for lam in partitions_of(n):
            for padding in range(4):
                m = len(lam) + padding
                x = _mask_of(lam.parts, m)
                assert x == sum(1 << b for b in beta_set(lam, m)), (lam, padding)
                assert x.bit_count() == m
                assert _parts_of(x) == lam.parts, (lam, padding)


def test_mask_degree_valuation_matches_nu2_degree():
    for n in range(1, 26):
        for lam in partitions_of(n):
            assert _nu2_degree_mask(_mask_of(lam.parts, len(lam)), n) == nu2_degree(lam), lam
    for lam in odd_partitions(40):
        for padding in range(3):
            x = _mask_of(lam.parts, len(lam) + padding)
            assert _nu2_degree_mask(x, 40) == nu2_degree(lam) == 0, (lam, padding)
    assert _nu2_degree_mask(0, 0) == _nu2_degree_mask(0b111, 0) == 0


def test_width_selectors_match_the_per_position_form():
    # S_j is built by arithmetic; the per-position sum is its definition.
    for width in range(300):
        selectors = tuple(
            sum(1 << b for b in range(width) if b >> j & 1)
            for j in range(max(width - 1, 0).bit_length())
        )
        gaps = tuple((d, nu2(d)) for d in range(2, width, 2))
        assert _width_tables(width) == (gaps, selectors), width


def test_skew_parity_examples():
    assert skew_syt_parity(P((3, 1)), P((3,))) == 1
    assert skew_syt_parity(P((3, 1)), P((2,))) == 0
    assert skew_syt_parity(P((2, 1)), P((1,))) == 0
    # mu with fewer rows than lam: its mask is padded to lam's bead count.
    assert skew_syt_parity(P((1,)), P(())) == 1
    assert skew_syt_parity(P((2, 1, 1)), P((1,))) == 1


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
    with pytest.raises(ValueError, match="not a subdiagram"):
        skew_syt_parity(P((2, 1)), P((3,)))


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
    with pytest.raises(ValueError, match="k must be non-negative"):
        unique_odd_constituent(P((3, 1)), -1)


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


def test_one_walk_frontiers_match_skew_parities():
    # The depth-2^k frontier of one walk from lam, for every k at once, is
    # the set of mu of size n - 2^k with odd skew-tableau parity.
    for n in range(2, 15):
        k_max = (n - 1).bit_length() - 1
        for lam in partitions_of(n):
            if nu2_degree(lam) != 0:
                continue
            frontiers = list(_frontiers(_mask_of(lam.parts, len(lam)), k_max))
            assert len(frontiers) == k_max + 1
            for k, masks in enumerate(frontiers):
                frontier = {_parts_of(x) for x in masks}
                assert len(frontier) == len(masks)
                brute = {
                    mu.parts
                    for mu in partitions_of(n - (1 << k))
                    if len(mu) <= len(lam)
                    and all(a <= b for a, b in zip(mu.parts, lam.parts))
                    and skew_syt_parity(lam, mu) == 1
                }
                assert frontier == brute, (lam, k)
                assert unique_odd_constituent(lam, k) == remove_odd_hook(lam, k), (lam, k)
    assert list(_frontiers(_mask_of((1,), 1), -1)) == []


def test_two_box_steps_are_one_domino_step():
    # A two-box skew shape has one standard filling if it is a domino and
    # two otherwise, so mod 2 two one-box steps are one domino step, at any
    # padding.
    for n in range(23):
        for lam in partitions_of(n):
            for padding in (0, 2):
                start = {_mask_of(lam.parts, len(lam) + padding)}
                boxes = _toggle_step(_toggle_step(start, 1), 1)
                assert boxes == _toggle_step(start, 2), (lam, padding)


def one_box_walk(parts: tuple[int, ...], depth: int) -> list[set[tuple[int, ...]]]:
    # The part tuples reached from parts by an odd number of one-box
    # removal paths at each depth up to depth, walked on parts rather than
    # on bead masks.
    frontiers = [{parts}]
    for _ in range(depth):
        nxt = set()
        for lam in frontiers[-1]:
            for i in range(len(lam)):
                if i + 1 < len(lam) and lam[i] == lam[i + 1]:
                    continue
                mu = lam[:i] + (lam[i] - 1,) + lam[i + 1 :]
                nxt ^= {mu if mu[-1] else mu[:-1]}
        frontiers.append(nxt)
    return frontiers


def test_domino_frontiers_match_a_one_box_walk_at_47():
    # Depth 2^k by 2^(k - 1) domino steps against 2^k one-box steps, at
    # every depth up to 32, on every 32nd odd partition of 47.
    sample = odd_partitions(47)[::32]
    assert len(sample) == 64
    for lam in sample:
        boxes = one_box_walk(lam.parts, 32)
        for k, masks in enumerate(_frontiers(_mask_of(lam.parts, len(lam)), 5)):
            frontier = {_parts_of(x) for x in masks}
            assert len(frontier) == len(masks)
            assert frontier == boxes[1 << k], (lam, k)


def test_a_level_tests_each_shapes_degree_once(monkeypatch):
    # One degree test per partition of n, and one per distinct frontier
    # shape, whatever its padding, over every walk of the level.
    calls = []

    def counted(x, n):
        calls.append(x)
        return _nu2_degree_mask(x, n)

    monkeypatch.setattr("oddmaps.oracle._nu2_degree_mask", counted)
    for n in range(12, 21):
        k_max = (n - 1).bit_length() - 1
        shapes = {
            _parts_of(y)
            for lam in odd_partitions(n)
            for frontier in _frontiers(_mask_of(lam.parts, len(lam)), k_max)
            for y in frontier
        }
        expected = sum(1 for _ in partitions_of(n)) + len(shapes)
        for _ in range(2):
            calls.clear()
            _, mismatches = _check_level(n)
            assert not mismatches
            assert len(calls) == expected, n


def test_cross_validate_small():
    report = cross_validate(2)
    assert report.checks_run > 0 and not report.mismatches
    report = cross_validate(6)
    assert not report.mismatches
    report = cross_validate(15)
    assert not report.mismatches
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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_executor(created))
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


def test_a_raising_map_is_that_checks_mismatch(capsys, monkeypatch):
    clean = cross_validate(5)

    def broken(lam, k):
        if lam == P((3,)) and k == 1:
            raise RuntimeError("injected failure")
        return remove_odd_hook(lam, k)

    monkeypatch.setattr("oddmaps.maps.remove_odd_hook", broken)
    report = cross_validate(5)
    assert report.checks_run == clean.checks_run
    assert report.mismatches == (
        Mismatch(lam=P((3,)), k=1, expected=P((1,)), got="error: injected failure"),
    )
    assert pickle.loads(pickle.dumps(report)) == report
    assert main(["verify", "--max-n", "5"]) == 1
    assert "[3] k=1: expected [1], got error: injected failure" in capsys.readouterr().out


def test_only_a_mismatch_decodes_its_survivor(monkeypatch):
    decoded = []

    def parts_of(x):
        decoded.append(x)
        return _parts_of(x)

    monkeypatch.setattr("oddmaps.oracle._parts_of", parts_of)
    clean = cross_validate(12)
    assert not clean.mismatches and decoded == []

    # Answers with more parts than lam, of another type, or with fewer parts
    # than the survivor are each that check's mismatch, in report order.
    wrong = {((3,), 0): P((1, 1)), ((3,), 1): (1,), ((1, 1, 1), 0): P((2,))}
    monkeypatch.setattr(
        "oddmaps.maps.remove_odd_hook",
        lambda lam, k: wrong.get((lam.parts, k)) or remove_odd_hook(lam, k),
    )
    report = cross_validate(12)
    assert report.checks_run == clean.checks_run
    assert report.mismatches == (
        Mismatch(lam=P((3,)), k=0, expected=P((2,)), got=P((1, 1))),
        Mismatch(lam=P((3,)), k=1, expected=P((1,)), got=(1,)),
        Mismatch(lam=P((1, 1, 1)), k=0, expected=P((1, 1)), got=P((2,))),
    )
    assert len(decoded) == 3


def _assert_mismatches_in_enumeration_order(capsys, monkeypatch):
    # At n = 3 the partitions run [3], [2,1], [1,1,1]: [3]'s map mismatch
    # is reported before [2,1]'s oddness mismatch.
    from oddmaps import oddity

    is_odd = oddity.is_odd
    monkeypatch.setattr("oddmaps.oddity.is_odd", lambda lam: lam == P((2, 1)) or is_odd(lam))
    monkeypatch.setattr(
        "oddmaps.maps.remove_odd_hook",
        lambda lam, k: P((1, 1)) if (lam, k) == (P((3,)), 0) else remove_odd_hook(lam, k),
    )
    report = cross_validate(3)
    assert report.mismatches == (
        Mismatch(lam=P((3,)), k=0, expected=P((2,)), got=P((1, 1))),
        Mismatch(lam=P((2, 1)), k=None, expected=False, got=True),
    )
    assert main(["verify", "--max-n", "3"]) == 1
    assert capsys.readouterr().out.endswith(
        "mismatches: 2\n"
        "  [3] k=0: expected [2], got [1,1]\n"
        "  [2,1] k=None: expected False, got True\n"
    )


def test_mismatches_come_in_enumeration_order(capsys, monkeypatch):
    _assert_mismatches_in_enumeration_order(capsys, monkeypatch)


@pytest.mark.parametrize("batch", [1, 2])
def test_batch_boundaries_keep_enumeration_order(capsys, monkeypatch, batch):
    # In batches of 1 and of 2, [3] and [2,1] fall in different batches
    # and in one batch, and report the same mismatches in the same order.
    monkeypatch.setattr("oddmaps.oracle._BATCH", batch)
    _assert_mismatches_in_enumeration_order(capsys, monkeypatch)


def test_batch_sizes_agree(monkeypatch):
    # Every level to 12, clean and with oddness and map faults injected on
    # many partitions, gives the same checks and the same mismatches in the
    # same order whatever the batch size, a last partial batch included.
    from oddmaps import oddity, oracle

    default = oracle._BATCH
    is_odd = oddity.is_odd

    def sweep():
        results = {}
        for batch in (1, 5, default):
            monkeypatch.setattr("oddmaps.oracle._BATCH", batch)
            results[batch] = [_check_level(n) for n in range(1, 13)]
        assert results[1] == results[5] == results[default]
        return results[default]

    assert all(not mismatches for _, mismatches in sweep())
    monkeypatch.setattr("oddmaps.oddity.is_odd", lambda lam: (len(lam) == 2) != is_odd(lam))
    monkeypatch.setattr(
        "oddmaps.maps.remove_odd_hook",
        lambda lam, k: lam if k == 0 and len(lam) % 3 == 0 else remove_odd_hook(lam, k),
    )
    faulty = sweep()
    assert {m.k is None for _, mismatches in faulty for m in mismatches} == {True, False}


def test_a_level_check_never_reads_far_ahead(monkeypatch):
    # When the map is called on the i-th partition drawn from the level, at
    # most i + _BATCH partitions have been drawn: no list as long as the
    # level is built.
    drawn = []
    calls = []

    def counting(n):
        for lam in partitions_of(n):
            drawn.append(lam)
            yield lam

    def recorder(lam, k):
        calls.append((drawn.index(lam) + 1, len(drawn)))
        return remove_odd_hook(lam, k)

    monkeypatch.setattr("oddmaps.oracle.partitions_of", counting)
    monkeypatch.setattr("oddmaps.maps.remove_odd_hook", recorder)
    monkeypatch.setattr("oddmaps.oracle._BATCH", 4)
    checks, mismatches = _check_level(12)
    assert not mismatches and len(drawn) == 77
    assert len(calls) == checks - 77
    assert all(read <= i + 4 for i, read in calls), calls


def test_odd_survivor_names_its_input_when_no_survivor_is_left():
    with pytest.raises(RuntimeError) as info:
        _odd_survivor(P((3,)), 0, set(), {})
    assert str(info.value) == "[3] at k=0: 0 odd constituents with odd parity"


def test_an_oracle_failure_is_that_checks_mismatch(monkeypatch):
    def fails(lam, k, frontier, odd):
        raise RuntimeError(f"{lam} at k={k}: 0 odd constituents with odd parity")

    monkeypatch.setattr("oddmaps.oracle._odd_survivor", fails)
    checks, mismatches = _check_level(2)
    assert checks == 4
    assert [(m.lam, m.k, m.got) for m in mismatches] == [(P((2,)), 0, P((1,))), (P((1, 1)), 0, P((1,)))]
    for m in mismatches:
        assert m.expected == f"oracle failure: {m.lam} at k=0: 0 odd constituents with odd parity"
