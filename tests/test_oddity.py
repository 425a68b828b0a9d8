import gc
import random
import tracemalloc
from collections import defaultdict

import pytest

from helpers import odd_by_fiber_walk, random_partition, slides_by_recount
from oddmaps import (
    Partition,
    dnk,
    is_odd,
    nu2_degree,
    odd_partitions,
    odd_partitions_by_filter,
    partitions_of,
)
from oddmaps.oddity import _known_odd_slides, _level
from oddmaps.partition import _bead_mask
from oddmaps.quotient import k_data
from oddmaps.reference import (
    all_two_disjoint,
    core_and_quotient,
    core_tower,
    d_good,
    e_quotient,
    hooks_of_length,
    is_hook_partition,
    is_odd_via_row,
    remove_hook,
)

P = Partition


def test_is_odd_examples():
    assert is_odd(P((5, 4, 2, 2, 1, 1)))
    assert not is_odd(P((2, 1)))
    assert is_odd(P(()))


def test_is_odd_matches_degree_parity():
    for n in range(1, 21):
        for lam in partitions_of(n):
            assert is_odd(lam) == (nu2_degree(lam) == 0), lam
    # Far past the exhaustive range: 8 seeded odd partitions of each n,
    # walked up fibers, and 60 seeded nonempty partitions of up to 255,
    # most of them even.
    rng = random.Random(1705)
    sample = [odd_by_fiber_walk(rng, n) for n in (64, 100, 127, 128, 200, 255) for _ in range(8)]
    while len(sample) < 48 + 60:
        lam = random_partition(rng, 255)
        if lam.size:
            sample.append(lam)
    for lam in sample:
        assert is_odd(lam) == (nu2_degree(lam) == 0), lam


def test_is_odd_matches_core_tower():
    for n in range(21):
        for lam in partitions_of(n):
            assert is_odd(lam) == all(w <= 1 for w in core_tower(lam).weights), lam


def test_odd_slides_match_a_full_recount():
    # Odd bases, padded or not, sliding up and down. The scan peels no
    # slide by the target's top digit; the slides it returns, sorted, are
    # exactly those the degree formula calls odd.
    for n in range(19):
        for lam in odd_partitions(n):
            for padding in range(4):
                x = _bead_mask(lam, padding)
                for k in range(6):
                    for step in (1 << k, -(1 << k)):
                        got = sorted(_known_odd_slides(x, n, step))
                        assert got == slides_by_recount(x, step), (lam, padding, step)


def test_odd_row_weights_are_the_binary_digits_of_n():
    # An odd partition's tower row weights are the binary digits of n, one
    # row past n's top digit too.
    for n in range(31):
        rows = n.bit_length() + 1
        digits = [(n >> j) & 1 for j in range(rows)]
        for lam in odd_partitions(n):
            tower = core_tower(lam)
            assert [tower.weight(j) for j in range(rows)] == digits, lam


def test_known_odd_removals_match_the_full_count():
    for n in range(1, 23):
        for lam in odd_partitions(n):
            for padding in range(4):
                x = _bead_mask(lam, padding)
                for k in range(n.bit_length()):
                    step = -(1 << k)
                    expected = slides_by_recount(x, step)
                    assert sorted(_known_odd_slides(x, n, step)) == expected, (lam, padding, k)


def test_known_odd_additions_match_the_full_count():
    # The +2^t slides _level(n) takes from each odd mu of n - 2^t.
    for n in range(1, 33):
        step = 1 << (n.bit_length() - 1)
        for mu in odd_partitions(n - step):
            x = _bead_mask(mu, step)
            slides = _known_odd_slides(x, n - step, step)
            assert sorted(slides) == slides_by_recount(x, step), mu
            assert len(slides) == step, mu


def test_is_odd_via_row_examples():
    assert is_odd_via_row(P((5, 4, 2, 2, 1, 1)), 2)
    assert not is_odd_via_row(P((2, 1)), 1)
    for lam in (P((3, 1)), P((2, 1)), P(())):
        assert is_odd_via_row(lam, 0) == is_odd(lam)


def test_is_odd_via_row_consistency():
    for n in range(1, 21):
        for lam in partitions_of(n):
            k = 0
            while (1 << k) <= n:
                assert is_odd_via_row(lam, k) == is_odd(lam), (lam, k)
                k += 1


def test_odd_partitions_examples():
    assert odd_partitions(4) == (P((4,)), P((3, 1)), P((2, 1, 1)), P((1, 1, 1, 1)))
    assert odd_partitions(1) == (P((1,)),)
    assert len(odd_partitions(6)) == 8
    assert odd_partitions(0) == (P(()),)


def test_odd_partitions_agree_with_filter():
    # The keys of a level hold exactly n beads and strictly descend, and
    # each is the n-bead mask of the odd partition it decodes to: the level
    # tables find a slide's key below by shifting its 2^k padding beads out.
    for n in range(29):
        assert odd_partitions(n) == odd_partitions_by_filter(n), n
        keys = list(_level(n))
        assert all(x.bit_count() == n for x in keys), n
        assert all(a > b for a, b in zip(keys, keys[1:])), n
        assert [_bead_mask(lam, n - len(lam)) for lam in odd_partitions(n)] == keys, n


def test_enumeration_reports_a_mu_without_its_additions(monkeypatch):
    # Dropping one of the four odd 4-hook additions to (2), held with 2 beads
    # and padded by 4 more, must stop the enumeration of 6 with a message
    # that names (2).
    mu = _bead_mask(P((2,)), 1 + 4)

    def one_short(x, n, step):
        slides = _known_odd_slides(x, n, step)
        return slides[1:] if x == mu else slides

    _level.cache_clear()
    monkeypatch.setattr("oddmaps.oddity._known_odd_slides", one_short)
    message = r"^\[2\] has 3 odd 2\^2-hook additions, expected 4$"
    try:
        with pytest.raises(RuntimeError, match=message):
            odd_partitions(6)
    finally:
        _level.cache_clear()


def test_a_decoded_level_is_held_by_nobody():
    # The masks of level 48 stay in _level; the 512 partitions decoded from
    # them are built afresh on each call and freed with the caller's tuple.
    _level(48)
    assert not hasattr(odd_partitions, "cache_info")
    gc.collect()
    tracemalloc.start()
    try:
        first, second = odd_partitions(48), odd_partitions(48)
        assert first == second and first is not second
        del first, second
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 10_000, held


def test_odd_count_law():
    for n in [*range(1, 41), 48, 49, 63]:
        expected = 1
        for j in range(n.bit_length()):
            if n & (1 << j):
                expected <<= j
        assert len(odd_partitions(n)) == expected, n


def test_odd_partitions_past_acceptance_range():
    for n in (48, 49, 63):
        members = odd_partitions(n)
        assert len(set(members)) == len(members), n
        assert all(lam.size == n for lam in members), n
        if n < 63:
            assert all(nu2_degree(lam) == 0 for lam in members), n


def test_row_sum_law():
    for n in range(1, 29):
        for lam in odd_partitions(n):
            k = 0
            while (1 << k) <= n:
                sizes = [p.size for p in e_quotient(lam, 1 << k)]
                assert sum(sizes) == n >> k
                assert all_two_disjoint(sizes)
                k += 1


def test_unique_top_hook():
    for n in range(1, 29):
        top = 1 << (n.bit_length() - 1)
        for lam in odd_partitions(n):
            hooks = hooks_of_length(lam, top)
            assert len(hooks) == 1
            assert is_odd(remove_hook(lam, hooks[0]))
    # Odd or even, no partition has two 2^t-hooks: one XOR of the peel
    # moves exactly one bead.
    for n in range(1, 21):
        top = 1 << (n.bit_length() - 1)
        for lam in partitions_of(n):
            assert len(hooks_of_length(lam, top)) <= 1, lam


def test_construction_count():
    # Odd partitions sharing quotient row k come in blocks of prod(2^m) over
    # the binary digits 2^m of n with m < k; every block key is admissible.
    for n in range(1, 25):
        for k in (1, 2, 3):
            if (1 << k) > n:
                continue
            expected = 1
            for m in range(k):
                if n & (1 << m):
                    expected <<= m
            blocks = defaultdict(int)
            for lam in odd_partitions(n):
                blocks[k_data(lam, k).quotient_row] += 1
            assert all(count == expected for count in blocks.values()), (n, k)
            for entries in blocks:
                assert all(is_odd(p) for p in entries)
                assert all_two_disjoint(p.size for p in entries)
                assert sum(p.size for p in entries) == n >> k


def test_d_good_examples():
    assert not d_good(P((3, 2, 2)), 3)
    assert d_good(P((1,)), 1)
    assert d_good(P((2,)), 0)
    with pytest.raises(ValueError, match="odd partitions"):
        d_good(P((2, 1)), 1)
    with pytest.raises(ValueError, match="depth must be non-negative"):
        d_good(P((1,)), -1)


def test_d_good_core_size():
    for n in range(1, 25):
        for lam in odd_partitions(n):
            for d in range(4):
                if d_good(lam, d):
                    assert core_and_quotient(lam, 1 << d).core.size == (1 << d) - 1


def test_d_good_matches_its_definition_at_every_depth():
    # Past 2^d > |lambda| + 1 the size condition cannot hold.
    for n in range(0, 13):
        for lam in odd_partitions(n):
            for d in range(7):
                size_ok = n % (2 << d) == (1 << d) - 1
                core = core_and_quotient(lam, 1 << d).core
                assert d_good(lam, d) == (size_ok and is_hook_partition(core))
    assert [d_good(P((3,)), d) for d in range(5)] == [False, False, True, False, False]


def test_d_good_names_its_input_when_a_core_invariant_fails(monkeypatch):
    # At d <= 2 the size condition forces a hook core: a non-hook core,
    # here the mask of (2, 2), breaks that.
    monkeypatch.setattr("oddmaps.oddity._pushed_up", lambda runners, e: 0b1100)
    with pytest.raises(RuntimeError, match=r"core condition failed for d=1 on \[1\]"):
        d_good(P((1,)), 1)
    # A hook core must have size 2^d - 1: the mask of (1) has size 1, not 7.
    monkeypatch.setattr("oddmaps.oddity._pushed_up", lambda runners, e: 0b10)
    with pytest.raises(RuntimeError, match=r"good partition \[7\] has 2\^3-core of wrong size"):
        d_good(P((7,)), 3)


def test_d_good_at_a_huge_depth_returns_false_without_building_2_to_the_d():
    tracemalloc.start()
    try:
        good = d_good(P((1,)), 200_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert good is False
    assert peak < 1 << 20, peak


def test_dnk_examples():
    assert dnk(6, 2).d == 0
    assert dnk(10, 2).d == 1
    assert dnk(19, 2).d == 2
    with pytest.raises(ValueError):
        dnk(3, 2)


def test_dnk_invariants():
    for n in range(1, 65):
        for k in range(7):
            if (1 << k) > n:
                continue
            split = dnk(n, k)
            assert n >> k == (1 << split.d) + split.m
            assert split.m % (1 << (split.d + 1)) == 0
