import tracemalloc
from collections import defaultdict

import pytest

from helpers import slides_by_recount
from oddmaps import (
    Partition,
    dnk,
    is_odd,
    nu2_degree,
    odd_partitions,
    odd_partitions_by_filter,
    partitions_of,
)
from oddmaps.oddity import _is_odd_beta, _odd_slides, d_good
from oddmaps.partition import beta_set, is_hook_partition
from oddmaps.quotient import e_core, e_quotient, k_data
from oddmaps.reference import (
    all_two_disjoint,
    core_tower,
    hooks_of_length,
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


def test_is_odd_matches_core_tower():
    for n in range(21):
        for lam in partitions_of(n):
            assert is_odd(lam) == all(w <= 1 for w in core_tower(lam).weights), lam


def test_odd_slides_match_a_full_recount():
    # Odd and even bases alike, padded or not, sliding up and down.
    for n in range(19):
        for lam in partitions_of(n):
            for padding in range(4):
                beta = beta_set(lam, len(lam) + padding)
                odd = _is_odd_beta(beta)
                for k in range(6):
                    for step in (1 << k, -(1 << k)):
                        expected = (odd, slides_by_recount(beta, step))
                        assert _odd_slides(beta, step) == expected, (lam, padding, step)


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
    for n in range(29):
        assert odd_partitions(n) == odd_partitions_by_filter(n), n


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


def test_d_good_core_size():
    for n in range(1, 25):
        for lam in odd_partitions(n):
            for d in range(4):
                if d_good(lam, d):
                    assert e_core(lam, 1 << d).size == (1 << d) - 1


def test_d_good_matches_its_definition_at_every_depth():
    # Past 2^d > |lambda| + 1 the size condition cannot hold.
    for n in range(0, 13):
        for lam in odd_partitions(n):
            for d in range(7):
                size_ok = n % (2 << d) == (1 << d) - 1
                assert d_good(lam, d) == (size_ok and is_hook_partition(e_core(lam, 1 << d)))
    assert [d_good(P((3,)), d) for d in range(5)] == [False, False, True, False, False]


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
