import math
import pickle
import random
from collections import Counter

import pytest

from oddmaps import Partition, nu2_degree, odd_partitions, partitions_of
from oddmaps.partition import _bead_mask, _partition_from_mask, nu2
from oddmaps.reference import (
    Hook,
    _nu2_degree_parts,
    beta_set,
    conjugate,
    hook_lengths,
    hooks_of_length,
    is_hook_partition,
    partition_from_beta,
    remove_hook,
)

P = Partition


def test_constructor_validates():
    assert P(()).parts == ()
    assert P([3, 1, 1]).size == 5
    with pytest.raises(ValueError):
        P((2, 3))
    with pytest.raises(ValueError):
        P((2, 0))
    with pytest.raises(ValueError):
        P((1, -1))
    for parts in ((2.5, 1), [2.7, 1], "21"):
        with pytest.raises(TypeError):
            P(parts)
    with pytest.raises(TypeError):
        partition_from_beta((2.5, 0))


def test_ordering_and_rendering():
    assert P((3, 3)) > P((3, 2, 1))
    assert P((2, 2, 1, 1)) > P((2, 1, 1, 1, 1))
    assert str(P((5, 4, 2, 2, 1, 1))) == "[5,4,2,2,1,1]"
    assert str(P(())) == "[]"
    assert repr(P((2, 1))) == "Partition((2, 1))"


def test_conjugate():
    assert conjugate(P((3, 1))) == P((2, 1, 1))
    assert conjugate(P(())) == P(())
    for n in range(11):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_hook_lengths_examples():
    assert hook_lengths(P((2, 1))) == [[3, 1], [1]]
    assert hook_lengths(P((2, 2))) == [[3, 2], [2, 1]]
    assert hook_lengths(P((1,))) == [[1]]


def test_hook_length_multiset_conjugation_invariant():
    for n in range(1, 11):
        for lam in partitions_of(n):
            mine = Counter(h for row in hook_lengths(lam) for h in row)
            conj = Counter(h for row in hook_lengths(conjugate(lam)) for h in row)
            assert mine == conj


def test_hooks_of_length_examples():
    assert hook_lengths(P((3, 1))) == [[4, 2, 1], [1]]
    hooks = hooks_of_length(P((3, 1)), 2)
    assert len(hooks) == 1 and (hooks[0].row, hooks[0].col) == (1, 2)
    cells = [(h.row, h.col) for h in hooks_of_length(P((2, 2)), 2)]
    assert cells == [(1, 2), (2, 1)]
    assert hooks_of_length(P((1,)), 2) == []


def test_remove_hook_examples():
    h = hooks_of_length(P((2, 2)), 2)[1]
    assert (h.row, h.col) == (2, 1)
    assert remove_hook(P((2, 2)), h) == P((2,))
    h = hooks_of_length(P((3, 1)), 2)[0]
    assert remove_hook(P((3, 1)), h) == P((1, 1))
    h = hooks_of_length(P((1,)), 1)[0]
    assert remove_hook(P((1,)), h) == P(())


def test_remove_hook_rejects_non_hooks():
    with pytest.raises(ValueError, match="not a hook"):
        remove_hook(P((2, 2)), Hook(row=1, col=1, arm=2, leg=0))
    with pytest.raises(ValueError, match="not a hook"):
        remove_hook(P((2, 2)), Hook(row=3, col=1, arm=0, leg=0))


def test_remove_hook_size_law():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for length in range(1, n + 1):
                for h in hooks_of_length(lam, length):
                    mu = remove_hook(lam, h)
                    assert mu.size == lam.size - h.length
                    assert all(a >= b for a, b in zip(mu.parts, mu.parts[1:]))


def test_beta_set_roundtrip():
    lam = P((5, 4, 2, 2, 1, 1))
    assert beta_set(lam) == (10, 8, 5, 4, 2, 1)
    assert partition_from_beta(beta_set(lam, 9)) == lam
    with pytest.raises(ValueError):
        partition_from_beta((3, 3))


def test_trusted_build_matches_the_checked_constructor():
    for n in range(21):
        trusted, checked = [], []
        for lam in odd_partitions(n):
            for padding in range(3):
                # The decoder drops any padding: the low run of beads.
                x = _bead_mask(lam, padding)
                got, want = _partition_from_mask(x), Partition(lam.parts)
                assert type(got) is Partition and vars(got) == vars(want), x
                assert got == want and hash(got) == hash(want)
                assert repr(got) == repr(want) and str(got) == str(want)
                assert conjugate(got) == conjugate(want)
                assert repr(conjugate(got)) == repr(conjugate(want))
                # verify --jobs pickles partitions across processes.
                for p in (got, _partition_from_mask(x)):
                    back = pickle.loads(pickle.dumps(p))
                    assert back == want and vars(back) == vars(p)
            trusted.append(got)
            checked.append(want)
        assert [(a < b, a <= b, a > b) for a in trusted for b in trusted] == [
            (a < b, a <= b, a > b) for a in checked for b in checked
        ]
        assert sorted(trusted) == sorted(checked)


def test_a_partition_keeps_its_bead_mask():
    # Every partition of n <= 20, built three ways, fresh for each padding:
    # the first encoding is kept on the partition and every later call pads
    # it, keeping it changes no value, and a decoder stores no mask.
    for pad in range(4):
        for n in range(21):
            for listed in partitions_of(n):
                x = [sum(1 << b for b in beta_set(listed, len(listed) + q)) for q in range(4)]
                decoded = _partition_from_mask(x[pad])
                assert "_beads" not in vars(decoded)
                fresh = Partition(listed.parts)
                for lam in (Partition(listed.parts), listed, decoded):
                    assert _bead_mask(lam, pad) == x[pad] and _bead_mask(lam, pad) == x[pad]
                    assert [_bead_mask(lam, q) for q in range(4)] == x
                    assert lam == fresh and hash(lam) == hash(fresh)
                    assert repr(lam) == repr(fresh) and str(lam) == str(fresh)
                    back = pickle.loads(pickle.dumps(lam))
                    assert back == lam and vars(back) == vars(lam)
                assert "_beads" not in vars(fresh)
    assert Partition._beads is None


def test_nu2_degree_examples():
    assert nu2_degree(P((3, 1))) == 0
    assert nu2_degree(P((2, 1))) == 1
    for n in (1, 2, 5, 9, 16):
        assert nu2_degree(P((n,))) == 0
    with pytest.raises(ValueError):
        nu2_degree(P(()))


def test_tuple_degree_helper_matches_the_hook_length_formula():
    for n in range(1, 23):
        for lam in partitions_of(n):
            hooks = [h for row in hook_lengths(lam) for h in row]
            expected = n - bin(n).count("1") - sum(nu2(h) for h in hooks)
            assert _nu2_degree_parts(lam.parts) == expected, lam
            assert nu2_degree(lam) == expected, lam
    assert _nu2_degree_parts(()) == 0


def test_nu2():
    assert nu2(12) == 2
    assert nu2(8) == 3
    assert nu2(7) == 0
    with pytest.raises(ValueError):
        nu2(0)


def test_factorial_valuation_identity():
    for n in range(1, 21):
        direct = 0
        f = math.factorial(n)
        while f % 2 == 0:
            f //= 2
            direct += 1
        assert n - bin(n).count("1") == direct


def test_is_hook_partition():
    assert is_hook_partition(P((3, 1, 1)))
    assert not is_hook_partition(P((3, 2, 2)))
    assert is_hook_partition(P(()))
    assert is_hook_partition(P((4,)))


def test_partitions_of_enumeration():
    known = {0: 1, 1: 1, 5: 7, 10: 42, 15: 176, 20: 627}
    for n, count in known.items():
        assert len(list(partitions_of(n))) == count
    listing = list(partitions_of(4))
    assert listing == [P((4,)), P((3, 1)), P((2, 2)), P((2, 1, 1)), P((1, 1, 1, 1))]
    for n in range(13):
        ps = list(partitions_of(n))
        assert ps == sorted(ps, reverse=True)
        assert len(set(ps)) == len(ps)
        assert all(p.size == n for p in ps)
    with pytest.raises(ValueError):
        list(partitions_of(-1))
    # A generator: the checks run on the first step, inside pytest.raises.
    for bad in (2.5, 2.0):
        with pytest.raises(TypeError):
            list(partitions_of(bad))


def _partitions_brute(n: int, largest: int) -> list[tuple[int, ...]]:
    """Every partition of n with parts at most ``largest``, largest first
    part first: descending lexicographic order by construction."""
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in _partitions_brute(n - first, first)
    ]


def _partition_counts(n_max: int) -> list[int]:
    """p(0), ..., p(n_max) by Euler's pentagonal-number recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
    return p


def test_partitions_of_matches_a_recursive_listing_and_eulers_count():
    for n in range(31):
        assert [p.parts for p in partitions_of(n)] == _partitions_brute(n, n), n
    counts = _partition_counts(45)
    assert counts[:6] == [1, 1, 2, 3, 5, 7] and counts[45] == 89134
    for n in range(46):
        assert sum(1 for _ in partitions_of(n)) == counts[n], n
