import pickle
import random
import sys
import tracemalloc

import pytest

from helpers import commute_instances, odd_by_fiber_walk
from oddmaps import (
    CommuteInstance,
    Partition,
    commute_verdict,
    counterexample_witness,
    fiber,
    fiber_size_formula,
    image_misses,
    is_odd,
    is_surjective,
    nu2_degree,
    odd_hook_removals,
    odd_partitions,
    predicted_commute,
    remove_odd_hook,
    remove_odd_hook_via_tower,
)
from oddmaps import maps, oddity
from oddmaps.maps import CommuteVerdict, _composition_disagrees, _images
from oddmaps.oddity import _level, dnk
from oddmaps.oracle import _check_level
from oddmaps.partition import _bead_mask, _mask_size, _partition_from_mask
from oddmaps.quotient import _runners
from oddmaps.reference import e_core, e_quotient, from_core_quotient, is_hook_partition

P = Partition


def compositions_disagree(lam: Partition, inst: CommuteInstance) -> bool:
    one = remove_odd_hook(remove_odd_hook(lam, inst.l), inst.k)
    two = remove_odd_hook(remove_odd_hook(lam, inst.k), inst.l)
    return one != two


def test_remove_odd_hook_examples():
    assert remove_odd_hook(P((5, 4, 2, 2, 1, 1)), 2) == P((3, 2, 2, 2, 1, 1))
    assert remove_odd_hook(P((3, 1)), 0) == P((3,))
    assert remove_odd_hook(P((3, 1)), 1) == P((1, 1))


def test_remove_odd_hook_boundary_reaches_empty():
    assert remove_odd_hook(P((3, 1)), 2) == P(())
    assert remove_odd_hook(P((1,)), 0) == P(())


def test_remove_odd_hook_rejects_bad_input():
    with pytest.raises(ValueError, match="odd partitions"):
        remove_odd_hook(P((2, 1)), 0)
    with pytest.raises(ValueError, match="exceeds"):
        remove_odd_hook(P((3, 1)), 3)
    with pytest.raises(ValueError, match="k must be non-negative"):
        remove_odd_hook(P((3,)), -1)


def test_both_routes_agree():
    for n in range(2, 17):
        for lam in odd_partitions(n):
            k = 1
            while (1 << k) < n:
                assert remove_odd_hook_via_tower(lam, k) == remove_odd_hook(lam, k)
                k += 1


def test_remove_odd_hook_matches_references_at_large_n():
    rng = random.Random(1705)
    sampled = [lam for n in (40, 41, 48, 49) for lam in rng.sample(odd_partitions(n), 16)]
    # Up to tower rows 6 and 7, where odd_partitions(n) is too large to sample.
    walked = [odd_by_fiber_walk(rng, n) for n in (64, 100, 127, 128, 200, 255) for _ in range(8)]
    for lam in sampled + walked:
        assert is_odd(lam) and nu2_degree(lam) == 0, lam
        for k in range(lam.size.bit_length()):
            got = remove_odd_hook(lam, k)
            assert odd_hook_removals(lam, k) == (got,), (lam, k)
            if k >= 1:
                assert remove_odd_hook_via_tower(lam, k) == got, (lam, k)


def test_exactly_one_odd_removal():
    for n in range(1, 17):
        for lam in odd_partitions(n):
            k = 0
            while (1 << k) < n:
                assert len(odd_hook_removals(lam, k)) == 1
                k += 1


def test_each_partition_is_peeled_once():
    # The oracle's pass over n = 17 peels each of the 297 partitions once
    # for its oddness check and 126 slide candidates in the map's scans.
    # The map reads the verdict kept on each of the 16 odd partitions
    # instead of peeling it again at each of its five k (80 more peels).
    # Counted by code object, so a peel is seen under any imported name.
    code = oddity._peels.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(count)
    try:
        checks, mismatches = _check_level(17)
    finally:
        sys.setprofile(None)
    assert (checks, mismatches) == (377, [])
    assert calls == 423
    lam = P((5, 4, 2, 2, 1, 1))
    assert lam._odd is None
    assert is_odd(lam) and lam._odd is True
    assert not is_odd(P((2, 1)))


def test_level_table_matches_the_map_at_a_large_level():
    # The table finds the odd slide by lookup in the level below;
    # the map peels its partition and every slide itself.
    level = odd_partitions(40)
    for k in range((40).bit_length()):
        images = _images(40, k)
        below = odd_partitions(40 - (1 << k))
        assert len(images) == len(level)
        assert [below[i] for i in images] == [remove_odd_hook(lam, k) for lam in level], k


def test_level_table_reports_a_partition_without_image(monkeypatch):
    # A level below that lacks the (n - 2)-bead mask of (8) leaves (10), the
    # first odd partition of 10 that f_1 sends there, no odd removal.
    n, k = 10, 1
    lost = remove_odd_hook(P((10,)), k)
    below = dict(_level(n - 2))
    del below[_bead_mask(lost, n - 2 - len(lost))]
    monkeypatch.setattr("oddmaps.maps._level", lambda m: below if m == n - 2 else _level(m))
    _images.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"^\[10\] has 0 odd 2\^1-hook removals"):
            _images(n, k)
    finally:
        _images.cache_clear()


def test_level_tables_hold_positions_not_partitions():
    # A table entry is a position in the level below: about a pointer, where
    # a decoded image Partition costs hundreds of bytes. Every level the
    # tables read is built before tracing, so only the tables are measured,
    # in any test order.
    n = 40
    for k in range(n.bit_length()):
        _level(n - (1 << k))
    entries = len(_level(n)) * n.bit_length()
    _images.cache_clear()
    tracemalloc.start()
    try:
        for k in range(n.bit_length()):
            assert all(type(i) is int for i in _images(n, k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * entries, peak / entries


def test_fiber_examples():
    fib = fiber(P((2,)), 6, 2)
    assert fib.members == (P((6,)), P((3, 3)), P((2, 2, 1, 1)), P((2, 1, 1, 1, 1)))
    assert fib.size == 4
    fib = fiber(P((6,)), 10, 2)
    assert fib.members == (P((10,)), P((6, 3, 1)))
    assert fib.size == 2
    assert fiber(P((5, 4, 2, 2, 1, 1)), 19, 2).size == 0
    with pytest.raises(ValueError, match="partition of"):
        fiber(P((2,)), 7, 2)
    with pytest.raises(ValueError, match="odd"):
        fiber(P((2, 1)), 7, 2)


def test_fiber_members_in_enumeration_order():
    # Local fibers against the map inverted over the whole level.
    for n in range(2, 31):
        for k in range(n.bit_length()):
            expected = {}
            for lam in odd_partitions(n):
                expected.setdefault(remove_odd_hook(lam, k), []).append(lam)
            for mu in odd_partitions(n - (1 << k)):
                assert fiber(mu, n, k).members == tuple(expected.get(mu, ())), (mu, n, k)


def test_fibers_at_63_build_no_level_table():
    _images.cache_clear()
    rng = random.Random(63)
    samples = [(k, rng.sample(odd_partitions(63 - (1 << k)), 8)) for k in range(6)]
    levels = _level.cache_info().currsize
    for k, sample in samples:
        for mu in sample:
            members = fiber(mu, 63, k).members
            assert len(members) == fiber_size_formula(mu, 63, k), (mu, k)
            assert all(remove_odd_hook(lam, k) == mu for lam in members), (mu, k)
            assert all(a > b for a, b in zip(members, members[1:])), (mu, k)
    assert _images.cache_info().currsize == 0
    assert _level.cache_info().currsize == levels


def test_fiber_size_formula_examples():
    assert fiber_size_formula(P((2,)), 6, 2) == 4
    assert fiber_size_formula(P((6,)), 10, 2) == 2
    for mu in odd_partitions(6):
        assert fiber_size_formula(mu, 10, 2) == 2
    assert fiber_size_formula(P((5, 4, 2, 2, 1, 1)), 19, 2) == 0


def test_fibers_partition_the_domain():
    for n in range(2, 17):
        k = 0
        while (1 << k) < n:
            total = 0
            seen = set()
            for mu in odd_partitions(n - (1 << k)):
                fib = fiber(mu, n, k)
                assert fib.size == fiber_size_formula(mu, n, k)
                assert fib.size in (0, 2, 1 << k)
                for member in fib.members:
                    assert member not in seen
                    seen.add(member)
                total += fib.size
            assert total == len(odd_partitions(n))
            k += 1


def test_image_misses_examples():
    assert P((5, 4, 2, 2, 1, 1)) in image_misses(19, 2)
    assert image_misses(6, 2) == ()
    assert P((3, 2, 2)) in image_misses(8, 0)
    misses = image_misses(19, 2)
    assert list(misses) == sorted(misses, reverse=True)


def test_image_misses_match_the_formula_past_the_gate():
    # The acceptance gate compares fibers with the formula up to n = 28;
    # 40 is the CLI's default cap.
    for n in range(29, 41):
        for k in range((n - 1).bit_length()):
            predicted = tuple(
                mu for mu in odd_partitions(n - (1 << k)) if fiber_size_formula(mu, n, k) == 0
            )
            assert image_misses(n, k) == predicted, (n, k)


def test_is_surjective_examples():
    assert not is_surjective(8, 0)
    assert is_surjective(12, 0)
    assert not is_surjective(19, 2)
    for n in range(2, 21):
        k = 0
        while (1 << k) < n:
            is_surjective(n, k, verify=True)
            k += 1
    with pytest.raises(ValueError):
        is_surjective(4, 2)


def test_surjectivity_check_decodes_no_partition(monkeypatch):
    # With verify the table's distinct positions are counted against the
    # level below; the image misses, (8, 0)'s among them, are not decoded.
    pairs = [(n, k) for n in range(2, 21) for k in range((n - 1).bit_length())]
    criteria = [is_surjective(n, k) for n, k in pairs]
    assert not all(criteria)

    def refuse(x):
        raise AssertionError("decoded a partition")

    monkeypatch.setattr("oddmaps.maps._partition_from_mask", refuse)
    assert [is_surjective(n, k, verify=True) for n, k in pairs] == criteria


def test_surjectivity_check_reports_a_table_that_refutes_the_criterion(monkeypatch):
    # (12, 0) is surjective and (8, 0) is not; a table that misses one
    # position of the first, or reaches every position of the second,
    # refutes the criterion.
    tables = {
        (12, 0): tuple(i for i in _images(12, 0) if i != 0),
        (8, 0): tuple(range(len(_level(7)))),
    }
    monkeypatch.setattr("oddmaps.maps._images", lambda n, k: tables[n, k])
    with pytest.raises(
        RuntimeError,
        match=r"surjectivity criterion True but the level table gives surjective False at \(n=12, k=0\)",
    ):
        is_surjective(12, 0, verify=True)
    with pytest.raises(
        RuntimeError,
        match=r"surjectivity criterion False but the level table gives surjective True at \(n=8, k=0\)",
    ):
        is_surjective(8, 0, verify=True)
    assert is_surjective(12, 0) and not is_surjective(8, 0)


def test_commute_instance_fields():
    inst = CommuteInstance(13, 0, 2)
    assert inst.t == 3 and inst.m == 5
    with pytest.raises(ValueError):
        CommuteInstance(4, 1, 1)
    with pytest.raises(ValueError):
        CommuteInstance(4, 0, 2)
    with pytest.raises(ValueError):
        CommuteVerdict(inst, commutes=True, witness=P((5, 5, 1, 1, 1)))
    with pytest.raises(AttributeError):
        inst.n = 14
    verdict = CommuteVerdict(inst, commutes=False, witness=P((5, 5, 1, 1, 1)))
    for record in (inst, verdict):
        assert pickle.loads(pickle.dumps(record)) == record


def test_predicted_commute_examples():
    assert predicted_commute(CommuteInstance(6, 0, 1))
    assert not predicted_commute(CommuteInstance(12, 1, 2))
    assert predicted_commute(CommuteInstance(10, 0, 3))


def test_commute_verdict_examples():
    assert commute_verdict(CommuteInstance(6, 0, 1)).commutes
    verdict = commute_verdict(CommuteInstance(12, 1, 2))
    assert not verdict.commutes
    assert compositions_disagree(verdict.witness, verdict.instance)
    assert compositions_disagree(P((6, 4, 2)), CommuteInstance(12, 1, 2))
    verdict = commute_verdict(CommuteInstance(13, 1, 2))
    assert not verdict.commutes
    assert compositions_disagree(P((6, 4, 3)), CommuteInstance(13, 1, 2))


def test_commute_verdict_witness_is_lex_greatest():
    inst = CommuteInstance(12, 1, 2)
    witnesses = [lam for lam in odd_partitions(12) if compositions_disagree(lam, inst)]
    assert commute_verdict(inst).witness == max(witnesses)


def test_commute_verdict_matches_the_four_call_composition():
    for inst in commute_instances(24):
        witnesses = [lam for lam in odd_partitions(inst.n) if compositions_disagree(lam, inst)]
        verdict = commute_verdict(inst)
        assert verdict.commutes == (not witnesses), inst
        assert verdict.witness == (witnesses[0] if witnesses else None), inst


def test_counterexample_witness_examples():
    assert counterexample_witness(CommuteInstance(13, 0, 2)) == P((5, 5, 1, 1, 1))
    assert counterexample_witness(CommuteInstance(12, 1, 2)) == P((6, 4, 2))
    lifted = counterexample_witness(CommuteInstance(26, 1, 3))
    assert lifted == from_core_quotient(P(()), (P((5, 5, 1, 1, 1)), P(())), 2)
    assert compositions_disagree(lifted, CommuteInstance(26, 1, 3))
    with pytest.raises(ValueError, match="commuting instance"):
        counterexample_witness(CommuteInstance(6, 0, 1))


def test_each_witness_is_verified_once(monkeypatch):
    # A witness at k >= 1 is lifted from the one at (floor(n/2); k-1, l-1);
    # only the returned partition is an answer, so only it is checked.
    checked = []

    def counting(lam, inst):
        checked.append(inst)
        return _composition_disagrees(lam, inst)

    monkeypatch.setattr(maps, "_composition_disagrees", counting)
    instances = [inst for inst in commute_instances(63) if not predicted_commute(inst)]
    for inst in instances:
        counterexample_witness(inst)
    assert len(instances) == 401
    assert checked == instances


def test_witness_lift_is_the_partition_with_that_2_quotient_and_2_core():
    # The lift written out: 2-quotient (child witness, empty) and the 2-core
    # that the parity of n forces, rebuilt by from_core_quotient. The two
    # pins at (12; 1, 2) and (13; 1, 2) stand in for a lift from (6; 0, 1).
    lifts = 0
    for inst in commute_instances(256):
        n, k, l = inst
        if k == 0 or predicted_commute(inst) or (n // 2, k - 1, l - 1) == (6, 0, 1):
            continue
        child = counterexample_witness(CommuteInstance(n // 2, k - 1, l - 1))
        core = P(()) if n % 2 == 0 else P((1,))
        assert counterexample_witness(inst) == from_core_quotient(core, (child, P(())), 2), inst
        lifts += 1
    assert lifts > 0


def test_hook_case_formula():
    # On a power of two every odd partition is a hook (n - b, 1^b) and the
    # removal acts on the arm or the leg according to whether 2^k sits in
    # the binary expansion of b.
    for t in range(1, 6):
        n = 1 << t
        for b in range(n):
            lam = P((n - b,) + (1,) * b)
            assert is_odd(lam)
            for k in range(t):
                got = remove_odd_hook(lam, k)
                if b & (1 << k):
                    assert got == P((n - b,) + (1,) * (b - (1 << k)))
                else:
                    assert got == P((n - b - (1 << k),) + (1,) * b)


def test_commuting_side_cases():
    # l = t with 2^k <= m, and m < 2^k, always commute.
    for inst in commute_instances(20):
        if inst.l == inst.t and (1 << inst.k) <= inst.m:
            assert commute_verdict(inst).commutes, inst
        if inst.m < (1 << inst.k):
            assert commute_verdict(inst).commutes, inst


def test_fiber_size_formula_matches_its_definition_on_decoded_quotients():
    # The formula reads mu's runner masks; here the definition is written out
    # on the decoded 2^k-quotient: 2 when some component has size
    # 2^d - 1 mod 2^(d+1) and a hook for its 2^d-core, else 0.
    checked = 0
    for n in range(2, 41):
        for k in range(n.bit_length()):
            if (1 << k) >= n or (d := dnk(n, k).d) == 0:
                continue
            for mu in odd_partitions(n - (1 << k)):
                components = e_quotient(mu, 1 << k)
                assert all(map(is_odd, components)), (mu, k)
                good = any(
                    p.size % (2 << d) == (1 << d) - 1 and is_hook_partition(e_core(p, 1 << d))
                    for p in components
                )
                assert fiber_size_formula(mu, n, k) == (2 if good else 0), (mu, n, k)
                checked += 1
    assert checked > 10_000


def test_mask_composition_matches_the_remove_odd_hook_composition():
    for inst in commute_instances(20):
        for lam in odd_partitions(inst.n):
            assert _composition_disagrees(lam, inst) == compositions_disagree(lam, inst), (lam, inst)


def test_mask_size_matches_the_decoded_size():
    for n in range(31):
        for x in _level(n):
            for pad in range(4):
                y = x << pad | ((1 << pad) - 1)
                assert _mask_size(y) == _partition_from_mask(y).size == n, (x, pad)
                for e in (2, 4):
                    for r in _runners(y, e):
                        assert _mask_size(r) == _partition_from_mask(r).size, (x, pad, e)
