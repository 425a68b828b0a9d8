import random

import pytest

from helpers import random_partition
from oddmaps import Partition, k_data, partitions_of, quotient
from oddmaps.partition import _bead_mask, _partition_from_mask
from oddmaps.quotient import KData, _from_runners, _runners
from oddmaps.reference import (
    core_and_quotient,
    core_tower,
    e_quotient,
    from_core_quotient,
    hook_lengths,
    hooks_of_length,
    is_two_core,
    partition_from_kdata,
    remove_hook,
)

P = Partition
CALIBRATION = P((5, 4, 2, 2, 1, 1))


def test_quotient_convention_calibration():
    # Pins the beta-set convention; both tower rows must come out in this order.
    assert core_and_quotient(CALIBRATION, 2).core == P((1,))
    assert e_quotient(CALIBRATION, 2) == (P((2, 2, 1, 1)), P((1,)))
    assert e_quotient(P((2, 2, 1, 1)), 2) == (P((1, 1)), P((1,)))
    assert e_quotient(P((1,)), 2) == (P(()), P(()))
    assert k_data(CALIBRATION, 1).quotient_row == (P((2, 2, 1, 1)), P((1,)))
    assert k_data(CALIBRATION, 2).quotient_row == (P((1, 1)), P((1,)), P(()), P(()))


def test_e_core_examples():
    assert core_and_quotient(P((2, 2)), 2).core == P(())
    assert core_and_quotient(P((1,)), 2).core == P((1,))
    assert core_and_quotient(P(()), 3).core == P(())


def test_core_is_what_removing_e_hooks_leaves():
    # A route on the diagram that shares no runner code: remove e-hooks one
    # at a time until none is left.
    for n in range(17):
        for lam in partitions_of(n):
            for e in range(1, 7):
                core = lam
                while hooks := hooks_of_length(core, e):
                    core = remove_hook(core, hooks[0])
                assert core_and_quotient(lam, e).core == core, (lam, e)


def test_runners_apply_the_quotient_convention_at_any_padding():
    # The runners of a mask are the quotient components, whatever padding
    # the mask carries; joined again they give the mask padded to a
    # multiple of e beads.
    for n in range(13):
        for lam in partitions_of(n):
            for e in range(1, 6):
                quotient = core_and_quotient(lam, e).quotient
                for pad in range(2 * e):
                    runners = _runners(_bead_mask(lam, pad), e)
                    assert tuple(map(_partition_from_mask, runners)) == quotient, (lam, e, pad)
    for e in range(1, 6):
        for x in range(1 << 12):
            pad = -x.bit_count() % e
            assert _from_runners(_runners(x, e), e) == x << pad | ((1 << pad) - 1), (x, e)


def test_e_core_has_no_e_hooks():
    for n in range(15):
        for lam in partitions_of(n):
            for e in (2, 3, 5):
                assert not hooks_of_length(core_and_quotient(lam, e).core, e)


def test_from_core_quotient_examples():
    assert from_core_quotient(P((1,)), (P((2, 2, 1, 1)), P((1,))), 2) == CALIBRATION
    assert from_core_quotient(P(()), (P(()), P(())), 2) == P(())
    assert from_core_quotient(P((1,)), (P(()), P(())), 2) == P((1,))
    with pytest.raises(ValueError, match="not an e-core"):
        from_core_quotient(P((2,)), (P(()), P(())), 2)
    with pytest.raises(ValueError):
        from_core_quotient(P((1,)), (P(()),), 2)


def test_core_check_agrees_with_hook_enumeration():
    for n in range(13):
        for lam in partitions_of(n):
            for e in range(1, 6):
                empty = (P(()),) * e
                if hooks_of_length(lam, e):
                    with pytest.raises(ValueError, match="not an e-core"):
                        from_core_quotient(lam, empty, e)
                else:
                    assert from_core_quotient(lam, empty, e) == lam, (lam, e)


def test_size_identity_full_range():
    # n <= 26, like the other core/quotient sweeps: 46,928 (lam, e) pairs.
    # CI runs the same assertion to n = 40, all 861,232 pairs.
    for n in range(27):
        for lam in partitions_of(n):
            for e in (2, 3, 4, 8):
                assert core_and_quotient(lam, e).total == n


def test_core_quotient_roundtrip_random():
    rng = random.Random(20170905)
    for _ in range(1000):
        lam = random_partition(rng, 60)
        e = rng.choice((2, 3, 4))
        cq = core_and_quotient(lam, e)
        assert from_core_quotient(cq.core, cq.quotient, e) == lam


def test_hook_bijection():
    for n in range(26):
        for lam in partitions_of(n):
            for e in (2, 4):
                divisible = sorted(
                    h // e for row in hook_lengths(lam) for h in row if h % e == 0
                )
                in_quotient = sorted(
                    h
                    for q in e_quotient(lam, e)
                    for row in hook_lengths(q)
                    for h in row
                )
                assert divisible == in_quotient


def test_hook_removal_compatibility():
    for n in range(2, 19):
        for lam in partitions_of(n):
            core = core_and_quotient(lam, 2).core
            quot = e_quotient(lam, 2)
            for length in range(2, n + 1, 2):
                for h in hooks_of_length(lam, length):
                    mu = remove_hook(lam, h)
                    assert core_and_quotient(mu, 2).core == core
                    q2 = e_quotient(mu, 2)
                    diffs = [i for i in range(2) if q2[i] != quot[i]]
                    assert len(diffs) == 1
                    i = diffs[0]
                    x = length // 2
                    options = {
                        remove_hook(quot[i], hh) for hh in hooks_of_length(quot[i], x)
                    }
                    assert q2[i] in options


def test_quotient_row_examples():
    lam = P((7, 3, 1))
    assert e_quotient(lam, 1) == (lam,)
    assert k_data(CALIBRATION, 1).quotient_row == e_quotient(CALIBRATION, 2)
    row3 = k_data(CALIBRATION, 3).quotient_row
    assert len(row3) == 8
    # The recursion invariant: row k entries pair up into the quotients of row k-1
    # (row 1 is the 2-quotient of row 0, checked just above).
    for k in range(2, 4):
        upper = k_data(CALIBRATION, k - 1).quotient_row
        lower = k_data(CALIBRATION, k).quotient_row
        for i, p in enumerate(upper):
            assert e_quotient(p, 2) == (lower[2 * i], lower[2 * i + 1])


def test_quotient_row_is_the_2_to_the_k_quotient_reordered():
    # Order-free readers of row k take it from one 2^k-quotient pass.
    for n in range(17):
        for lam in partitions_of(n):
            for k in range(1, n.bit_length() + 2):
                assert sorted(k_data(lam, k).quotient_row) == sorted(e_quotient(lam, 1 << k))


def test_core_tower_examples():
    tower = core_tower(CALIBRATION)
    assert tower.weights == (1, 1, 1, 1)
    assert sum((1 << k) * w for k, w in enumerate(tower.weights)) == 15
    assert core_tower(P(())).rows == ((P(()),),)
    assert core_tower(P(())).weights == ()
    t1 = core_tower(P((1,)))
    assert t1.rows[0] == (P((1,)),)
    assert t1.weights == (1,)
    assert t1.weight(0) == 1 and t1.weight(5) == 0


def test_core_tower_rows_are_two_cores():
    for n in range(16):
        for lam in partitions_of(n):
            tower = core_tower(lam)
            assert all(is_two_core(p) for row in tower.rows for p in row)
            assert sum((1 << k) * w for k, w in enumerate(tower.weights)) == n


def test_k_data_examples():
    data = k_data(CALIBRATION, 2)
    assert data.core_rows == ((P((1,)),), (P(()), P((1,))))
    assert data.quotient_row == (P((1, 1)), P((1,)), P(()), P(()))
    small = k_data(P((1,)), 1)
    assert small.core_rows == ((P((1,)),),)
    assert small.quotient_row == (P(()), P(()))
    other = k_data(P((3, 2, 2, 2, 1, 1)), 2)
    assert other.core_rows == data.core_rows
    assert other.quotient_row == (P((1, 1)), P(()), P(()), P(()))
    with pytest.raises(ValueError, match="k > 0"):
        k_data(CALIBRATION, 0)


def test_k_data_encodes_once_and_decodes_only_its_table(monkeypatch):
    # At k = 3 the table holds 2^3 - 1 cores and 2^3 row entries; no tower
    # entry is decoded or encoded again to be split.
    calls = {"_bead_mask": 0, "_partition_from_mask": 0}

    def counted(name):
        fn = getattr(quotient, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(quotient, name, wrapper)

    counted("_bead_mask")
    counted("_partition_from_mask")
    k_data(CALIBRATION, 3)
    assert calls == {"_bead_mask": 1, "_partition_from_mask": 15}


def test_partition_from_kdata_roundtrip():
    # The mask walk against the Partition-level descent of core_tower, whose
    # rows stop at the first all-empty one.
    for n in range(21):
        for lam in partitions_of(n):
            rows = core_tower(lam).rows
            for k in (1, 2, 3):
                data = k_data(lam, k)
                assert partition_from_kdata(data) == lam
                for j, row in enumerate(data.core_rows):
                    assert row == (rows[j] if j < len(rows) else (P(()),) * (1 << j)), (lam, k)


def test_partition_from_kdata_examples():
    data = k_data(CALIBRATION, 2)
    assert partition_from_kdata(data) == CALIBRATION
    trivial = KData(k=1, core_rows=((P(()),),), quotient_row=(P(()), P(())))
    assert partition_from_kdata(trivial) == P(())
    variant = KData(
        k=2,
        core_rows=data.core_rows,
        quotient_row=(P((1, 1)), P(()), P(()), P(())),
    )
    assert partition_from_kdata(variant) == P((3, 2, 2, 2, 1, 1))


def test_partition_from_kdata_rejects_bad_tables():
    bad = KData(k=1, core_rows=((P((2,)),),), quotient_row=(P(()), P(())))
    with pytest.raises(ValueError, match="not a 2-core"):
        partition_from_kdata(bad)
    short = KData(k=2, core_rows=((P(()),), (P(()), P(()))), quotient_row=(P(()), P(())))
    with pytest.raises(ValueError, match=r"quotient row must hold 2\^2 entries"):
        partition_from_kdata(short)


def test_is_two_core():
    assert is_two_core(P(()))
    assert is_two_core(P((3, 2, 1)))
    assert not is_two_core(P((2, 2)))
