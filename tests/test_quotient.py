import random

import pytest

from helpers import random_partition
from oddmaps import Partition, k_data, partitions_of
from oddmaps.partition import hook_lengths, hooks_of_length, remove_hook
from oddmaps.quotient import (
    KData,
    core_and_quotient,
    core_tower,
    e_core,
    e_quotient,
    from_core_quotient,
    is_two_core,
    partition_from_kdata,
)

P = Partition
CALIBRATION = P((5, 4, 2, 2, 1, 1))


def test_quotient_convention_calibration():
    # Pins the beta-set convention; both tower rows must come out in this order.
    assert e_core(CALIBRATION, 2) == P((1,))
    assert e_quotient(CALIBRATION, 2) == (P((2, 2, 1, 1)), P((1,)))
    assert e_quotient(P((2, 2, 1, 1)), 2) == (P((1, 1)), P((1,)))
    assert e_quotient(P((1,)), 2) == (P(()), P(()))
    assert k_data(CALIBRATION, 1).quotient_row == (P((2, 2, 1, 1)), P((1,)))
    assert k_data(CALIBRATION, 2).quotient_row == (P((1, 1)), P((1,)), P(()), P(()))


def test_e_core_examples():
    assert e_core(P((2, 2)), 2) == P(())
    assert e_core(P((1,)), 2) == P((1,))
    assert e_core(P(()), 3) == P(())


def test_e_core_has_no_e_hooks():
    for n in range(15):
        for lam in partitions_of(n):
            for e in (2, 3, 5):
                assert not hooks_of_length(e_core(lam, e), e)


def test_from_core_quotient_examples():
    assert from_core_quotient(P((1,)), (P((2, 2, 1, 1)), P((1,))), 2) == CALIBRATION
    assert from_core_quotient(P(()), (P(()), P(())), 2) == P(())
    assert from_core_quotient(P((1,)), (P(()), P(())), 2) == P((1,))
    with pytest.raises(ValueError, match="not an e-core"):
        from_core_quotient(P((2,)), (P(()), P(())), 2)
    with pytest.raises(ValueError):
        from_core_quotient(P((1,)), (P(()),), 2)


def test_size_identity_full_range():
    for n in range(41):
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
            core = e_core(lam, 2)
            quot = e_quotient(lam, 2)
            for length in range(2, n + 1, 2):
                for h in hooks_of_length(lam, length):
                    mu = remove_hook(lam, h)
                    assert e_core(mu, 2) == core
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


def test_partition_from_kdata_roundtrip():
    for n in range(21):
        for lam in partitions_of(n):
            for k in (1, 2, 3):
                assert partition_from_kdata(k_data(lam, k)) == lam


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
