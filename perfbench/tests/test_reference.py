"""The benchmark's reference code and input generation.

Run from the root of a checkout: python3 -m unittest discover perfbench/tests
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class ReferenceTest(unittest.TestCase):
    def test_partition_counts(self):
        p = ref.partition_counts(22)
        self.assertEqual(p[:11], [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42])
        self.assertEqual(p[22], 1002)
        self.assertEqual([len(list(ref.all_partitions(n))) for n in range(13)], p[:13])

    def test_verify_check_count(self):
        self.assertEqual(ref.verify_checks(22), 7277)

    def test_generator_covers_exactly_the_odd_partitions(self):
        for n in range(13):
            made = ref.all_odd_partitions(n)
            by_parity = [lam for lam in ref.all_partitions(n) if ref.is_odd_degree(lam)]
            self.assertEqual(len(set(made)), len(made), n)
            self.assertEqual(made, by_parity, n)
            self.assertEqual(len(made), ref.odd_count(n), n)

    def test_random_odd_partitions_are_odd(self):
        rng = random.Random(5)
        for n in (1, 7, 40, 63):
            for _ in range(20):
                lam = ref.random_odd_partition(rng, n)
                self.assertEqual(sum(lam), n)
                self.assertTrue(ref.is_odd_degree(lam))

    def test_map_lands_on_an_odd_partition(self):
        for n in range(1, 11):
            for lam in ref.all_odd_partitions(n):
                for k in range(n.bit_length()):
                    mu = ref.remove_odd_hook(lam, k)
                    self.assertEqual(sum(mu), n - (1 << k))
                    self.assertTrue(ref.is_odd_degree(mu))

    def test_same_seed_same_inputs(self):
        for name, (make, _, _) in WORKLOADS.items():
            self.assertEqual(make(7), make(7), name)
        for name in ("map_sample", "classify"):
            make = WORKLOADS[name][0]
            self.assertNotEqual(make(7), make(8), name)


if __name__ == "__main__":
    unittest.main()
