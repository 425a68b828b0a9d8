"""The tracer against a pruned API: missing names and missing caches.

Run from the root of a checkout: python3 -m unittest discover perfbench/tests
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import verify_check, verify_run  # noqa: E402


def package_modules(om):
    return [m for n, m in sys.modules.items() if n == om.__name__ or n.startswith(om.__name__ + ".")]


class PrunedApiTest(unittest.TestCase):
    def setUp(self):
        self.om = worker.import_package()
        self.bindings = {(m.__name__, a): v for m in package_modules(self.om) for a, v in vars(m).items()}
        self.saved = []

    def tearDown(self):
        for owner, attr, value in self.saved:
            setattr(owner, attr, value)

    def prune(self):
        """Remove one exported function and one lru_cache, as a later
        simplification of the package might, without touching its files."""
        partition = sys.modules["oddmaps.partition"]
        for mod in (self.om, partition):
            self.saved.append((mod, "binary_relation", mod.binary_relation))
            delattr(mod, "binary_relation")
        cached = sys.modules["oddmaps.oddity"].is_odd
        for mod in package_modules(self.om):
            for attr, value in list(vars(mod).items()):
                if value is cached:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, cached.__wrapped__)

    def traced_verify(self):
        inputs = {"max_n": 6}
        tracer = Tracer(self.om)
        start = time.perf_counter()
        try:
            outputs = verify_run(self.om, inputs)
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - start
        attempted, failed = verify_check(inputs, outputs)
        return {"wall_s": wall, "peak_rss_mb": 1.0, "setup_s": 0.1, "probe_s": 0.14, "attempted": attempted,
                "failed": failed, "layers": tracer.metrics(wall)}

    def test_uninstall_restores_every_binding(self):
        self.traced_verify()
        after = {(m.__name__, a): v for m in package_modules(self.om) for a, v in vars(m).items()}
        self.assertEqual(after, self.bindings)

    def test_pruned_api_still_emits_every_metric(self):
        self.prune()
        traced = self.traced_verify()
        self.assertEqual(traced["failed"], 0)
        layers = traced["layers"]
        self.assertNotIn("oddity.is_odd.hit_ratio", layers)
        self.assertIn("quotient.core_tower.hit_ratio", layers)
        self.assertGreater(layers["oddity.calls"], 0)
        self.assertGreater(layers["oracle.largest_level_share"], 0)

        spec = run.load_spec()
        plain = dict(traced, layers=None)
        untraced = run.report(spec, [plain], [])
        self.assertEqual(set(untraced["metrics"]), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(set(run.end_to_end([plain])), {m["name"] for m in spec["end_to_end"]})
        result = run.report(spec, [plain], [traced])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["per_layer"]})
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["oddity.is_odd.hit_ratio"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
