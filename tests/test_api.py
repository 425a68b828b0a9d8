"""The package's boundaries: what the root exports, and what the oracle imports."""

import ast
from pathlib import Path

import oddmaps
import oddmaps.oracle

ROOT_API = {
    "Partition",
    "nu2_degree",
    "partitions_of",
    "k_data",
    "is_odd",
    "odd_partitions",
    "odd_partitions_by_filter",
    "dnk",
    "CommuteInstance",
    "odd_hook_removals",
    "remove_odd_hook",
    "remove_odd_hook_via_tower",
    "fiber",
    "fiber_size_formula",
    "image_misses",
    "is_surjective",
    "predicted_commute",
    "commute_verdict",
    "counterexample_witness",
    "cross_validate",
}


def test_root_exports_exactly_the_public_api():
    assert len(oddmaps.__all__) == len(ROOT_API)
    assert set(oddmaps.__all__) == ROOT_API
    for name in oddmaps.__all__:
        assert getattr(oddmaps, name) is not None, name


def test_oracle_never_imports_the_quotient_machinery():
    tree = ast.parse(Path(oddmaps.oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "quotient" in name]
    top_level_relative = {
        node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
    }
    assert top_level_relative == {"partition"}
