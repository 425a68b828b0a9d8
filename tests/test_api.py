"""The package's boundaries: what the root exports, what the oracle imports,
and that production never imports the reference routes."""

import ast
import subprocess
import sys
from pathlib import Path

import oddmaps
import oddmaps.cli
import oddmaps.maps
import oddmaps.oddity
import oddmaps.oracle
import oddmaps.partition
import oddmaps.quotient

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

# The modules that compute answers; second routes live in oddmaps.reference.
PRODUCTION = (
    oddmaps.partition,
    oddmaps.quotient,
    oddmaps.oddity,
    oddmaps.maps,
    oddmaps.cli,
    oddmaps.oracle,
)


def test_root_exports_exactly_the_public_api():
    assert len(oddmaps.__all__) == len(ROOT_API)
    assert set(oddmaps.__all__) == ROOT_API
    for name in oddmaps.__all__:
        assert getattr(oddmaps, name) is not None, name


def _imported_names(tree: ast.AST) -> list[str]:
    """Every module and name an import statement anywhere in ``tree`` names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    return imported


def test_oracle_never_imports_the_quotient_machinery():
    tree = ast.parse(Path(oddmaps.oracle.__file__).read_text())
    imported = _imported_names(tree)
    assert not [name for name in imported if "quotient" in name]
    top_level_relative = {
        node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
    }
    assert top_level_relative == {"partition"}


def test_oracle_shares_only_the_partition_type_and_enumeration():
    # The oracle builds what it decodes through the checked constructor, so
    # the unchecked one stays inside the partition module.
    tree = ast.parse(Path(oddmaps.oracle.__file__).read_text())
    from_partition = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "partition"
        for alias in node.names
    ]
    assert sorted(from_partition) == ["Partition", "partitions_of"]
    for path in Path(oddmaps.__file__).parent.glob("*.py"):
        if path.name != "partition.py":
            assert "_trusted_partition" not in path.read_text(), path.name


def test_production_never_imports_the_reference_routes():
    imported = {m: _imported_names(ast.parse(Path(m.__file__).read_text())) for m in PRODUCTION}
    for module, names in imported.items():
        assert not [name for name in names if "reference" in name], module
    assert "hooks_of_length" not in imported[oddmaps.quotient]


def _cold_import(then: str) -> subprocess.CompletedProcess:
    """Run ``import oddmaps, oddmaps.cli`` and then ``then`` in a fresh
    interpreter, so that nothing pytest loaded counts."""
    src = str(Path(oddmaps.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import oddmaps, oddmaps.cli; {then}"
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )


def test_cold_import_loads_no_process_pool_and_no_dataclasses():
    unwanted = (
        "concurrent.futures.process",
        "multiprocessing",
        "dataclasses",
        "inspect",
        "typing",
    )
    proc = _cold_import(f"print([m for m in {unwanted!r} if m in sys.modules])")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_cold_import_loads_no_reference_routes_csv_or_shlex():
    # The root loads reference on first reading one of its three routes.
    proc = _cold_import(
        "print([m for m in ('oddmaps.reference', 'csv', 'shlex') if m in sys.modules]); "
        "from oddmaps import reference; "
        "print(oddmaps.odd_hook_removals is reference.odd_hook_removals, "
        "hasattr(oddmaps, 'hooks_of_length'))"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nTrue False\n", "")
