"""The package's boundaries: what the root exports, what the oracle imports,
that production never imports the reference routes, and that every
function and class member of production and the oracle has a caller there."""

import ast
import subprocess
import sys
from collections.abc import Collection
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

# The modules the boundary pins cover. Production is partition, quotient,
# oddity, maps, cli and the package root, which holds only the exports and
# their loader and so counts here as a reader only. The verification layer
# is oracle and reference: the pins cover the oracle, which ``oddmaps
# verify`` runs, and not reference, the second routes that only tests call.
PINNED = (
    oddmaps.partition,
    oddmaps.quotient,
    oddmaps.oddity,
    oddmaps.maps,
    oddmaps.cli,
    oddmaps.oracle,
)

# Top-level functions of a pinned module that no production code calls,
# each kept for the reason given.
UNCALLED = {
    "oracle.unique_odd_constituent": "the oracle's value at one partition; the sweep walks levels",
    "oracle.skew_syt_parity": "the one-box definition that the oracle's domino walk is tested on",
}


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


def test_oracle_shares_only_the_partition_type():
    # The oracle lists partitions by its own ZS1 and builds each one itself,
    # so it shares only the Partition type with production. A partition is
    # built without its checks in two places only: the partition module's
    # mask decoder and the oracle's enumeration.
    tree = ast.parse(Path(oddmaps.oracle.__file__).read_text())
    from_partition = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "partition"
        for alias in node.names
    ]
    assert from_partition == ["Partition"]
    unchecked = {
        path.name
        for path in Path(oddmaps.__file__).parent.glob("*.py")
        if "Partition.__new__" in path.read_text()
    }
    assert unchecked == {"partition.py", "oracle.py"}


def test_production_never_imports_the_reference_routes():
    imported = {m: _imported_names(ast.parse(Path(m.__file__).read_text())) for m in PINNED}
    for module, names in imported.items():
        assert not [name for name in names if "reference" in name], module
    assert "hooks_of_length" not in imported[oddmaps.quotient]


def _reads(tree: ast.AST, skip: Collection[ast.AST] = (), attributes: bool = False) -> set[str]:
    """Every name read in ``tree`` outside the subtrees ``skip``, or with
    ``attributes`` every attribute read, such as ``m`` in ``x.m``."""
    kind, field = (ast.Attribute, "attr") if attributes else (ast.Name, "id")
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, kind) and isinstance(node.ctx, ast.Load):
            names.add(getattr(node, field))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _imported_from(tree: ast.AST, module: str) -> set[str]:
    """The names ``tree`` imports from the sibling module ``module``."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }


def _package_trees() -> dict[str, ast.Module]:
    """The parsed source of every module of the package except reference."""
    return {
        path.stem: ast.parse(path.read_text())
        for path in Path(oddmaps.__file__).parent.glob("*.py")
        if path.stem != "reference"
    }


def test_every_production_function_is_exported_or_called_in_production():
    # A function qualifies by being a root export, by being read in its own
    # module outside its own body, or by being imported and read by another
    # module of the package other than reference. Tests do not count.
    trees = _package_trees()
    reads = {stem: _reads(tree) for stem, tree in trees.items()}
    uncalled = set()
    for module in PINNED:
        stem = module.__name__.rpartition(".")[2]
        tree = trees[stem]
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            exported = name in oddmaps.__all__ and getattr(oddmaps, name) is getattr(module, name)
            called = name in _reads(tree, skip={node}) or any(
                name in reads[other] and name in _imported_from(trees[other], stem)
                for other in trees
                if other != stem
            )
            if not (exported or called):
                uncalled.add(f"{stem}.{name}")
    assert uncalled == set(UNCALLED)


def test_every_public_class_member_is_read_in_production():
    # A public method or property (no leading underscore) of a class of a
    # pinned module qualifies by being read as an attribute somewhere in the
    # package other than reference, outside its own body and outside the
    # allowlisted functions, which no production code calls. Dunders are
    # the protocols Python calls. Tests do not count.
    trees = _package_trees()
    allowlisted = {
        node
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and f"{stem}.{node.name}" in UNCALLED
    }
    unread = set()
    for module in PINNED:
        stem = module.__name__.rpartition(".")[2]
        for cls in trees[stem].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    skip = allowlisted | {node}
                    if not any(
                        node.name in _reads(tree, skip, attributes=True) for tree in trees.values()
                    ):
                        unread.add(f"{cls.name}.{node.name}")
    assert unread == set()


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
    # The root loads reference on first reading one of its four routes.
    proc = _cold_import(
        "print([m for m in ('oddmaps.reference', 'csv', 'shlex') if m in sys.modules], "
        "'nu2_degree' in vars(oddmaps)); "
        "nu2_degree = oddmaps.nu2_degree; "
        "from oddmaps import reference; "
        "print(nu2_degree is reference.nu2_degree, "
        "oddmaps.odd_hook_removals is reference.odd_hook_removals, "
        "hasattr(oddmaps, 'hooks_of_length'))"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] False\nTrue True False\n", "")
