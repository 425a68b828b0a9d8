"""Code lines of each module of the package, and the production and
verification totals.

A code line is a line that holds a token of code: blank lines, comments
and docstrings (module, class and function) are not counted, and a
statement spread over several lines counts each of them. Production is
``partition``, ``quotient``, ``oddity``, ``maps``, ``cli`` and the package
root; the verification layer is ``oracle`` and ``reference``. Each has
its own total, so a move between the layers shows on both lines. The
``python -m`` entry point is in neither.

Run from the repository root: ``python tests/code_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oddmaps"
LAYERS = {
    "production": {"__init__", "partition", "quotient", "oddity", "maps", "cli"},
    "verification": {"oracle", "reference"},
}
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    totals = dict.fromkeys(LAYERS, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        layer = next((name for name, stems in LAYERS.items() if path.stem in stems), None)
        if layer:
            totals[layer] += count
        print(f"{path.stem:<12} {count:>5}  {layer or 'in no total'}")
    for layer, total in totals.items():
        print(f"{layer:<12} {total:>5}")


if __name__ == "__main__":
    main()
