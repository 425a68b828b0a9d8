"""Command-line surface.

Commands
--------
odd-list    enumerate the odd partitions of n
fk          apply the odd-hook removal map to one partition
fiber       list the odd partitions of n restricting to a given mu
image       list the odd partitions of n - 2^k with empty fiber
surjective  evaluate the surjectivity criterion at (n, k)
commute     exhaustively decide whether removals at k and l commute on n
witness     construct a verified non-commutativity witness for (n; k, l)
tower       render the k-data table of a partition
verify      run the branching-parity cross-validation sweep

The commands are the rows of one table, ``_COMMANDS``: each names its help
text, its input flags, the value ``ODDMAPS_MAX_N`` caps and a function from
the parsed arguments to one record, a dict of plain values and partitions.
``main`` alone applies the cap, renders the record as text (the default),
``--format json`` or ``--format csv`` (the record's keys are the JSON keys)
and sets the exit code: 0 on success, 1 when a verify sweep found
mismatches, 2 on usage errors (including ``verify --jobs`` below 1) and when
``--out`` cannot be written, 3 when an internal invariant check failed (the
error and the command line that reproduces it go to stderr).
Partition literals are bracketed comma lists such as ``[5,4,2,2,1,1]``;
``[]`` is the empty partition. ``ODDMAPS_MAX_N`` (default 40) caps ``n`` for
``odd-list``, ``fk``, ``fiber``, ``image``, ``commute`` and ``witness``, the
size of the partition given to ``tower`` and ``verify --max-n``;
``surjective`` is uncapped, since its criterion is closed-form. ``verify
--jobs`` starts at most one worker process per level and per CPU.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shlex
import sys
from collections import namedtuple
from operator import attrgetter
from typing import Any

from .maps import (
    CommuteInstance,
    commute_verdict,
    counterexample_witness,
    fiber,
    image_misses,
    is_surjective,
    remove_odd_hook,
)
from .oddity import dnk, odd_partitions
from .oracle import cross_validate
from .partition import Partition
from .quotient import KData, k_data

__all__ = ["parse_partition_text", "render_kdata", "build_parser", "main", "run"]


def parse_partition_text(text: str) -> Partition:
    """Parse a bracketed comma list like ``[5,4,2]`` into a partition."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed partition literal: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return Partition(())
    try:
        parts = [int(tok.strip()) for tok in inner.split(",")]
    except ValueError:
        raise ValueError(f"malformed partition literal: {text!r}") from None
    return Partition(parts)


def render_kdata(data: KData) -> str:
    """Centered triangular rendering of a k-data table, one row per line."""
    return _centered(data.core_rows + (data.quotient_row,))


def _centered(rows: tuple[tuple[Partition, ...], ...]) -> str:
    texts = [" ".join(str(p) for p in row) for row in rows]
    width = max(len(t) for t in texts)
    return "\n".join(" " * ((width - len(t)) // 2) + t for t in texts)


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Every input flag but the required integers --n, --k, --l and --max-n.
_INPUTS: dict[str, dict[str, Any]] = {
    "--lambda": {"dest": "lam", "type": _partition_arg, "required": True},
    "--mu": {"type": _partition_arg, "required": True},
    "--jobs": {"type": int, "default": 1},
}


def _odd_list(args: argparse.Namespace) -> dict[str, Any]:
    members = odd_partitions(args.n)
    return {"n": args.n, "members": members, "size": len(members)}


def _fk(args: argparse.Namespace) -> dict[str, Any]:
    if args.lam.size != args.n:
        args.parser.error(f"lambda has size {args.lam.size}, expected n={args.n}")
    result = remove_odd_hook(args.lam, args.k)
    return {"n": args.n, "k": args.k, "lambda": args.lam, "result": result}


def _fiber(args: argparse.Namespace) -> dict[str, Any]:
    fib = fiber(args.mu, args.n, args.k)
    return {
        "n": args.n,
        "k": args.k,
        "mu": args.mu,
        "members": fib.members,
        "size": fib.size,
        "d": dnk(args.n, args.k).d,
    }


def _image(args: argparse.Namespace) -> dict[str, Any]:
    missed = image_misses(args.n, args.k)
    return {
        "n": args.n,
        "k": args.k,
        "members": missed,
        "size": len(missed),
        "d": dnk(args.n, args.k).d,
    }


def _surjective(args: argparse.Namespace) -> dict[str, Any]:
    result = is_surjective(args.n, args.k)
    return {"n": args.n, "k": args.k, "d": dnk(args.n, args.k).d, "result": result}


def _commute(args: argparse.Namespace) -> dict[str, Any]:
    verdict = commute_verdict(CommuteInstance(n=args.n, k=args.k, l=args.l))
    return {
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "commutes": verdict.commutes,
        "witness": verdict.witness,
    }


def _witness(args: argparse.Namespace) -> dict[str, Any]:
    lam = counterexample_witness(CommuteInstance(n=args.n, k=args.k, l=args.l))
    return {"n": args.n, "k": args.k, "l": args.l, "witness": lam}


def _tower(args: argparse.Namespace) -> dict[str, Any]:
    # Row k holds 2^k entries and lies past the first all-empty row once
    # 2^(k-1) > max(|lambda|, 1); compared by bit length so no 2^k is built.
    if args.k > max(args.lam.size, 1).bit_length():
        args.parser.error(f"k={args.k} lies past the first all-empty tower row of {args.lam}")
    data = k_data(args.lam, args.k)
    return {"lambda": args.lam, "k": args.k, "result": data.core_rows + (data.quotient_row,)}


def _verify(args: argparse.Namespace) -> dict[str, Any]:
    report = cross_validate(args.max_n, jobs=args.jobs)
    mismatches = [
        {"lambda": m.lam, "k": m.k, "expected": str(m.expected), "got": str(m.got)}
        for m in report.mismatches
    ]
    record = {"n_max": report.n_max, "checks_run": report.checks_run, "mismatches": mismatches}
    return {"report": record}


def _text(record: dict[str, Any]) -> str:
    """One member per line for a record with ``members``, else its last value."""
    if "members" in record:
        return "\n".join(str(p) for p in record["members"])
    last = list(record.values())[-1]
    return ("true" if last else "false") if isinstance(last, bool) else str(last)


def _rows(record: dict[str, Any]) -> list[list[Any]]:
    """A ``partition`` column for a record with ``members``, else one header
    row of keys over one row of values."""
    if "members" in record:
        return [["partition"]] + [[str(p)] for p in record["members"]]
    # csv writes None as an empty field.
    return [list(record), [str(v) if isinstance(v, Partition) else v for v in record.values()]]


def _commute_text(record: dict[str, Any]) -> str:
    text = "commutes: " + ("true" if record["commutes"] else "false")
    return text if record["witness"] is None else f"{text}\nwitness: {record['witness']}"


def _verify_text(record: dict[str, Any]) -> str:
    report = record["report"]
    lines = [f"checks run: {report['checks_run']}", f"mismatches: {len(report['mismatches'])}"]
    for m in report["mismatches"]:
        lines.append(f"  {m['lambda']} k={m['k']}: expected {m['expected']}, got {m['got']}")
    return "\n".join(lines)


# One row of the command table: the help text; the input flags, in order; the
# dotted attribute of the parsed arguments that ODDMAPS_MAX_N bounds, or None
# where the command is uncapped; the function from the parsed arguments to the
# command's one record; and that record's text and CSV layouts.
_Command = namedtuple("_Command", "help inputs cap record text rows", defaults=(_text, _rows))


_COMMANDS = {
    "odd-list": _Command("enumerate odd partitions of n", "--n", "n", _odd_list),
    "fk": _Command("apply the odd-hook removal map", "--n --k --lambda", "n", _fk),
    "fiber": _Command("preimage of mu under the removal map", "--n --k --mu", "n", _fiber),
    "image": _Command("odd partitions missed by the removal map", "--n --k", "n", _image),
    # The surjectivity criterion is closed-form, so no n is too large for it.
    "surjective": _Command("surjectivity criterion at (n, k)", "--n --k", None, _surjective),
    "commute": _Command(
        "exhaustive commutativity check at (n; k, l)", "--n --k --l", "n", _commute, _commute_text
    ),
    "witness": _Command("construct a non-commutativity witness", "--n --k --l", "n", _witness),
    "tower": _Command(
        "render the k-data table of a partition", "--lambda --k", "lam.size", _tower,
        # One line, or one CSV row, per tower row.
        text=lambda r: _centered(r["result"]),
        rows=lambda r: [[str(p) for p in row] for row in r["result"]],
    ),
    "verify": _Command(
        "cross-validate against the branching oracle", "--max-n --jobs", "max_n", _verify,
        text=_verify_text,
        # The CSV counts the mismatches; the text and JSON list them.
        rows=lambda r: _rows({**r["report"], "mismatches": len(r["report"]["mismatches"])}),
    ),
}


def _emit(args: argparse.Namespace, record: dict[str, Any], command: _Command) -> None:
    """Render a command's record in the requested format and write it out.

    JSON writes each partition as its list of parts; text and CSV follow the
    command's layouts.
    """
    if args.format == "json":
        rendered = json.dumps(record, indent=2, default=lambda p: list(p.parts))
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(command.rows(record))
        rendered = buf.getvalue().rstrip("\n")
    else:
        rendered = command.text(record)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        print(rendered)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddmaps",
        description="Odd-hook removal maps on partitions and their classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="FILE", default=None)
        for flag in command.inputs.split():
            p.add_argument(flag, **_INPUTS.get(flag, {"type": int, "required": True}))
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        n = attrgetter(command.cap)(args) if command.cap else None
        if n is not None and n > (cap := int(os.environ.get("ODDMAPS_MAX_N", "40"))):
            args.parser.error(f"n={n} exceeds the sweep cap {cap} (set ODDMAPS_MAX_N to raise it)")
        record = command.record(args)
        _emit(args, record, command)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"command: oddmaps {shlex.join(argv)}", file=sys.stderr)
        return 3
    # Only a verify report carries mismatches.
    return 1 if "report" in record and record["report"]["mismatches"] else 0


def run() -> None:
    sys.exit(main())
