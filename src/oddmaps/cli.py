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

Each command builds one record, a dict of plain values and partitions,
and renders it as text (the default), ``--format json`` or ``--format
csv``; the record's keys are the JSON keys. Exit codes: 0 on success, 1
when a verify sweep found mismatches, 2 on usage errors (including
``verify --jobs`` below 1) and when ``--out`` cannot be written, 3 when an
internal invariant check failed (the error and the command line that
reproduces it go to stderr).
Partition literals are bracketed comma lists such as ``[5,4,2,2,1,1]``;
``[]`` is the empty partition. ``ODDMAPS_MAX_N`` (default 40) caps the n
accepted by the sweeping commands and by ``witness``. ``verify --jobs``
starts at most one worker process per level and per CPU.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shlex
import sys
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
    rows = [list(row) for row in data.core_rows] + [list(data.quotient_row.entries)]
    texts = [" ".join(str(p) for p in row) for row in rows]
    width = max(len(t) for t in texts)
    return "\n".join(" " * ((width - len(t)) // 2) + t for t in texts)


def _max_n() -> int:
    return int(os.environ.get("ODDMAPS_MAX_N", "40"))


def _check_cap(parser: argparse.ArgumentParser, n: int) -> None:
    cap = _max_n()
    if n > cap:
        parser.error(f"n={n} exceeds the sweep cap {cap} (set ODDMAPS_MAX_N to raise it)")


def _emit(
    args: argparse.Namespace,
    record: dict[str, Any],
    text: str | None = None,
    rows: list[list[Any]] | None = None,
) -> None:
    """Render a command's record in the requested format and write it out.

    JSON writes each partition as its list of parts. The default text is
    one member per line for a record with ``members``, else the record's
    last value; the default CSV is a ``partition`` column for a record with
    ``members``, else one header row of keys over one row of values.
    ``text`` and ``rows`` replace those defaults where a command's layout
    differs.
    """
    if args.format == "json":
        rendered = json.dumps(record, indent=2, default=lambda p: list(p.parts))
    elif args.format == "csv":
        if rows is None and "members" in record:
            rows = [["partition"]] + [[str(p)] for p in record["members"]]
        elif rows is None:
            # csv writes None as an empty field.
            values = [str(v) if isinstance(v, Partition) else v for v in record.values()]
            rows = [list(record), values]
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        rendered = buf.getvalue().rstrip("\n")
    elif text is not None:
        rendered = text
    elif "members" in record:
        rendered = "\n".join(str(p) for p in record["members"])
    else:
        last = list(record.values())[-1]
        rendered = ("true" if last else "false") if isinstance(last, bool) else str(last)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        print(rendered)


def _cmd_odd_list(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    members = odd_partitions(args.n)
    _emit(args, {"n": args.n, "members": members, "size": len(members)})
    return 0


def _cmd_fk(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    lam = args.lam
    if lam.size != args.n:
        parser.error(f"lambda has size {lam.size}, expected n={args.n}")
    result = remove_odd_hook(lam, args.k)
    _emit(args, {"n": args.n, "k": args.k, "lambda": lam, "result": result})
    return 0


def _cmd_fiber(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    fib = fiber(args.mu, args.n, args.k)
    record = {
        "n": args.n,
        "k": args.k,
        "mu": args.mu,
        "members": fib.members,
        "size": fib.size,
        "d": dnk(args.n, args.k).d,
    }
    _emit(args, record)
    return 0


def _cmd_image(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    missed = image_misses(args.n, args.k)
    record = {
        "n": args.n,
        "k": args.k,
        "members": missed,
        "size": len(missed),
        "d": dnk(args.n, args.k).d,
    }
    _emit(args, record)
    return 0


def _cmd_surjective(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    result = is_surjective(args.n, args.k)
    _emit(args, {"n": args.n, "k": args.k, "d": dnk(args.n, args.k).d, "result": result})
    return 0


def _cmd_commute(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    verdict = commute_verdict(CommuteInstance(n=args.n, k=args.k, l=args.l))
    text = "commutes: " + ("true" if verdict.commutes else "false")
    if verdict.witness is not None:
        text += f"\nwitness: {verdict.witness}"
    record = {
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "commutes": verdict.commutes,
        "witness": verdict.witness,
    }
    _emit(args, record, text=text)
    return 0


def _cmd_witness(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    lam = counterexample_witness(CommuteInstance(n=args.n, k=args.k, l=args.l))
    _emit(args, {"n": args.n, "k": args.k, "l": args.l, "witness": lam})
    return 0


def _cmd_tower(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # Row k holds 2^k entries and lies past the first all-empty row once
    # 2^(k-1) > max(|lambda|, 1); compared by bit length so no 2^k is built.
    if args.k > max(args.lam.size, 1).bit_length():
        parser.error(f"k={args.k} lies past the first all-empty tower row of {args.lam}")
    data = k_data(args.lam, args.k)
    table = data.core_rows + (data.quotient_row.entries,)
    rows = [[str(p) for p in row] for row in table]
    record = {"lambda": args.lam, "k": args.k, "result": table}
    _emit(args, record, text=render_kdata(data), rows=rows)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.max_n)
    report = cross_validate(args.max_n, jobs=args.jobs)
    mismatches = [
        {"lambda": m.lam, "k": m.k, "expected": str(m.expected), "got": str(m.got)}
        for m in report.mismatches
    ]
    lines = [f"checks run: {report.checks_run}", f"mismatches: {len(mismatches)}"]
    lines += [f"  {m.lam} k={m.k}: expected {m.expected}, got {m.got}" for m in report.mismatches]
    rows = [
        ["n_max", "checks_run", "mismatches"],
        [report.n_max, report.checks_run, len(mismatches)],
    ]
    record = {"n_max": report.n_max, "checks_run": report.checks_run, "mismatches": mismatches}
    _emit(args, {"report": record}, text="\n".join(lines), rows=rows)
    return 0 if report.ok else 1


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddmaps",
        description="Odd-hook removal maps on partitions and their classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="FILE", default=None)
        p.set_defaults(func=func, parser=p)
        return p

    p = add("odd-list", _cmd_odd_list, "enumerate odd partitions of n")
    p.add_argument("--n", type=int, required=True)

    p = add("fk", _cmd_fk, "apply the odd-hook removal map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)

    p = add("fiber", _cmd_fiber, "preimage of mu under the removal map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)

    p = add("image", _cmd_image, "odd partitions missed by the removal map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("surjective", _cmd_surjective, "surjectivity criterion at (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("commute", _cmd_commute, "exhaustive commutativity check at (n; k, l)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("witness", _cmd_witness, "construct a non-commutativity witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("tower", _cmd_tower, "render the k-data table of a partition")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("verify", _cmd_verify, "cross-validate against the branching oracle")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"command: oddmaps {shlex.join(argv)}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
