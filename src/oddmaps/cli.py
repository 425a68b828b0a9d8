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

Output is text by default; ``--format json`` and ``--format csv`` emit
machine-readable forms with a fixed key vocabulary. Exit codes: 0 on
success, 1 when a verify sweep found mismatches, 2 on usage errors, 3 when
an internal invariant check failed (the error and the command line that
reproduces it go to stderr).
Partition literals are bracketed comma lists such as ``[5,4,2,2,1,1]``;
``[]`` is the empty partition. ``ODDMAPS_MAX_N`` (default 40) caps the n
accepted by the sweeping commands.
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


def _emit(args: argparse.Namespace, payload: dict[str, Any], text: str, csv_rows) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        rendered = buf.getvalue().rstrip("\n")
    else:
        rendered = text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)


def _plist(ps) -> list[list[int]]:
    return [list(p.parts) for p in ps]


def _cmd_odd_list(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    members = odd_partitions(args.n)
    payload = {"n": args.n, "members": _plist(members), "size": len(members)}
    text = "\n".join(str(p) for p in members)
    rows = [["partition"]] + [[str(p)] for p in members]
    _emit(args, payload, text, rows)
    return 0


def _cmd_fk(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    lam = args.lam
    if lam.size != args.n:
        parser.error(f"lambda has size {lam.size}, expected n={args.n}")
    result = remove_odd_hook(lam, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "lambda": list(lam.parts),
        "result": list(result.parts),
    }
    rows = [["n", "k", "lambda", "result"], [args.n, args.k, str(lam), str(result)]]
    _emit(args, payload, str(result), rows)
    return 0


def _cmd_fiber(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    fib = fiber(args.mu, args.n, args.k)
    depth = dnk(args.n, args.k).d
    payload = {
        "n": args.n,
        "k": args.k,
        "mu": list(args.mu.parts),
        "members": _plist(fib.members),
        "size": fib.size,
        "d": depth,
    }
    text = "\n".join(str(p) for p in fib.members)
    rows = [["partition"]] + [[str(p)] for p in fib.members]
    _emit(args, payload, text, rows)
    return 0


def _cmd_image(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    missed = image_misses(args.n, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "members": _plist(missed),
        "size": len(missed),
        "d": dnk(args.n, args.k).d,
    }
    text = "\n".join(str(p) for p in missed)
    rows = [["partition"]] + [[str(p)] for p in missed]
    _emit(args, payload, text, rows)
    return 0


def _cmd_surjective(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    result = is_surjective(args.n, args.k)
    depth = dnk(args.n, args.k).d
    payload = {"n": args.n, "k": args.k, "d": depth, "result": result}
    rows = [["n", "k", "d", "result"], [args.n, args.k, depth, result]]
    _emit(args, payload, "true" if result else "false", rows)
    return 0


def _cmd_commute(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.n)
    verdict = commute_verdict(CommuteInstance(n=args.n, k=args.k, l=args.l))
    witness = verdict.witness
    payload = {
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "commutes": verdict.commutes,
        "witness": list(witness.parts) if witness is not None else None,
    }
    text = "commutes: " + ("true" if verdict.commutes else "false")
    if witness is not None:
        text += f"\nwitness: {witness}"
    rows = [
        ["n", "k", "l", "commutes", "witness"],
        [args.n, args.k, args.l, verdict.commutes, str(witness) if witness else ""],
    ]
    _emit(args, payload, text, rows)
    return 0


def _cmd_witness(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    lam = counterexample_witness(CommuteInstance(n=args.n, k=args.k, l=args.l))
    payload = {"n": args.n, "k": args.k, "l": args.l, "witness": list(lam.parts)}
    rows = [["n", "k", "l", "witness"], [args.n, args.k, args.l, str(lam)]]
    _emit(args, payload, str(lam), rows)
    return 0


def _cmd_tower(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # Row k holds 2^k entries and lies past the first all-empty row once
    # 2^(k-1) > max(|lambda|, 1); compared by bit length so no 2^k is built.
    if args.k > max(args.lam.size, 1).bit_length():
        parser.error(f"k={args.k} lies past the first all-empty tower row of {args.lam}")
    data = k_data(args.lam, args.k)
    table = [_plist(row) for row in data.core_rows] + [_plist(data.quotient_row.entries)]
    payload = {"lambda": list(args.lam.parts), "k": args.k, "result": table}
    rows = [[str(Partition(p)) for p in row] for row in table]
    _emit(args, payload, render_kdata(data), rows)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _check_cap(parser, args.max_n)
    report = cross_validate(args.max_n, jobs=args.jobs)
    payload = {
        "report": {
            "n_max": report.n_max,
            "checks_run": report.checks_run,
            "mismatches": [
                {
                    "lambda": list(m.lam.parts),
                    "k": m.k,
                    "expected": str(m.expected),
                    "got": str(m.got),
                }
                for m in report.mismatches
            ],
        }
    }
    lines = [f"checks run: {report.checks_run}", f"mismatches: {len(report.mismatches)}"]
    lines += [
        f"  {m.lam} k={m.k}: expected {m.expected}, got {m.got}"
        for m in report.mismatches
    ]
    rows = [["n_max", "checks_run", "mismatches"], [report.n_max, report.checks_run, len(report.mismatches)]]
    _emit(args, payload, "\n".join(lines), rows)
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
