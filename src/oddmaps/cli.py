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
``main`` alone applies the cap, writes the record as text (the default),
``--format json`` or ``--format csv`` (the record's keys are the JSON keys)
and sets the exit code. Every format writes into one sink, stdout or the
``--out`` file, piece by piece as it renders the record, so no rendered
output is held whole in memory. The JSON layout is fixed: two-space
indent, each partition as its list of parts, byte-identical to
``json.dumps(record, indent=2)`` with each partition replaced by its parts.
Exit codes: 0 on success, 1 when a verify sweep found mismatches or
stdout's reader closed it before the output ended (``oddmaps ... | head``;
nothing goes to stderr), 2 on usage errors (including ``verify --jobs``
below 1) and when ``--out`` cannot be written, 3 when an internal
invariant check failed (the error and the command line that reproduces it
go to stderr).
Partition literals are bracketed comma lists such as ``[5,4,2,2,1,1]``;
``[]`` is the empty partition. ``ODDMAPS_MAX_N`` (default 40) caps ``n`` for
``odd-list``, ``fk``, ``fiber``, ``image``, ``commute`` and ``witness``, the
size of the partition given to ``tower`` and ``verify --max-n``;
``surjective`` is uncapped, since its criterion is closed-form; a value
that is not an integer is a usage error. ``verify
--jobs`` starts at most one worker process per level and per CPU, and the
process pool is loaded only when more than one worker starts.

The parser is built once, when this module is imported (``_PARSER``), and
``main`` parses every command line with it; :func:`build_parser` builds a
fresh one.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import chain
from json import dumps as _json_scalar
from operator import attrgetter

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
    texts = [" ".join(map(str, row)) for row in data.core_rows + (data.quotient_row,)]
    width = max(map(len, texts))
    return "\n".join(" " * ((width - len(t)) // 2) + t for t in texts)


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Every input flag but the required integers --n, --k, --l and --max-n.
_INPUTS: dict[str, dict[str, object]] = {
    "--lambda": {"dest": "lam", "type": _partition_arg, "required": True},
    "--mu": {"type": _partition_arg, "required": True},
    "--jobs": {"type": int, "default": 1},
}


def _odd_list(args: argparse.Namespace) -> dict[str, object]:
    members = odd_partitions(args.n)
    return {"n": args.n, "members": members, "size": len(members)}


def _fk(args: argparse.Namespace) -> dict[str, object]:
    if args.lam.size != args.n:
        args.parser.error(f"lambda has size {args.lam.size}, expected n={args.n}")
    result = remove_odd_hook(args.lam, args.k)
    return {"n": args.n, "k": args.k, "lambda": args.lam, "result": result}


def _fiber(args: argparse.Namespace) -> dict[str, object]:
    fib = fiber(args.mu, args.n, args.k)
    return {
        "n": args.n,
        "k": args.k,
        "mu": args.mu,
        "members": fib.members,
        "size": fib.size,
        "d": dnk(args.n, args.k).d,
    }


def _image(args: argparse.Namespace) -> dict[str, object]:
    missed = image_misses(args.n, args.k)
    return {
        "n": args.n,
        "k": args.k,
        "members": missed,
        "size": len(missed),
        "d": dnk(args.n, args.k).d,
    }


def _surjective(args: argparse.Namespace) -> dict[str, object]:
    result = is_surjective(args.n, args.k)
    return {"n": args.n, "k": args.k, "d": dnk(args.n, args.k).d, "result": result}


def _commute(args: argparse.Namespace) -> dict[str, object]:
    verdict = commute_verdict(CommuteInstance(n=args.n, k=args.k, l=args.l))
    return {
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "commutes": verdict.commutes,
        "witness": verdict.witness,
    }


def _witness(args: argparse.Namespace) -> dict[str, object]:
    lam = counterexample_witness(CommuteInstance(n=args.n, k=args.k, l=args.l))
    return {"n": args.n, "k": args.k, "l": args.l, "witness": lam}


def _tower(args: argparse.Namespace) -> dict[str, object]:
    # Row k holds 2^k entries and lies past the first all-empty row once
    # 2^(k-1) > max(|lambda|, 1); compared by bit length so no 2^k is built.
    if args.k > max(args.lam.size, 1).bit_length():
        args.parser.error(f"k={args.k} lies past the first all-empty tower row of {args.lam}")
    data = k_data(args.lam, args.k)
    return {"lambda": args.lam, "k": args.k, "result": data.core_rows + (data.quotient_row,)}


def _verify(args: argparse.Namespace) -> dict[str, object]:
    report = cross_validate(args.max_n, jobs=args.jobs)
    mismatches = [
        {"lambda": m.lam, "k": m.k, "expected": str(m.expected), "got": str(m.got)}
        for m in report.mismatches
    ]
    record = {"n_max": report.n_max, "checks_run": report.checks_run, "mismatches": mismatches}
    return {"report": record}


def _text(record: dict[str, object]) -> Iterable[str]:
    """One member per line for a record with ``members`` (one blank line
    when there are none), else its last value."""
    if "members" in record:
        return map(str, record["members"]) if record["members"] else [""]
    last = list(record.values())[-1]
    return [("true" if last else "false") if isinstance(last, bool) else str(last)]


def _rows(record: dict[str, object]) -> Iterable[list[object]]:
    """A ``partition`` column for a record with ``members``, made row by
    row, else one header row of keys over one row of values."""
    if "members" in record:
        return chain([["partition"]], ([str(p)] for p in record["members"]))
    # csv writes None as an empty field.
    return [list(record), [str(v) if isinstance(v, Partition) else v for v in record.values()]]


def _commute_text(record: dict[str, object]) -> list[str]:
    lines = ["commutes: " + ("true" if record["commutes"] else "false")]
    return lines if record["witness"] is None else lines + [f"witness: {record['witness']}"]


def _verify_text(record: dict[str, object]) -> list[str]:
    report = record["report"]
    lines = [f"checks run: {report['checks_run']}", f"mismatches: {len(report['mismatches'])}"]
    for m in report["mismatches"]:
        lines.append(f"  {m['lambda']} k={m['k']}: expected {m['expected']}, got {m['got']}")
    return lines


# One row of the command table: the help text; the input flags, in order; the
# dotted attribute of the parsed arguments that ODDMAPS_MAX_N bounds, or None
# where the command is uncapped; the function from the parsed arguments to the
# command's one record; and that record's text layout, its lines, and its CSV
# layout, its rows.
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
        text=lambda r: render_kdata(KData(r["k"], r["result"][:-1], r["result"][-1])).split("\n"),
        rows=lambda r: ([str(p) for p in row] for row in r["result"]),
    ),
    "verify": _Command(
        "cross-validate against the branching oracle", "--max-n --jobs", "max_n", _verify,
        text=_verify_text,
        # The CSV counts the mismatches; the text and JSON list them.
        rows=lambda r: _rows({**r["report"], "mismatches": len(r["report"]["mismatches"])}),
    ),
}


def _json(value: object, write: Callable[[str], object], newline: str = "\n") -> None:
    """Write ``value`` through ``write`` as ``json.dumps(value, indent=2)``
    lays it out, each partition as its list of parts, piece by piece as it
    is rendered; ``newline`` is the line break and indent before
    ``value``'s closing bracket.

    Records hold dicts with string keys, lists, tuples, partitions, ints,
    bools, None and strings. The standard encoder runs in pure Python once
    ``indent`` is set and calls a ``default`` for every partition; this
    writer joins each partition's parts in one call and leaves only keys
    and scalars to the encoder.
    """
    inner = newline + "  "
    if isinstance(value, Partition):
        parts = value.parts
        write("[" + inner + ("," + inner).join(map(str, parts)) + newline + "]" if parts else "[]")
    elif isinstance(value, (dict, list, tuple)):
        keyed = isinstance(value, dict)
        start, end = "{}" if keyed else "[]"
        sep = start + inner
        for item in value:
            write(sep + _json_scalar(item) + ": " if keyed else sep)
            _json(value[item] if keyed else item, write, inner)
            sep = "," + inner
        write(newline + end if value else start + end)
    elif value is None or isinstance(value, (str, int)):
        write(_json_scalar(value))
    else:
        raise TypeError(f"no JSON layout for {type(value).__name__}")


def _emit(args: argparse.Namespace, record: dict[str, object], command: _Command) -> None:
    """Write a command's record in the requested format to its one sink,
    the ``--out`` file or else stdout, as it is rendered.

    JSON (:func:`_json`) writes each partition as its list of parts; text
    writes the command's text layout line by line, and CSV its rows one by
    one. Only a failure to open or write ``--out`` becomes a usage error.
    """

    def write_to(sink):
        if args.format == "json":
            _json(record, sink.write)
            sink.write("\n")
        elif args.format == "csv":
            # Imported here: only a CSV render pays for the module.
            import csv

            csv.writer(sink).writerows(command.rows(record))
        else:
            for line in command.text(record):
                sink.write(line + "\n")

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as sink:
                write_to(sink)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        write_to(sys.stdout)


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


_PARSER = build_parser()


def _sweep_cap() -> int:
    """``ODDMAPS_MAX_N`` as an integer, 40 when it is unset."""
    text = os.environ.get("ODDMAPS_MAX_N", "40")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"ODDMAPS_MAX_N must be an integer, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        n = attrgetter(command.cap)(args) if command.cap else None
        if n is not None and n > (cap := _sweep_cap()):
            args.parser.error(f"n={n} exceeds the sweep cap {cap} (set ODDMAPS_MAX_N to raise it)")
        record = command.record(args)
        _emit(args, record, command)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # Imported here: only an invariant failure pays for the module.
        import shlex

        print(f"error: {exc}", file=sys.stderr)
        print(f"command: oddmaps {shlex.join(argv)}", file=sys.stderr)
        return 3
    # Only a verify report carries mismatches.
    return 1 if "report" in record and record["report"]["mismatches"] else 0


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader closed it early (``oddmaps ... | head``). The
        # null device takes the interpreter's final flush of what is still
        # buffered, which would otherwise fail again at exit on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
