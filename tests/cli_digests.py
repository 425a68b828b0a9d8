"""CLI identity digests: one SHA-256 per (command, format, n) over every
command line this sweep makes for that command at n, for n <= 24.

Each command line runs in process through ``oddmaps.cli.main`` and adds
its text, exit code, stdout and stderr to its digest, so a digest pins the
bytes of every answer, layout and error message. Per n the sweep runs:

- ``odd-list --n n``;
- ``fk`` on every odd partition of n at every k with 2^k <= n;
- ``fiber`` on every odd mu of n - 2^k at every such k;
- ``image`` and ``surjective`` at every such k;
- ``commute`` and ``witness`` at every such pair k, l;
- ``tower`` on every odd partition of n at every k up to one past its
  first all-empty row;
- ``verify --max-n n --jobs 1``.

Each also runs with usage errors: k and l one below and one above that
range, a partition of the wrong size, an even partition where an odd one
is needed, a malformed partition literal, ``verify --jobs 0``, and the
first command line again under ``ODDMAPS_MAX_N = n - 1``. ``COLUMNS`` is
fixed at 80, since argparse wraps its usage lines to it. ``odd-list
--format json`` also runs at n = 48, 49 and 63, past the default cap.

Write the committed file with::

    PYTHONPATH=src python tests/cli_digests.py > tests/cli_digests.txt

``tests/test_cli_digests.py`` checks the lines for n <= 12; CI compares
the whole output with the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
from collections.abc import Iterator
from pathlib import Path

from oddmaps import is_odd, odd_partitions, partitions_of
from oddmaps.cli import _COMMANDS, main

N_MAX = 24
FORMATS = ("text", "json", "csv")
# odd-list --format json far past N_MAX; the levels the benchmark emits and
# the largest level the tests build.
LARGE_ODD_LIST = (48, 49, 63)
DIGEST_FILE = Path(__file__).with_name("cli_digests.txt")


def _ks(n: int) -> range:
    """Every k with 2^k <= n, and one more on either side."""
    return range(-1, n.bit_length() + 1)


def _even(n: int) -> list[str]:
    """The literal of the first even partition of n, if n has one."""
    for lam in partitions_of(n):
        if not is_odd(lam):
            return [str(lam)]
    return []


def _command_lines(command: str, n: int) -> list[list[str]]:
    """The command lines of one command at n, without ``--format``."""
    odd = [str(lam) for lam in odd_partitions(n)]
    if command == "odd-list":
        lines = [["--n", str(n)]]
        return (lines + [["--n", "-1"], ["--n", "x"], []]) if n == 0 else lines
    if command == "fk":
        lines = [["--n", str(n), "--k", str(k), "--lambda", lam] for k in _ks(n) for lam in odd]
        bad = _even(n) + [f"[{n + 1}]", "[1,2]"]
        return lines + [["--n", str(n), "--k", "0", "--lambda", lam] for lam in bad]
    if command == "fiber":
        lines = []
        for k in _ks(n):
            m = n - (1 << k) if k >= 0 else -1
            mus = [str(mu) for mu in odd_partitions(m)] + _even(m) if m >= 0 else ["[1]"]
            lines += [["--n", str(n), "--k", str(k), "--mu", mu] for mu in mus]
        return lines + [["--n", str(n), "--k", "0", "--mu", mu] for mu in (f"[{n}]", "[1,2]")]
    if command in ("image", "surjective"):
        return [["--n", str(n), "--k", str(k)] for k in _ks(n)]
    if command in ("commute", "witness"):
        return [["--n", str(n), "--k", str(k), "--l", str(l)] for k in _ks(n) for l in _ks(n)]
    if command == "tower":
        ks = range(max(n, 1).bit_length() + 2)
        lines = [["--lambda", lam, "--k", str(k)] for lam in odd + _even(n) for k in ks]
        return lines + [["--lambda", "[1,2]", "--k", "1"]]
    if command == "verify":
        return [["--max-n", str(n), "--jobs", jobs] for jobs in ("1", "0")]
    raise ValueError(f"no command lines for {command}")


def _run(h, argv: list[str], cap: str = "40") -> None:
    """Run one command line under ``ODDMAPS_MAX_N = cap`` and add its text,
    exit code, stdout and stderr to ``h``."""
    os.environ["ODDMAPS_MAX_N"] = cap
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    line = f"ODDMAPS_MAX_N={cap} oddmaps {shlex.join(argv)}"
    h.update("\0".join((line, str(code), out.getvalue(), err.getvalue(), "")).encode())


@contextlib.contextmanager
def _environment() -> Iterator[None]:
    """Fix ``COLUMNS`` at 80 and restore it and ``ODDMAPS_MAX_N`` after."""
    saved = {name: os.environ.get(name) for name in ("COLUMNS", "ODDMAPS_MAX_N")}
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def digest_lines(n_max: int = N_MAX) -> Iterator[str]:
    """``<command> <format> <n> <sha>`` for each n <= n_max, each command of
    the CLI's table and each format."""
    with _environment():
        for n in range(n_max + 1):
            for command in _COMMANDS:
                lines = _command_lines(command, n)
                for fmt in FORMATS:
                    h = hashlib.sha256()
                    for args in lines:
                        _run(h, [command, *args, "--format", fmt])
                    _run(h, [command, *lines[0], "--format", fmt], cap=str(n - 1))
                    yield f"{command} {fmt} {n} {h.hexdigest()}"


def large_lines() -> Iterator[str]:
    """``odd-list json <n> <sha>`` for each n of ``LARGE_ODD_LIST``."""
    with _environment():
        for n in LARGE_ODD_LIST:
            h = hashlib.sha256()
            _run(h, ["odd-list", "--n", str(n), "--format", "json"], cap=str(n))
            yield f"odd-list json {n} {h.hexdigest()}"


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
    for line in large_lines():
        print(line)
