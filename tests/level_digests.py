"""Answer-identity digests: one SHA-256 per level of the odd enumeration,
per level table of the removal map f_k, per level of fibers and of image
misses, and per commute verdict and constructed witness, for n <= 63.

Each digest is taken over a canonical text form, one line per item in
enumeration order: a partition is its parts joined by commas, a table row
is the partition and its image separated by a space, and a fiber row is
mu followed by its members, each after a space. A verdict is ``True`` or
``False`` and its witness, if any, after a space. A refactor that changes
any line of the output changes an answer.

Write the committed file with::

    PYTHONPATH=src python tests/level_digests.py > tests/level_digests.txt

``tests/test_level_digests.py`` checks the lines for n <= 28; CI compares
the whole output with the file.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from pathlib import Path
from unittest import mock

from oddmaps import (
    CommuteInstance,
    commute_verdict,
    counterexample_witness,
    fiber,
    image_misses,
    odd_partitions,
    predicted_commute,
)
from oddmaps import maps

N_MAX = 63
DIGEST_FILE = Path(__file__).with_name("level_digests.txt")


def _text(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def _sha256(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _level_lines(n: int, images) -> Iterator[str]:
    yield f"odd_partitions {n} {_sha256(_text(lam.parts) for lam in odd_partitions(n))}"
    for k in range(n.bit_length()):
        rows = (f"{_text(lam.parts)} {_text(mu.parts)}" for lam, mu in images(n, k).items())
        yield f"images {n} {k} {_sha256(rows)}"
    for k in range(n.bit_length()):
        rows = (
            " ".join(_text(p.parts) for p in (mu, *fiber(mu, n, k).members))
            for mu in odd_partitions(n - (1 << k))
        )
        yield f"fibers {n} {k} {_sha256(rows)}"
    for k in range(n.bit_length()):
        if 1 << k == n:
            break
        yield f"image_misses {n} {k} {_sha256(_text(mu.parts) for mu in image_misses(n, k))}"
    for l in range(1, n.bit_length()):
        for k in range(l):
            if (1 << k) + (1 << l) > n:
                continue
            inst = CommuteInstance(n, k, l)
            verdict = commute_verdict(inst)
            line = str(verdict.commutes)
            if verdict.witness is not None:
                line += f" {_text(verdict.witness.parts)}"
            yield f"commute {n} {k} {l} {_sha256([line])}"
            if not predicted_commute(inst):
                witness = counterexample_witness(inst)
                yield f"witness {n} {k} {l} {_sha256([_text(witness.parts)])}"


def digest_lines(n_max: int = N_MAX) -> Iterator[str]:
    """For each n <= n_max: ``odd_partitions n``, then ``images n k`` and
    ``fibers n k`` for each 2^k <= n, ``image_misses n k`` for each
    2^k < n, and ``commute n k l`` (with ``witness n k l`` where the
    criterion predicts disagreement) for each instance (n; k, l), each
    line ending in its digest."""
    # The table cache of maps._images is unbounded; kept, the tables to
    # n = 63 would hold about 350 MB. Here level n reads the tables of
    # level n and, through commute_verdict, of levels n - 2^i, so a level's
    # tables are released once no later level lies a power of two above it.
    # Each image is swapped for the equal partition odd_partitions holds.
    tables: dict[tuple[int, int], dict] = {}
    build = maps._images.__wrapped__

    def images(n: int, k: int) -> dict:
        if (n, k) not in tables:
            level = odd_partitions(n - (1 << k))
            held = dict(zip(level, level))
            tables[n, k] = {lam: held[mu] for lam, mu in build(n, k).items()}
        return tables[n, k]

    with mock.patch.object(maps, "_images", images):
        for n in range(n_max + 1):
            yield from _level_lines(n, images)
            for m, k in list(tables):
                if not any(n < m + (1 << i) <= n_max for i in range(n_max.bit_length())):
                    del tables[m, k]


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
