"""Answer-identity digests: one SHA-256 per level of the odd enumeration,
per level table of the removal map f_k, per level of fibers and of image
misses, and per commute verdict and constructed witness, for n <= 63.

Each digest is taken over a canonical text form, one line per item in
enumeration order: a partition is its parts joined by commas, a table row
is the partition and its image separated by a space, the image read from
its position in the level below, and a fiber row is mu followed by its
members, each after a space. A verdict is ``True`` or ``False`` and its
witness, if any, after a space. A refactor that changes any line of the
output changes an answer.

Write the committed file with::

    PYTHONPATH=src python tests/level_digests.py > tests/level_digests.txt

``tests/test_level_digests.py`` checks the lines for n <= 28; CI compares
the whole output with the file. The tables are the ones
``maps._images`` caches, held for the whole sweep with the bead masks of
each level they read (``oddity._level``); the tables hold positions, not
partitions. ``odd_partitions`` caches no decoded level, so each n decodes
its own level once and each level n - 2^k once, for both its ``images``
and its ``fibers`` line, and drops it. All of it to n = 63 takes about
19 s and 69 MB peak RSS on a 2-core Xeon.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from oddmaps import (
    CommuteInstance,
    Partition,
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


def _images_and_fibers(n: int, k: int, level: tuple[Partition, ...]) -> tuple[str, str]:
    """The ``images n k`` and ``fibers n k`` lines, both read from one
    decode of the level n - 2^k, which is dropped on return."""
    below = odd_partitions(n - (1 << k))
    rows = (f"{_text(lam.parts)} {_text(below[i].parts)}" for lam, i in zip(level, maps._images(n, k)))
    images = f"images {n} {k} {_sha256(rows)}"
    rows = (" ".join(_text(p.parts) for p in (mu, *fiber(mu, n, k).members)) for mu in below)
    return images, f"fibers {n} {k} {_sha256(rows)}"


def _level_lines(n: int) -> Iterator[str]:
    level = odd_partitions(n)
    yield f"odd_partitions {n} {_sha256(_text(lam.parts) for lam in level)}"
    lines = [_images_and_fibers(n, k, level) for k in range(n.bit_length())]
    del level
    yield from (images for images, _ in lines)
    yield from (fibers for _, fibers in lines)
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
    for n in range(n_max + 1):
        yield from _level_lines(n)


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
