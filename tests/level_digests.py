"""Answer-identity digests: one SHA-256 per level of the odd enumeration
and one per level table of the removal map f_k, for n <= 63.

Each digest is taken over a canonical text form, one line per item in
enumeration order: a partition is its parts joined by commas, and a table
row is the partition and its image separated by a space. A refactor that
changes any line of the output changes an answer.

Write the committed file with::

    PYTHONPATH=src python tests/level_digests.py > tests/level_digests.txt

``tests/test_level_digests.py`` checks the lines for n <= 28; CI compares
the whole output with the file.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from pathlib import Path

from oddmaps import odd_partitions
from oddmaps.maps import _images

N_MAX = 63
DIGEST_FILE = Path(__file__).with_name("level_digests.txt")


def _text(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def _sha256(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def digest_lines(n_max: int = N_MAX) -> Iterator[str]:
    """``odd_partitions n <sha>`` for each n <= n_max, followed by
    ``images n k <sha>`` for each 2^k <= n."""
    for n in range(n_max + 1):
        yield f"odd_partitions {n} {_sha256(_text(lam.parts) for lam in odd_partitions(n))}"
        for k in range(n.bit_length()):
            rows = (f"{_text(lam.parts)} {_text(mu.parts)}" for lam, mu in _images(n, k).items())
            yield f"images {n} {k} {_sha256(rows)}"
            # The table cache is unbounded; kept, the tables to n = 63
            # would hold about 350 MB.
            _images.cache_clear()


if __name__ == "__main__":
    for line in digest_lines():
        print(line)
