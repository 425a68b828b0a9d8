"""Hook, core and quotient combinatorics of odd symmetric-group characters.

The package computes the odd-hook removal maps on odd partitions and
verifies their classification (images, fiber sizes, surjectivity,
commutativity) exhaustively against an independent branching-parity
oracle. See the ``oddmaps`` CLI for the command-line surface.

The package root exports the objects and maps the paper is about, the
references that check them, and ``cross_validate``. Everything else,
such as the quotient tables, the oracle's parts and the other reference
routes (hook enumeration, the core tower), is imported from its submodule.
The four reference routes the root exports load ``reference`` only when
one is first read (PEP 562), so importing the package or its command line
does not pay for them.
"""

from .maps import (
    CommuteInstance,
    commute_verdict,
    counterexample_witness,
    fiber,
    fiber_size_formula,
    image_misses,
    is_surjective,
    predicted_commute,
    remove_odd_hook,
)
from .oddity import dnk, is_odd, odd_partitions
from .oracle import cross_validate
from .partition import Partition, partitions_of
from .quotient import k_data

__version__ = "0.1.0"

__all__ = [
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
]

_REFERENCE = (
    "nu2_degree",
    "odd_hook_removals",
    "odd_partitions_by_filter",
    "remove_odd_hook_via_tower",
)


def __getattr__(name: str) -> object:
    if name in _REFERENCE:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
