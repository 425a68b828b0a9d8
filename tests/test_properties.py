"""Property tests across representations: partitions and beta-sets, the
abacus oddness count against the core tower and the degree valuation, the
bead-slide map against hook enumeration, and the slide scan against a
recount of every slide by the degree formula."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import slides_by_recount
from oddmaps import (
    Partition,
    is_odd,
    nu2_degree,
    odd_hook_removals,
    remove_odd_hook,
)
from oddmaps.oddity import _known_odd_slides, _level
from oddmaps.partition import _bead_mask, _partition_from_mask
from oddmaps.reference import beta_set, core_tower, partition_from_beta

# Reproducible draws, and no example database written to the checkout.
reproducible = settings(derandomize=True, database=None, deadline=None)


@st.composite
def partitions(draw, max_size=60):
    parts = []
    room = draw(st.integers(0, max_size))
    while room:
        part = draw(st.integers(1, room))
        parts.append(part)
        room -= part
    return Partition(sorted(parts, reverse=True))


@st.composite
def odd_members(draw, min_size=0, max_size=63):
    level = _level(draw(st.integers(min_size, max_size)))
    return _partition_from_mask(list(level)[draw(st.integers(0, len(level) - 1))])


@reproducible
@given(partitions(), st.integers(0, 40))
@example(Partition(()), 0)
@example(Partition(()), 40)
def test_beta_set_round_trip(lam, padding):
    beta = beta_set(lam, len(lam) + padding)
    assert partition_from_beta(beta) == lam
    # The bead mask holds the same beads; the empty partition's masks are
    # 0 and 2^padding - 1.
    assert _bead_mask(lam, padding) == sum(1 << b for b in beta)
    assert _partition_from_mask(_bead_mask(lam, padding)) == lam


@reproducible
@given(st.one_of(partitions(), odd_members(max_size=60)))
def test_abacus_oddness_matches_core_tower_and_degree(lam):
    odd = is_odd(lam)
    assert odd == all(w <= 1 for w in core_tower(lam).weights)
    if lam.size:
        assert odd == (nu2_degree(lam) == 0)


@reproducible
@given(odd_members(min_size=1), st.data())
def test_remove_odd_hook_matches_hook_enumeration(lam, data):
    k = data.draw(st.integers(0, lam.size.bit_length() - 1))
    assert odd_hook_removals(lam, k) == (remove_odd_hook(lam, k),)


@reproducible
@given(odd_members(), st.integers(0, 3), st.integers(0, 6), st.booleans())
def test_odd_slides_match_a_full_recount(lam, padding, k, up):
    x = _bead_mask(lam, padding)
    step = 1 << k if up else -(1 << k)
    assert sorted(_known_odd_slides(x, lam.size, step)) == slides_by_recount(x, step)


@reproducible
@given(odd_members(40, 63), st.integers(0, 3), st.data())
def test_known_odd_slides_match_the_full_count(lam, padding, data):
    k = data.draw(st.integers(0, lam.size.bit_length() - 1))
    x = _bead_mask(lam, padding)
    step = -(1 << k)
    assert sorted(_known_odd_slides(x, lam.size, step)) == slides_by_recount(x, step)
