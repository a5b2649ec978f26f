"""Fiber-cone counts, analytic spreads, level and Gorenstein checks."""

import pytest
from hypothesis import given, settings

from conftest import generators_box, small_posets
from hibi import (
    BudgetExceeded,
    analytic_spread,
    degree_range,
    fiber_cone_decomposition,
    fiber_hilbert,
    from_dict,
    generators,
    generators_via_sequences,
    is_anticanonical_level,
    is_gorenstein,
    is_level,
    is_pure,
    zero_labeling,
)
from hibi.corpus import UPWARD_PURE_NAMES, antichain, builtin, chain, upward_pure
from test_labelings import V1, V2, V3


def test_hilbert_p1(poset1):
    assert fiber_hilbert(poset1, -1, 0) == 1
    assert fiber_hilbert(poset1, -1, 1) == 3
    assert fiber_hilbert(poset1, -1, 2) == 6
    assert fiber_hilbert(poset1, 1, 1) == 4
    assert all(nu.degree == 4 for nu in generators(poset1, 1))


def test_hilbert_rejects_negative(poset1):
    with pytest.raises(ValueError):
        fiber_hilbert(poset1, -1, -1)


def test_hilbert_chain_is_constant():
    p = chain(3)
    for eps in (1, -1):
        for n in range(4):
            assert fiber_hilbert(p, eps, n) == 1


def test_spreads_frozen(poset1, poset2, poset3):
    assert analytic_spread(poset1, -1) == 3
    assert analytic_spread(poset2, -1) == 6
    assert analytic_spread(poset3, -1) == 6
    assert analytic_spread(poset1, 1) == 3
    assert analytic_spread(poset2, 1) == 4
    assert analytic_spread(poset3, 1) == 3


def test_spread_one_for_pure():
    assert analytic_spread(chain(4), 1) == 1
    assert analytic_spread(antichain(3), -1) == 1


def test_degree_range_p1(poset1):
    assert degree_range(poset1, -1) == (-3, -2, True)
    assert degree_range(poset1, 1) == (4, 4, True)


def test_degree_range_p2_is_wide(poset2):
    lo, hi, ok = degree_range(poset2, -1)
    assert ok
    assert hi - lo >= 1


def test_degree_range_rejects_zero(poset1):
    with pytest.raises(ValueError):
        degree_range(poset1, 0)


def test_level_flags_p1(poset1):
    assert is_level(poset1)
    assert not is_anticanonical_level(poset1)


def test_level_flags_upward_pure_family():
    for name in UPWARD_PURE_NAMES:
        p = builtin(name)
        assert upward_pure(p)
        assert is_level(p)
        assert is_anticanonical_level(p)


def test_upward_purity_is_the_right_filter(poset1, poset3):
    assert not upward_pure(poset1)
    assert not upward_pure(poset3)


def test_gorenstein_matches_purity(corpus):
    for _, p in corpus:
        assert is_gorenstein(p) == is_pure(p)
        assert is_gorenstein(p) == (len(generators(p, 1)) == 1)


def test_decomposition_p1(poset1):
    v1, v2, v3 = (from_dict(poset1, d) for d in (V1, V2, V3))
    parts = fiber_cone_decomposition(poset1, -1, 1)
    assert len(parts) == 2
    union = {nu for pts in parts.values() for nu in pts}
    assert union == {v1, v2, v3}


def test_decomposition_union_matches_generators(poset2):
    for n in (1, 2, 3):
        parts = fiber_cone_decomposition(poset2, -1, n)
        union = {nu for pts in parts.values() for nu in pts}
        assert union == set(generators_box(poset2, -n))


def test_decomposition_rejects_nonpositive(poset1):
    with pytest.raises(ValueError):
        fiber_cone_decomposition(poset1, -1, 0)


def test_sequence_route_matches_box_route(corpus):
    for _, p in corpus:
        for n in (1, -1, 2, -2):
            assert generators_via_sequences(p, n) == generators_box(p, n)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=5))
def test_sequence_route_matches_box_route_random(p):
    for n in (1, -1, 2, -2):
        assert generators(p, n) == generators_box(p, n)


def test_sequence_route_matches_box_route_on_overlapping_sections(poset2):
    sections = fiber_cone_decomposition(poset2, -1, 2)
    assert sum(len(pts) for pts in sections.values()) == 159
    full = generators(poset2, -2)
    assert len(full) == 114
    assert full == generators_box(poset2, -2)
    assert generators_via_sequences(poset2, -2, limit=len(full)) == full
    with pytest.raises(BudgetExceeded):
        generators_via_sequences(poset2, -2, limit=len(full) - 1)


def test_sequence_route_degenerate(poset1):
    assert generators_via_sequences(poset1, 0) == (zero_labeling(poset1),)


def test_generators_via_sequences_limit_counts_distinct_points(corpus):
    for _, p in corpus:
        for n in (-3, -1, 1, 2):
            full = generators_via_sequences(p, n)
            assert generators_via_sequences(p, n, limit=len(full)) == full
            with pytest.raises(BudgetExceeded):
                generators_via_sequences(p, n, limit=len(full) - 1)
