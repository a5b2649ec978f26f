"""Fiber-cone counts, analytic spreads, level and Gorenstein checks."""

import pytest
from hypothesis import given, settings

from conftest import generators_box, lattice_points_sweep, small_posets
from hibi import (
    BudgetExceeded,
    analytic_spread,
    build_C,
    degree_range,
    enumerate_N,
    fiber_cone_decomposition,
    fiber_hilbert,
    from_dict,
    generators,
    generators_via_sequences,
    is_anticanonical_level,
    is_gorenstein,
    is_level,
    is_pure,
    q0,
    q_max,
    zero_labeling,
)
from hibi.corpus import UPWARD_PURE_NAMES, antichain, builtin, chain, upward_pure
from hibi.fiber import _generator_count, _generator_runs
from hibi.poset import build_poset
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


def degree_range_box(p, n):
    """degree_range by the box route: the degrees of every box generator."""
    lo, hi = q0(p, n), q_max(p, n)
    return lo, hi, {nu.degree for nu in generators_box(p, n)} == set(range(lo, hi + 1))


def test_generator_count_matches_listing_on_corpus(corpus):
    for _, p in corpus:
        for n in (1, -1, 2, -2, 3, -3):
            count = _generator_count(p, n)
            assert count == len(generators(p, n))
            if abs(n) <= 2:
                assert count == len(generators_box(p, n))
        assert _generator_count(p, 0) == 1 == fiber_hilbert(p, -1, 0)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=5))
def test_generator_count_matches_listing_random(p):
    for n in (1, -1, 2, -2, 3, -3):
        count = _generator_count(p, n)
        assert count == len(generators(p, n))
        if abs(n) <= 2:
            assert count == len(generators_box(p, n))
            assert fiber_hilbert(p, 1 if n > 0 else -1, abs(n)) == count


def test_degree_range_matches_box_route(corpus):
    for _, p in corpus:
        for n in (1, -1, 2, -2):
            assert degree_range(p, n) == degree_range_box(p, n)


@settings(max_examples=40, deadline=None)
@given(small_posets(max_extra=5))
def test_degree_range_matches_box_route_random(p):
    for n in (1, -1, 2, -2):
        assert degree_range(p, n) == degree_range_box(p, n)


def budget_message_by_sections(p, n, limit):
    """The BudgetExceeded text of generators_via_sequences(p, n, limit), or None.

    Sections are listed whole in enumerate_N order by the sweep: a section
    with more than limit points names the dilation, and otherwise a union
    that passes limit after a section names T^(n).
    """
    eps, m = (1 if n > 0 else -1), abs(n)
    union = set()
    for seq in enumerate_N(p, eps):
        points = lattice_points_sweep(build_C(p, eps, seq), m)
        if len(points) > limit:
            return f"dilation {m} has more than {limit} lattice points"
        union.update(points)
        if len(union) > limit:
            return f"T^({n}) has more than {limit} minimal elements"
    return None


def _poset_of(text):
    """A rooted poset from covers written "x0<a a<b ..."."""
    covers = tuple(tuple(pair.split("<")) for pair in text.split())
    names = sorted({z for pair in covers for z in pair} - {"x0"})
    return build_poset(("x0", *names), covers, "x0")


# On this poset a section at n = -2 passes a limit of 15 distinct points
# before its own size does, and its size passes 15 later on.
LATE_SECTION_OVERFLOW = "x0<e0 x0<e2 e0<e1 e1<e3 e1<e5 e2<e3 e3<e4 e4<e6"


def test_budget_messages_follow_the_sections(corpus, poset2):
    cases = [(poset2, -2, limit) for limit in range(0, 120, 3)]
    cases += [(p, n, limit) for _, p in corpus for n in (-2, 2) for limit in (0, 1, 4, 9)]
    late = _poset_of(LATE_SECTION_OVERFLOW)
    cases += [(late, n, limit) for n in (-1, -2) for limit in range(len(generators(late, n)))]
    assert budget_message_by_sections(late, -2, 15).startswith("dilation 2 ")
    for p, n, limit in cases:
        want = budget_message_by_sections(p, n, limit)
        if want is None:
            assert len(generators_via_sequences(p, n, limit=limit)) <= limit
        else:
            with pytest.raises(BudgetExceeded) as info:
                generators_via_sequences(p, n, limit=limit)
            assert str(info.value) == want


def test_counts_overflow_like_the_listing():
    # chain3's one point at n * (-4, -3, -2, -1) leaves the 64-bit range here
    p, m = chain(3), 2305843009213693953
    text = "labeling value -9223372036854775812 exceeds the 64-bit range"
    for count in (lambda: fiber_hilbert(p, -1, m), lambda: generators(p, -m)):
        with pytest.raises(OverflowError) as info:
            count()
        assert str(info.value) == text
    assert fiber_hilbert(p, -1, m - 1) == 1


# Rooted posets, found by a seeded search, on which a section's run is
# covered by an earlier section at some steps only, or moves two coordinates.
OVERLAP_COVERS = (
    "x0<e0 x0<e3 e0<e1 e0<e2 e0<e5 e1<e4 e1<e6 e2<e6 e3<e5 e4<e7 e4<e8 e5<e7 e5<e8",
    "x0<e0 x0<e2 e0<e1 e0<e5 e1<e3 e1<e4 e1<e7 e2<e4 e2<e6 e3<e8 e4<e8 e5<e6 e5<e8",
    "x0<e0 x0<e2 e0<e1 e0<e7 e1<e5 e1<e6 e2<e3 e2<e5 e3<e4 e3<e7 e4<e6",
)


def test_partly_covered_runs_match_the_box_route():
    partial = moving_two = 0
    for p in map(_poset_of, OVERLAP_COVERS):
        for n in (1, -1, 2, -2):
            runs = list(_generator_runs(p, n))
            partial += sum(0 < len(covered) < length for _, _, length, covered in runs)
            moving_two += sum(len(moving) == 2 for _, moving, _, _ in runs)
            box = generators_box(p, n)
            assert generators(p, n) == box
            assert _generator_count(p, n) == len(box)
            for limit in range(0, len(box) + 2, max(1, len(box) // 7)):
                want = budget_message_by_sections(p, n, limit)
                if want is None:
                    assert len(generators_via_sequences(p, n, limit=limit)) == len(box)
                else:
                    with pytest.raises(BudgetExceeded) as info:
                        generators_via_sequences(p, n, limit=limit)
                    assert str(info.value) == want
    assert partial > 0 and moving_two > 0
