"""Pinned sections: G/F bookkeeping, dimensions, lattice points, standardness."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import hibi.cones
from conftest import (
    affine_witnesses,
    dilation_fresh,
    lattice_points_sweep,
    run_count,
    small_posets,
    standard_by_tuples,
    t_box,
    witness_partition,
)
from hibi import (
    TOP,
    BudgetExceeded,
    build_C,
    build_poset,
    dim_bruteforce,
    dim_formula,
    ehrhart_counts,
    enumerate_N,
    from_dict,
    is_minimal,
    is_standard,
    lattice_points,
    p_nonmax,
    p_nonmin,
)
from hibi.cones import (
    _dilation,
    _meet,
    _point_count,
    _rank,
    _run_values,
    _section_runs,
    _sections,
    _tight_pairs,
)
from hibi.corpus import chain
from hibi.labelings import INT64_MAX, INT64_MIN
from test_labelings import V1, V2, V3


def affine_rank(points):
    """Dimension of the affine hull, by exact Gaussian elimination."""
    if len(points) < 2:
        return 0
    base = points[0]
    rows = [[Fraction(a - b) for a, b in zip(pt, base)] for pt in points[1:]]
    rank, col = 0, 0
    width = len(base)
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def section_points_direct(c, n):
    """Integer points of the n-fold dilation, by box filtering on equalities."""
    return [
        nu
        for nu in t_box(c.poset, n * c.epsilon)
        if all(nu(x) - nu(y) == n * q for x, y, q in c.equalities)
    ]


def test_build_rejects_unreduced(poset1):
    with pytest.raises(ValueError):
        build_C(poset1, 1, ("y", "x"))
    with pytest.raises(ValueError):
        build_C(poset1, -2, ())


def test_g_and_f_sets_p1(poset1):
    c = build_C(poset1, -1, ("y", "x"))
    assert c.g_set - {TOP} == frozenset({"x0", "w", "y", "x", "v"})
    assert c.g_parts == (frozenset({"x0", "w", "y"}), frozenset({"x", "v", TOP}))
    assert c.f_set == frozenset({"z"})
    c0 = build_C(poset1, -1, ())
    assert c0.f_set == frozenset({"z"})


def test_f_sets_p2(poset2):
    cases = {
        ("y0", "x1", "y1", "x2"): {"z1", "z2"},
        ("y0", "x1"): {"z1", "z2", "x2", "w2"},
        ("y1", "x2"): {"w1", "y0", "z1", "z2"},
        (): {"z1", "z2"},
    }
    for seq, f in cases.items():
        assert build_C(poset2, -1, seq).f_set == frozenset(f)


def test_f_sets_p3(poset3):
    assert build_C(poset3, -1, ("y0", "x1", "y1", "x2")).f_set == frozenset({"z1", "z3"})
    assert build_C(poset3, -1, ()).f_set == frozenset({"z1", "z2", "z3", "x1", "y1"})


def test_g_parts_cover_g_set(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                assert frozenset().union(*c.g_parts) == c.g_set
                assert c.f_set == frozenset(p.elements) - c.g_set


def test_dims_p1(poset1):
    assert dim_formula(build_C(poset1, -1, ())) == 1
    assert dim_formula(build_C(poset1, -1, ("y", "x"))) == 2


def test_dims_p2(poset2):
    dims = {
        (): 2,
        ("y0", "x1"): 5,
        ("y1", "x2"): 5,
        ("y0", "x1", "y1", "x2"): 4,
    }
    for seq, d in dims.items():
        assert dim_formula(build_C(poset2, -1, seq)) == d


def test_dims_p3(poset3):
    assert dim_formula(build_C(poset3, -1, ())) == 5
    assert dim_formula(build_C(poset3, -1, ("y0", "x1", "y1", "x2"))) == 4


def test_empty_seq_dim_counts_off_chain_elements(corpus):
    for _, p in corpus:
        assert dim_formula(build_C(p, 1, ())) == len(p_nonmax(p))
        assert dim_formula(build_C(p, -1, ())) == len(p_nonmin(p))


def test_formula_matches_bruteforce(poset1, poset2, poset3):
    for p in (poset1, poset2, poset3):
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                assert dim_formula(c) == dim_bruteforce(c)


def _sections_agree(p):
    for eps in (1, -1):
        for c in _sections(p, eps):
            points = [nu.values for nu in lattice_points(c, 1)]
            assert dim_bruteforce(c) == affine_rank(points), (eps, c.seq)


def test_integer_rank_matches_the_fraction_rank_on_corpus(corpus):
    for _, p in corpus:
        _sections_agree(p)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_integer_rank_matches_the_fraction_rank_random(p):
    _sections_agree(p)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda w: st.lists(st.lists(st.integers(-4, 4), min_size=w, max_size=w), max_size=9)
    )
)
# a row with 0 under a pivot must still be scaled, or a later division is inexact
@example([[1, 2, -1, -2, -1, 1], [0, 0, 0, 1, 2, 0], [-2, 1, -2, 0, 0, 1],
          [-1, 2, 0, 0, 2, 1], [-1, 0, 1, 0, 2, 0], [-1, -2, -2, 1, 2, 2]])
def test_integer_rank_matches_the_fraction_rank_on_drawn_rows(rows):
    # rank-deficient rows and zero columns exercise the skipped pivots
    assert _rank([list(r) for r in rows]) == affine_rank([[0] * len(rows[0])] + rows if rows else [])


def test_single_point_section():
    c = build_C(chain(2), 1, ())
    assert dim_formula(c) == 0
    assert dim_bruteforce(c) == 0
    assert len(lattice_points(c, 1)) == 1
    assert len(lattice_points(c, 5)) == 1


def test_lattice_points_p1(poset1):
    v1, v2, v3 = (from_dict(poset1, d) for d in (V1, V2, V3))
    c = build_C(poset1, -1, ("y", "x"))
    assert set(lattice_points(c, 1)) == {v1, v2, v3}
    c0 = build_C(poset1, -1, ())
    assert set(lattice_points(c0, 1)) == {v2, v3}


def test_lattice_points_are_minimal(poset1, poset2):
    for p in (poset1, poset2):
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                for n in (1, 2):
                    for nu in lattice_points(c, n):
                        assert is_minimal(p, n * eps, nu)


def test_lattice_points_match_direct_enumeration(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                for n in (1, 2):
                    assert set(lattice_points(c, n)) == set(section_points_direct(c, n))


def test_lattice_points_limit_is_exact(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                for n in (1, 3):
                    pts = lattice_points(c, n)
                    assert lattice_points(c, n, limit=len(pts)) == pts
                    with pytest.raises(BudgetExceeded):
                        lattice_points(c, n, limit=len(pts) - 1)


def test_lattice_points_limit_inside_a_batched_row(poset1):
    # one free coordinate: the whole dilation is a single batched row
    c = build_C(poset1, -1, ())
    pts = lattice_points(c, 4)
    assert len(pts) == 5
    assert lattice_points(c, 4, limit=5) == pts
    for limit in range(5):
        with pytest.raises(BudgetExceeded, match="dilation 4 has more than"):
            lattice_points(c, 4, limit=limit)


def _values(c, n):
    return tuple(nu.values for nu in lattice_points(c, n))


def test_closed_kernel_matches_sweep_on_corpus(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                for n in range(1, 6):
                    assert _values(c, n) == lattice_points_sweep(c, n)


@settings(max_examples=150, deadline=None)
@given(small_posets(max_extra=7))
def test_closed_kernel_matches_sweep_random(p):
    for eps in (1, -1):
        for seq in enumerate_N(p, eps):
            c = build_C(p, eps, seq)
            for n in (1, 2, 3):
                assert _values(c, n) == lattice_points_sweep(c, n)


def test_closed_kernel_matches_sweep_on_sections_of_the_other_sign(corpus):
    # G parts built for eps pin coordinates the -eps cover gaps may not
    # allow, so some of these sections are empty
    empty = 0
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)._replace(epsilon=-eps)
                for n in (1, 2):
                    want = lattice_points_sweep(c, n)
                    assert _values(c, n) == want
                    assert (_dilation(c, n) is None) == (not want)
                    empty += not want
    assert empty > 0


def _sections_of_both_signs(p):
    """Each reduced sequence's section, and the same section with the other sign."""
    for eps in (1, -1):
        for seq in enumerate_N(p, eps):
            c = build_C(p, eps, seq)
            yield c
            yield c._replace(epsilon=-eps)


def test_section_count_matches_listing_on_corpus(corpus):
    for _, p in corpus:
        for c in _sections_of_both_signs(p):
            for n in (1, 2, 3):
                runs = list(_section_runs(c, n))
                assert _point_count(c, n) == run_count(runs) == len(_run_values(runs))


@settings(max_examples=100, deadline=None)
@given(small_posets(max_extra=6))
def test_section_count_and_values_match_sweep_random(p):
    for c in _sections_of_both_signs(p):
        for n in (1, 2, 3):
            want = lattice_points_sweep(c, n)
            runs = list(_section_runs(c, n))
            assert tuple(_run_values(runs)) == want
            assert _point_count(c, n) == run_count(runs) == len(want)


def _meet_by_filtering(a, b, n):
    """The points of section a at dilation n that section b also has, in a's order."""
    points_b = set(lattice_points(b, n))
    return tuple(nu for nu in lattice_points(a, n) if nu in points_b)


def test_meet_lists_the_common_points_on_corpus(corpus):
    proper = 0
    for _, p in corpus:
        for eps in (1, -1):
            sections = [build_C(p, eps, seq) for seq in enumerate_N(p, eps)]
            for a in sections:
                for b in sections:
                    for n in (1, 2, 3):
                        want = _meet_by_filtering(a, b, n)
                        assert lattice_points(_meet(a, b), n) == want
                        proper += len(want) < len(lattice_points(a, n))
    assert proper > 0


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=6))
def test_meet_lists_the_common_points_random(p):
    for eps in (1, -1):
        sections = [build_C(p, eps, seq) for seq in enumerate_N(p, eps)]
        for a in sections:
            for b in sections:
                for n in (1, 2):
                    assert lattice_points(_meet(a, b), n) == _meet_by_filtering(a, b, n)


def test_a_meet_whose_ties_stretch_a_cover_is_empty():
    # (e6, e1) and (e7, e3) at eps = -1 tie every coordinate to the top,
    # e8 two above e5, which only one cover step separates: no point has
    # both, and the tied class's cover check is all that finds it
    covers = [("b", "e1"), ("b", "e5"), ("e1", "e2"), ("e1", "e3"), ("e2", "e7")]
    covers += [("e3", "e4"), ("e3", "e8"), ("e4", "e6"), ("e5", "e6"), ("e5", "e8"), ("e6", "e7")]
    p = build_poset(["b"] + [f"e{i}" for i in range(1, 9)], covers, "b")
    a, b = build_C(p, -1, ("e6", "e1")), build_C(p, -1, ("e7", "e3"))
    for n in (1, 2, 3):
        assert lattice_points(a, n) and lattice_points(b, n)
        assert lattice_points(_meet(a, b), n) == _meet_by_filtering(a, b, n) == ()


def _plan_cases(p):
    """(section, earlier) pairs that cover every kind of plan the library builds.

    Each section alone and after the sections before it (the first-section
    rule), each with the other sign, and every meet of two sections.
    """
    for eps in (1, -1):
        sections = _sections(p, eps)
        for k, c in enumerate(sections):
            yield c, ()
            yield c, tuple(_tight_pairs(b) for b in sections[:k])
            yield c._replace(epsilon=-eps), ()
            for b in sections:
                yield _meet(c, b), ()


def _only_tuples(value):
    """True when value is an int, None, or a tuple built of those all the way down."""
    if isinstance(value, tuple):
        return all(map(_only_tuples, value))
    return value is None or isinstance(value, int)


def assert_plans_match_fresh_builds(p):
    checked = 0
    for c, earlier in _plan_cases(p):
        for n in (1, 2, 3, 7, 24):
            plan = _dilation(c, n, earlier)
            assert plan == dilation_fresh(c, n, earlier)
            assert _only_tuples(plan)
            checked += plan is not None
    assert checked > 0


def test_kept_plans_scale_to_fresh_builds_on_corpus(corpus):
    for _, p in corpus:
        assert_plans_match_fresh_builds(p)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=6))
def test_kept_plans_scale_to_fresh_builds_random(p):
    assert_plans_match_fresh_builds(p)


def test_a_dilation_past_64_bits_keeps_the_unit_plan():
    c = build_C(chain(3), 1, ())
    plan = _dilation(c, 1)
    with pytest.raises(OverflowError, match="labeling value 9223372036854775808 exceeds"):
        _dilation(c, INT64_MAX // 4 + 1)
    assert _dilation(c, 1) is plan
    with pytest.raises(ValueError, match="dilation must be positive"):
        _dilation(c, 0)


def test_contradictory_pins_give_an_empty_section(poset1):
    # x tied to y and to the top, w to both as well: the two ties from the
    # top to y disagree (y = 0 through x, y = -1 through w)
    c = build_C(poset1, -1, ("y", "x"))
    g0, g1 = c.g_parts
    pinned = c._replace(g_parts=(g0 | {"x"}, g1 | {"w"}))
    assert lattice_points_sweep(pinned, 1) == ()
    assert _dilation(pinned, 1) is None
    assert lattice_points(pinned, 1) == ()
    assert _point_count(pinned, 1) == 0


def test_closed_bounds_are_attained(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                for n in (1, 2, 3):
                    pts = _values(c, n)
                    for i, (lo, hi) in enumerate(_dilation(c, n).bounds):
                        column = [v[i] for v in pts]
                        assert min(column) == lo
                        assert max(column) == hi


def test_values_past_64_bits_overflow_exactly():
    # chain(3) has the single point n * (4, 3, 2, 1) for eps = 1, its negative for -1
    for eps, n_ok in ((1, INT64_MAX // 4), (-1, -(INT64_MIN // 4))):
        c = build_C(chain(3), eps, ())
        assert lattice_points(c, n_ok)[0].values[0] == eps * 4 * n_ok
        with pytest.raises(OverflowError, match="exceeds the 64-bit range"):
            lattice_points(c, n_ok + 1)


def test_section_count_overflows_like_the_listing():
    for eps, n_ok in ((1, INT64_MAX // 4), (-1, -(INT64_MIN // 4))):
        c = build_C(chain(3), eps, ())
        assert _point_count(c, n_ok) == 1
        for count in (lambda: _point_count(c, n_ok + 1), lambda: list(_section_runs(c, n_ok + 1))):
            with pytest.raises(OverflowError) as info:
                count()
            value = eps * 4 * (n_ok + 1)
            assert str(info.value) == f"labeling value {value} exceeds the 64-bit range"


def test_lattice_points_match_direct_enumeration_deeper(poset1):
    for eps in (1, -1):
        for seq in enumerate_N(poset1, eps):
            c = build_C(poset1, eps, seq)
            for n in (3, 4):
                assert set(lattice_points(c, n)) == set(section_points_direct(c, n))


def test_bruteforce_rank_of_known_vertices(poset1):
    pts = [v.values for v in lattice_points(build_C(poset1, -1, ("y", "x")), 1)]
    assert affine_rank(pts) == 2


def test_affine_witnesses_p1(poset1):
    v1, v2, v3 = (from_dict(poset1, d) for d in (V1, V2, V3))
    c = build_C(poset1, -1, ("y", "x"))
    wits = affine_witnesses(c)
    assert wits == (v3, v2, v1)
    assert affine_rank([w.values for w in wits]) == dim_formula(c)


def test_affine_witnesses_span_every_section(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                wits = affine_witnesses(c)
                assert len(wits) == len(c.f_set) + c.seq.t + 1
                assert affine_rank([w.values for w in wits]) == dim_formula(c)
                for w in wits:
                    assert w in set(lattice_points(c, 1))


def test_witness_partition_p1(poset1):
    c = build_C(poset1, -1, ("y", "x"))
    assert witness_partition(c) == (frozenset({"z"}), frozenset())
    c0 = build_C(poset1, -1, ())
    assert witness_partition(c0) == (frozenset({"z"}),)


def test_witness_partition_tiles_f(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                parts = witness_partition(c)
                assert len(parts) == c.seq.t + 1
                assert frozenset().union(*parts) == c.f_set
                assert sum(len(part) for part in parts) == len(c.f_set)


def test_standardness_p1_deep(poset1):
    assert is_standard(build_C(poset1, -1, ("y", "x")), 4)


def test_standardness_needs_depth(poset1):
    with pytest.raises(ValueError):
        is_standard(build_C(poset1, -1, ()), 1)


def _assert_standard_agrees(p):
    for eps in (1, -1):
        sections = _sections(p, eps)
        cases = list(sections) + [_meet(a, b) for a in sections for b in sections if a != b]
        for c in cases:
            for n_max in (2, 3, 4):
                assert is_standard(c, n_max) == standard_by_tuples(c, n_max), (c.seq, n_max)


def test_standardness_agrees_with_the_tuple_route_on_corpus(corpus):
    for _, p in corpus:
        _assert_standard_agrees(p)


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_standardness_agrees_with_the_tuple_route_random(p):
    _assert_standard_agrees(p)


def test_standardness_routes_agree_when_a_point_is_missing(corpus, monkeypatch):
    # with the last point of the first dilation gone, twice that point (a
    # vertex: the lexicographic maximum) splits no more, so both routes
    # must say no on every section
    real = hibi.cones._section_runs

    def short(c, n, earlier=()):
        runs = real(c, n, earlier)
        if n != 1:
            return runs
        return [(v, (), 1) for v in _run_values(runs)][:-1]

    monkeypatch.setattr(hibi.cones, "_section_runs", short)
    monkeypatch.setattr(conftest, "_section_runs", short)
    for _, p in corpus:
        for eps in (1, -1):
            for c in _sections(p, eps):
                for n_max in (2, 3):
                    assert is_standard(c, n_max) is standard_by_tuples(c, n_max) is False


def test_ehrhart_counts_p1(poset1):
    c = build_C(poset1, -1, ("y", "x"))
    assert ehrhart_counts(c, 4) == (1, 3, 6, 10, 15)


def test_ehrhart_counts_chain():
    c = build_C(chain(3), 1, ())
    assert ehrhart_counts(c, 4) == (1, 1, 1, 1, 1)


def test_ehrhart_counts_nondecreasing(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                counts = ehrhart_counts(build_C(p, eps, seq), 3)
                assert all(a <= b for a, b in zip(counts, counts[1:]))
