"""Pinned sections: G/F bookkeeping, dimensions, lattice points, standardness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import lattice_points_sweep, small_posets, t_box
from hibi import (
    TOP,
    BudgetExceeded,
    affine_witnesses,
    build_C,
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
    witness_partition,
)
from hibi.cones import _closure, _run_count, _run_values, _section_runs
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
                    assert (_closure(c, n) is None) == (not want)
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
                assert _run_count(_section_runs(c, n)) == len(_run_values(_section_runs(c, n)))


@settings(max_examples=100, deadline=None)
@given(small_posets(max_extra=6))
def test_section_count_and_values_match_sweep_random(p):
    for c in _sections_of_both_signs(p):
        for n in (1, 2, 3):
            want = lattice_points_sweep(c, n)
            assert tuple(_run_values(_section_runs(c, n))) == want
            assert _run_count(_section_runs(c, n)) == len(want)


def test_contradictory_pins_give_an_empty_section(poset1):
    # x tied to y and to the top, w to both as well: the two ties from the
    # top to y disagree (y = 0 through x, y = -1 through w)
    c = build_C(poset1, -1, ("y", "x"))
    g0, g1 = c.g_parts
    pinned = c._replace(g_parts=(g0 | {"x"}, g1 | {"w"}))
    assert lattice_points_sweep(pinned, 1) == ()
    assert _closure(pinned, 1) is None
    assert lattice_points(pinned, 1) == ()
    assert _run_count(_section_runs(pinned, 1)) == 0


def test_closed_bounds_are_attained(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                for n in (1, 2, 3):
                    pins, d = _closure(c, n)
                    top = len(d) - 1
                    pts = _values(c, n)
                    for i, (k, off) in enumerate(pins):
                        column = [v[i] for v in pts]
                        assert min(column) == off - d[k][top]
                        assert max(column) == off + d[top][k]


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
        assert _run_count(_section_runs(c, n_ok)) == 1
        with pytest.raises(OverflowError, match="exceeds the 64-bit range"):
            _run_count(_section_runs(c, n_ok + 1))


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
