"""Labelings, the T^(n) tiers, minimal elements, split and truncate."""

import time

import pytest
from hypothesis import given, settings

from conftest import closure_minimal, ideal_subtraction_minimal, small_posets, t_box
from hibi import (
    InvalidPoset,
    Labeling,
    TOP,
    build_C,
    build_poset,
    enumerate_N,
    exist_witness,
    from_dict,
    generators,
    in_T,
    indicator,
    is_minimal,
    label_max,
    label_min,
    lattice_points,
    leq_T,
    qdist,
    split,
    truncate,
    zero_labeling,
)
from hibi.corpus import chain
from hibi.frobenius import h_e_ehrhart, h_e_fiber, t_piece

V1 = {"x0": -2, "w": -1, "x": -2, "z": -1, "y": 0, "v": -1}
V2 = {"x0": -3, "w": -2, "x": -2, "z": -1, "y": -1, "v": -1}
V3 = {"x0": -3, "w": -2, "x": -2, "z": -2, "y": -1, "v": -1}


@pytest.fixture(scope="module")
def vertices(poset1):
    return from_dict(poset1, V1), from_dict(poset1, V2), from_dict(poset1, V3)


def test_values_follow_canonical_order(poset1, vertices):
    v1, _, _ = vertices
    assert v1.values == (-2, -1, -2, -1, 0, -1)
    assert v1("y") == 0
    assert v1(TOP) == 0
    assert v1.degree == -2
    assert v1.as_dict() == {**V1, TOP: 0}


def test_from_dict_rejects_bad_keys(poset1):
    with pytest.raises(InvalidPoset):
        from_dict(poset1, {**V1, "nope": 3})
    with pytest.raises(ValueError):
        from_dict(poset1, {k: v for k, v in V1.items() if k != "z"})
    with pytest.raises(ValueError):
        from_dict(poset1, {**V1, TOP: 1})


def test_value_width_is_checked(poset1):
    with pytest.raises(OverflowError):
        Labeling(poset1, (2**63, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        Labeling(poset1, (0, 0))


def test_arithmetic(poset1, vertices):
    v1, v2, _ = vertices
    total = v1 + v2
    assert total.values == tuple(a + b for a, b in zip(v1.values, v2.values))
    assert (total - v2).values == v1.values
    assert (2 * v1).values == tuple(2 * a for a in v1.values)
    assert (v1 * 3 // 3).values == v1.values
    assert label_max(v1, v2).values == tuple(map(max, v1.values, v2.values))
    assert label_min(v1, v2).values == tuple(map(min, v1.values, v2.values))


def test_arithmetic_rejects_foreign_poset(poset1, poset2, vertices):
    with pytest.raises(ValueError):
        vertices[0] + zero_labeling(poset2)


def test_indicator(poset1):
    one = indicator(poset1, ("x0", "w"))
    assert one.values == (1, 1, 0, 0, 0, 0)
    with pytest.raises(InvalidPoset):
        indicator(poset1, ("nope",))


def test_zero_in_tier_zero(poset1):
    assert in_T(poset1, 0, zero_labeling(poset1))
    assert not in_T(poset1, 1, zero_labeling(poset1))


def test_known_vertices_tier_membership(poset1, vertices):
    for v in vertices:
        assert in_T(poset1, -1, v)
    assert not in_T(poset1, 1, vertices[0])


def test_tier_sums(poset1, vertices):
    v1, v2, v3 = vertices
    assert in_T(poset1, -2, v1 + v2)
    assert in_T(poset1, -3, v1 + v2 + v3)
    assert in_T(poset1, -1, label_max(v1, v2))
    assert in_T(poset1, -1, label_min(v1, v2))


def test_monoid_order(poset1, vertices):
    v1, v2, v3 = vertices
    assert not leq_T(poset1, -1, v1, v2)
    assert leq_T(poset1, -1, v1, v1)
    assert leq_T(poset1, -1, v2, v2 + zero_labeling(poset1))
    with pytest.raises(ValueError):
        leq_T(poset1, 1, v1, v2)


def test_box_contains_only_tier_members(corpus):
    for _, p in corpus:
        for n in (1, -1):
            for nu in t_box(p, n):
                assert in_T(p, n, nu)


def test_minimality_of_known_vertices(poset1, vertices):
    for v in vertices:
        assert is_minimal(poset1, -1, v)


def test_non_minimal_example(poset1, vertices):
    lifted = vertices[0] + indicator(poset1, ("x0",))
    assert in_T(poset1, -1, lifted)
    assert not is_minimal(poset1, -1, lifted)


def test_chain_has_unique_minimal_element():
    p = chain(2)
    ranks = Labeling(p, tuple(qdist(p, 1, z, TOP) for z in p.elements))
    assert generators(p, 1) == (ranks,)
    assert is_minimal(p, 1, ranks)


def test_closure_filter_matches_ideal_subtraction(corpus):
    for name, p in corpus:
        if len(p.elements) > 6:
            continue
        for n in (1, -1, 2, -2):
            for nu in t_box(p, n):
                want = ideal_subtraction_minimal(p, n, nu.values)
                assert closure_minimal(p, n, nu.values) == want, (name, n, nu.values)
                assert is_minimal(p, n, nu) == want, (name, n, nu.values)


@settings(max_examples=40, deadline=None)
@given(small_posets(max_extra=4))
def test_closure_filter_matches_ideal_subtraction_random(p):
    for n in (1, -1):
        for nu in t_box(p, n):
            want = ideal_subtraction_minimal(p, n, nu.values)
            assert closure_minimal(p, n, nu.values) == want
            assert is_minimal(p, n, nu) == want


@settings(max_examples=40, deadline=None)
@given(small_posets(max_extra=6))
def test_is_minimal_matches_down_set_scan(p):
    for n in (0, 1, -1, 2, -2):
        for nu in t_box(p, n):
            assert is_minimal(p, n, nu) == ideal_subtraction_minimal(p, n, nu.values)


def test_is_minimal_wide_fan_is_fast():
    """18 incomparable leaves have 2^18 down-sets; the closure search lists none."""
    leaves = tuple(f"e{i}" for i in range(1, 19))
    p = build_poset(("x0",) + leaves, tuple(("x0", z) for z in leaves), "x0")
    gens = generators(p, -1)
    lifted = gens[0] + indicator(p, ("x0",))
    start = time.perf_counter()
    assert all(is_minimal(p, -1, nu) for nu in gens)
    assert not is_minimal(p, -1, lifted)
    assert time.perf_counter() - start < 0.5


def test_anticanonical_generators_p1(poset1, vertices):
    v1, v2, v3 = vertices
    assert generators(poset1, -1) == (v3, v2, v1)
    assert sorted(nu.degree for nu in generators(poset1, -1)) == [-3, -3, -2]


def test_generators_at_zero(poset1):
    assert generators(poset1, 0) == (zero_labeling(poset1),)


def test_generators_are_box_members(corpus):
    for _, p in corpus:
        for n in (1, -1, 2):
            box = set(t_box(p, n))
            for nu in generators(p, n):
                assert nu in box


def test_split_needs_wide_tier(poset1, vertices):
    with pytest.raises(ValueError):
        split(poset1, vertices[0], -1)
    with pytest.raises(ValueError):
        split(poset1, vertices[0], 2)


def test_split_members_of_minus_two(poset1):
    for nu in generators(poset1, -2):
        lhs, rhs = split(poset1, nu, -2)
        assert in_T(poset1, -1, lhs)
        assert in_T(poset1, -1, rhs)
        assert (lhs + rhs).values == nu.values


def test_iterated_split_reaches_tier_one(poset1):
    for nu in generators(poset1, 3):
        parts = []
        rest, n = nu, 3
        while n > 1:
            part, rest = split(poset1, rest, n)
            parts.append(part)
            n -= 1
        parts.append(rest)
        assert len(parts) == 3
        assert all(in_T(poset1, 1, part) for part in parts)
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        assert total.values == nu.values


def test_truncate_frozen_step(poset1, vertices):
    v1, v2, v3 = vertices
    assert truncate(poset1, v2, -1, 1) == v3
    assert truncate(poset1, v2, -1, 1).degree == -3


def test_truncate_requires_minimal_input(poset1, vertices):
    lifted = vertices[0] - indicator(poset1, ("x0",))
    with pytest.raises(ValueError):
        truncate(poset1, lifted, -1, 1)
    with pytest.raises(ValueError):
        truncate(poset1, vertices[0], -1, 0)


def test_truncate_clamps_at_distance_floor(poset1, vertices):
    deep = truncate(poset1, vertices[0], -1, 9)
    assert deep.values == tuple(qdist(poset1, -1, z, TOP) for z in poset1.elements)
    assert is_minimal(poset1, -1, deep)


def test_truncate_preserves_minimality(poset1):
    for n in (1, -1, 2, -2):
        for nu in generators(poset1, n):
            for k in (1, 2, 3):
                assert is_minimal(poset1, n, truncate(poset1, nu, n, k))


def test_exist_witness_hits_exact_gap(poset1):
    w = exist_witness(poset1, -1, "z", "y")
    assert in_T(poset1, -1, w)
    assert w("z") - w("y") == -1
    w = exist_witness(poset1, 3, "x0", "w")
    assert in_T(poset1, 3, w)
    assert w("x0") - w("w") == 3


def test_exist_witness_top_cover():
    p = chain(2)
    w = exist_witness(p, 1, "a2", TOP)
    assert in_T(p, 1, w)
    assert w("a2") == 1


def test_exist_witness_rejects_non_cover(poset1):
    with pytest.raises(InvalidPoset):
        exist_witness(poset1, 1, "x0", "y")


@settings(max_examples=30, deadline=None)
@given(small_posets(max_extra=4))
def test_generators_random_posets(p):
    for n in (1, -1):
        gens = generators(p, n)
        assert gens
        for nu in gens:
            assert in_T(p, n, nu)
            assert is_minimal(p, n, nu)


def _assert_validated(p, built):
    for nu in built:
        checked = Labeling(p, nu.values)
        assert type(nu) is Labeling
        assert nu == checked and hash(nu) == hash(checked) and repr(nu) == repr(checked)
        assert nu.poset is p and type(nu.values) is tuple


def test_kernel_labelings_equal_validated_ones(corpus):
    for _, p in corpus:
        for n in (1, -1, 2, -2):
            _assert_validated(p, generators(p, n))
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                for n in (1, 2):
                    _assert_validated(p, lattice_points(c, n))
                _assert_validated(p, h_e_ehrhart(c, 2, 2))
        _assert_validated(p, t_piece(p, 3, 1))
        _assert_validated(p, h_e_fiber(p, 2, 2))
