"""Poset construction, chain distances, down-sets, purity, owned data."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chain_lengths_dfs,
    downsets_powerset,
    reduced_covers_pairwise,
    small_posets,
)
from hibi import (
    InvalidPoset,
    TOP,
    analytic_spread,
    build_C,
    build_poset,
    c_e_fiber,
    dist,
    enumerate_N,
    generators,
    is_minimal,
    is_pure,
    p_nonmax,
    p_nonmin,
    poset_ideals,
    qdist,
)
from hibi.cones import ConeSection, _sections
from hibi.corpus import antichain, chain, p1
from hibi.poset import Poset


def test_build_rejects_duplicate_ids():
    with pytest.raises(InvalidPoset):
        build_poset(("x0", "a", "a"), (("x0", "a"),), "x0")


def test_build_rejects_reserved_top_id():
    with pytest.raises(InvalidPoset):
        build_poset(("x0", TOP), (("x0", TOP),), "x0")


def test_build_rejects_unknown_cover_endpoint():
    with pytest.raises(InvalidPoset):
        build_poset(("x0", "a"), (("x0", "b"),), "x0")


def test_build_rejects_self_loop():
    with pytest.raises(InvalidPoset):
        build_poset(("x0", "a"), (("a", "a"),), "x0")


def test_build_rejects_cycle():
    with pytest.raises(InvalidPoset):
        build_poset(("x0", "a", "b"), (("x0", "a"), ("a", "b"), ("b", "a")), "x0")


def test_build_rejects_non_minimum_bottom():
    with pytest.raises(InvalidPoset):
        build_poset(("x0", "a", "b"), (("x0", "a"),), "x0")


def test_build_rejects_missing_bottom():
    with pytest.raises(InvalidPoset):
        build_poset(("a", "b"), (("a", "b"),), "x0")


def test_transitive_cover_is_dropped():
    p = build_poset(("x0", "a", "b"), (("x0", "a"), ("a", "b"), ("x0", "b")), "x0")
    assert p.covers == frozenset({("x0", "a"), ("a", "b")})


@settings(max_examples=100)
@given(small_posets(max_extra=7), st.data())
def test_cover_filter_matches_pairwise_oracle(p, data):
    comparable = sorted(
        (a, b) for a in p.elements for b in p.elements if a != b and p.leq(a, b)
    )
    extra = data.draw(st.lists(st.sampled_from(comparable), unique=True))
    covers = data.draw(st.permutations(sorted(p.covers) + extra))
    q = build_poset(p.elements, covers, p.bottom)
    assert q.covers == reduced_covers_pairwise(p.elements, covers) == p.covers


def test_cover_filter_on_corpus_with_every_comparable_pair(corpus):
    for _, p in corpus:
        covers = [(a, b) for a in p.elements for b in p.elements if a != b and p.leq(a, b)]
        assert build_poset(p.elements, covers, p.bottom).covers == p.covers
        assert reduced_covers_pairwise(p.elements, covers) == p.covers


def test_element_order_is_stable(poset1):
    assert poset1.elements == ("x0", "w", "x", "z", "y", "v")


def test_up_covers_of_maximal_point_to_top(poset1):
    assert poset1.up_covers["y"] == (TOP,)
    assert poset1.up_covers["v"] == (TOP,)
    assert set(poset1.maximal_elements()) == {"y", "v"}


def test_interval(poset1):
    assert set(poset1.interval("x0", "y")) == {"x0", "w", "x", "z", "y"}
    assert poset1.interval("x", "v") == ("x", "v")


def test_leq_reflexive_and_top(poset1):
    assert poset1.leq("x", "x")
    assert poset1.leq("x0", TOP)
    assert not poset1.leq("y", "v")


def test_dist_p1(poset1):
    assert dist(poset1, "x0", TOP) == 3
    assert dist(poset1, "x0", "y") == 2
    assert dist(poset1, "z", TOP) == 2


def test_qdist_p1(poset1):
    assert qdist(poset1, 1, "x0", TOP) == 4
    assert qdist(poset1, -1, "x0", TOP) == -3
    assert qdist(poset1, 2, "x0", TOP) == 8
    assert qdist(poset1, -2, "x0", TOP) == -6
    assert qdist(poset1, 0, "x0", TOP) == 0


def test_qdist_rejects_incomparable(poset1):
    with pytest.raises(InvalidPoset):
        qdist(poset1, 1, "y", "v")
    with pytest.raises(InvalidPoset):
        dist(poset1, "y", "x0")


def test_dist_matches_chain_oracle(corpus):
    for _, p in corpus:
        elems = p.elements + (TOP,)
        for x in elems:
            for y in elems:
                if not (x != TOP and p.leq(x, y)) and x != y:
                    continue
                lengths = chain_lengths_dfs(p, x, y)
                assert dist(p, x, y) == min(lengths)
                for n in (-2, -1, 0, 1, 2):
                    want = n * (max(lengths) if n >= 0 else min(lengths))
                    assert qdist(p, n, x, y) == want


@settings(max_examples=60)
@given(small_posets())
def test_dist_matches_chain_oracle_random(p):
    for x in p.plus_elements:
        for y in p.plus_elements:
            lengths = chain_lengths_dfs(p, x, y)
            assert p.leq(x, y) == bool(lengths)
            if not lengths:
                continue
            assert dist(p, x, y) == min(lengths)
            for n in (-2, -1, 0, 1, 2):
                assert qdist(p, n, x, y) == n * (max(lengths) if n >= 0 else min(lengths))


def test_ideals_two_chain():
    p = chain(1)
    assert poset_ideals(p) == (frozenset({"x0"}), frozenset({"x0", "a1"}))


def test_ideals_of_a_long_chain_do_not_recurse():
    # chain(1100) has 1101 elements, and each of them tops one down-set
    assert len(poset_ideals(chain(1100))) == 1101


def test_ideals_antichain_pair():
    assert len(poset_ideals(antichain(2))) == 4


def test_ideals_match_powerset_oracle(corpus):
    for name, p in corpus:
        if len(p.elements) > 7:
            continue
        assert set(poset_ideals(p)) == downsets_powerset(p), name


@settings(max_examples=40)
@given(small_posets())
def test_ideals_match_powerset_oracle_random(p):
    ideals = poset_ideals(p)
    assert set(ideals) == downsets_powerset(p)
    assert all(p.bottom in s for s in ideals)
    sizes = [len(s) for s in ideals]
    assert sizes == sorted(sizes)


def test_is_pure(poset1, poset2, poset3):
    assert not is_pure(poset1)
    assert not is_pure(poset2)
    assert not is_pure(poset3)
    assert is_pure(chain(3))
    assert is_pure(antichain(3))


def test_nonmax_nonmin_p1(poset1):
    assert p_nonmax(poset1) == frozenset({"w", "v"})
    assert p_nonmin(poset1) == frozenset({"z"})


def test_nonmax_nonmin_empty_on_chain():
    p = chain(3)
    assert p_nonmax(p) == frozenset()
    assert p_nonmin(p) == frozenset()


def test_nonmax_nonmin_disjoint_on_corpus(corpus):
    for _, p in corpus:
        assert not (p_nonmax(p) & p_nonmin(p)) or not is_pure(p)
        if is_pure(p):
            assert p_nonmax(p) == frozenset()
            assert p_nonmin(p) == frozenset()


def test_dropped_poset_is_collected_with_its_data():
    # P1 under ids no other test uses, so that no other live poset matches
    rename = {z: f"dropped-{z}" for z in p1().elements}
    covers = [(rename[a], rename[b]) for a, b in p1().covers]
    p = build_poset(tuple(rename.values()), covers, rename["x0"])
    assert all(enumerate_N(p, eps) for eps in (1, -1))
    assert all(is_minimal(p, -2, nu) for nu in generators(p, -2))
    assert len(poset_ideals(p)) > 1
    assert c_e_fiber(p, 2, 2) > 0
    assert analytic_spread(p, 1) > 0
    # the sections of both signs are kept by the poset, and point back to it
    assert set(p._sections) == {1, -1}
    assert all(c.poset is p for eps in (1, -1) for c in p._sections[eps])
    ids = frozenset(p.elements)
    del p
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, Poset) and set(o.elements) == ids]
    assert not [
        o for o in gc.get_objects() if isinstance(o, ConeSection) and set(o.poset.elements) == ids
    ]


def test_poset_keeps_the_sections_of_its_reduced_sequences(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            sections = _sections(p, eps)
            assert sections == tuple(build_C(p, eps, seq) for seq in enumerate_N(p, eps))
            assert _sections(p, eps) is sections
    with pytest.raises(ValueError):
        _sections(p1(), 2)
