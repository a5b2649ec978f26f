"""Distributive lattices, join-irreducibles, and the ideal-lattice round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closure_systems, distributive_law, lattice_tables_scan, small_posets
from hibi import (
    NotALattice,
    NotDistributive,
    build_dist_lattice,
    build_poset,
    hibi_generators,
    in_T,
    is_distributive,
    join_irreducibles,
    lattice_from_poset,
    poset_ideals,
    poset_isomorphic,
)
from hibi.corpus import antichain, chain

DIAMOND = (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))
M3 = (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1"))
N5 = (("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1"))
BOWTIE = (("a", "b", "c", "d"), (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")))
TWO_CYCLE = (("a", "b"), (("a", "b"), ("b", "a")))


def _outcome(build, elements, pairs):
    """The tables a lattice builder returns, or the text of its NotALattice."""
    try:
        result = build(elements, pairs)
    except NotALattice as exc:
        return str(exc)
    if hasattr(result, "joins"):
        return result.order, result.joins, result.meets
    return result


def _agrees_with_oracles(elements, pairs):
    h = build_dist_lattice(elements, pairs)
    assert (h.order, h.joins, h.meets) == lattice_tables_scan(elements, pairs)
    assert is_distributive(h) == distributive_law(h)
    return h


def test_diamond_is_distributive():
    h = build_dist_lattice(("0", "a", "b", "1"), DIAMOND)
    assert is_distributive(h)
    assert h.bottom == "0"
    assert h.top == "1"
    assert h.join("a", "b") == "1"
    assert h.meet("a", "b") == "0"
    assert h.leq("0", "a")
    assert not h.leq("a", "b")


def test_m3_is_not_distributive():
    h = build_dist_lattice(("0", "a", "b", "c", "1"), M3)
    assert not is_distributive(h)
    with pytest.raises(NotDistributive):
        join_irreducibles(h)


def test_n5_is_not_distributive():
    h = build_dist_lattice(("0", "a", "b", "c", "1"), N5)
    assert not is_distributive(h)


def test_bowtie_is_not_a_lattice():
    with pytest.raises(NotALattice):
        build_dist_lattice(*BOWTIE)


def test_antisymmetry_violation():
    with pytest.raises(NotALattice):
        build_dist_lattice(*TWO_CYCLE)


@pytest.mark.parametrize("elements, pairs", [BOWTIE, TWO_CYCLE], ids=["bowtie", "2-cycle"])
def test_non_lattice_text_matches_scan_oracle(elements, pairs):
    text = _outcome(build_dist_lattice, elements, pairs)
    assert isinstance(text, str)
    assert text == _outcome(lattice_tables_scan, elements, pairs)


@pytest.mark.parametrize(
    "elements, pairs",
    [
        (("0", "a", "b", "1"), DIAMOND),
        (("0", "a", "b", "c", "1"), M3),
        (("0", "a", "b", "c", "1"), N5),
    ],
    ids=["diamond", "M3", "N5"],
)
def test_small_lattices_match_oracles(elements, pairs):
    _agrees_with_oracles(elements, pairs)


def test_corpus_ideal_lattices_match_oracles(corpus):
    for name, p in corpus:
        h = lattice_from_poset(p)
        pairs = [(a, b) for a, b in h.order if a != b]
        assert _agrees_with_oracles(h.elements, pairs) == h, name
        assert is_distributive(h), name


@settings(max_examples=150, deadline=None)
@given(closure_systems())
def test_closure_system_lattices_match_oracles(system):
    h = _agrees_with_oracles(*system)
    if is_distributive(h):
        assert len(poset_ideals(join_irreducibles(h))) == len(h.elements)
    else:
        with pytest.raises(NotDistributive):
            join_irreducibles(h)


@st.composite
def order_relations(draw):
    """Random relations on at most 6 ids: cycles, gaps and lattices alike."""
    names = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=6)))]
    ids = st.sampled_from(names)
    return names, draw(st.lists(st.tuples(ids, ids), max_size=12))


@settings(max_examples=150, deadline=None)
@given(order_relations())
def test_random_relations_fail_like_the_scan_oracle(relation):
    assert _outcome(build_dist_lattice, *relation) == _outcome(lattice_tables_scan, *relation)


def test_order_closure_is_transitive():
    h = build_dist_lattice(("0", "a", "1"), (("0", "a"), ("a", "1")))
    assert h.leq("0", "1")
    assert h.join("0", "1") == "1"


def test_ideal_lattice_of_two_chain():
    h = lattice_from_poset(chain(1))
    assert h.elements == ("{x0}", "{x0,a1}")
    assert is_distributive(h)


def test_ideal_lattice_of_antichain_pair_is_diamond():
    h = lattice_from_poset(antichain(2))
    assert len(h.elements) == 4
    assert is_distributive(h)
    free = [z for z in h.elements if z not in (h.bottom, h.top)]
    assert h.join(*free) == h.top
    assert h.meet(*free) == h.bottom


def test_ideal_lattice_size_matches_ideal_count(corpus):
    for _, p in corpus:
        h = lattice_from_poset(p)
        assert len(h.elements) == len(poset_ideals(p))
        assert is_distributive(h)


def test_join_irreducibles_of_diamond_form_antichain():
    h = build_dist_lattice(("0", "a", "b", "1"), DIAMOND)
    ji = join_irreducibles(h)
    assert poset_isomorphic(ji, antichain(2))


def test_round_trip_on_corpus(corpus):
    for name, p in corpus:
        ji = join_irreducibles(lattice_from_poset(p))
        assert poset_isomorphic(ji, p), name


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_round_trip_random(p):
    assert poset_isomorphic(join_irreducibles(lattice_from_poset(p)), p)


def test_monomial_generators_two_chain():
    gens = hibi_generators(chain(1))
    assert [g.values for g in gens] == [(1, 0), (1, 1)]


def test_monomial_generators_live_in_tier_zero(corpus):
    for _, p in corpus:
        gens = hibi_generators(p)
        assert len(gens) == len(poset_ideals(p))
        for g in gens:
            assert in_T(p, 0, g)
            assert g.degree == 1
            assert set(g.values) <= {0, 1}


def test_isomorphism_positive_relabel(poset1):
    q = build_poset(
        ("r", "s", "t", "u", "v", "w"),
        (("r", "s"), ("r", "t"), ("s", "w"), ("t", "u"), ("u", "w"), ("t", "v")),
        "r",
    )
    assert poset_isomorphic(poset1, q)
    assert poset_isomorphic(q, poset1)


def test_isomorphism_negative_same_size():
    assert not poset_isomorphic(chain(3), antichain(3))
    fork = build_poset(("x0", "a", "b", "c"), (("x0", "a"), ("a", "b"), ("a", "c")), "x0")
    assert not poset_isomorphic(fork, chain(3))


def test_isomorphism_negative_different_size(poset2, poset3):
    assert not poset_isomorphic(poset2, poset3)


def test_isomorphism_of_a_long_chain_does_not_recurse():
    assert poset_isomorphic(chain(1100), chain(1100))
