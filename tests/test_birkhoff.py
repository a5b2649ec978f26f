"""Distributive lattices, join-irreducibles, and the ideal-lattice round trip."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closure_systems,
    distributive_law,
    lattice_from_ideals,
    lattice_tables,
    lattice_tables_scan,
    poset_isomorphic_pairs,
    small_posets,
)
from hibi import (
    DistLattice,
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
from hibi import birkhoff
from hibi.birkhoff import _signatures
from hibi.corpus import antichain, chain

DIAMOND = (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))
M3 = (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1"))
N5 = (("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1"))
BOWTIE = (("a", "b", "c", "d"), (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")))
TWO_CYCLE = (("a", "b"), (("a", "b"), ("b", "a")))
# a bottom, but the adjacent pair a, b has no join; every pair has a join, but no bottom
VEE = (("0", "a", "b"), (("0", "a"), ("0", "b")))
WEDGE = (("a", "b", "1"), (("a", "1"), ("b", "1")))
DUPLICATE_IDS = (("0", "a", "0"), (("0", "a"),))
NO_ELEMENTS = ((), ())
UNKNOWN_ID = (("0", "a"), (("0", "a"), ("a", "b")))
# 0 < a, b < c, d < 1: a and b have upper bounds but no least one, c and d
# lower bounds but no greatest one; the listing decides which pair fails first
BOUNDED_PAIRS = (
    ("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")
)
BOUNDED_BOWTIE = (("0", "a", "b", "c", "d", "1"), BOUNDED_PAIRS)
BOUNDED_BOWTIE_TOP_FIRST = (("c", "d", "a", "b", "0", "1"), BOUNDED_PAIRS)


def _outcome(build, elements, pairs):
    """The tables a lattice builder gives, or the text of its NotALattice."""
    try:
        result = build(elements, pairs)
    except NotALattice as exc:
        return str(exc)
    return lattice_tables(result) if isinstance(result, DistLattice) else result


def _agrees_with_oracles(elements, pairs):
    h = build_dist_lattice(elements, pairs)
    order, joins, meets = lattice_tables_scan(elements, pairs)
    assert lattice_tables(h) == (order, joins, meets)
    # join-irreducible: the join of no two elements other than itself
    reducible = {k for i, row in enumerate(joins) for j, k in enumerate(row) if k not in (i, j)}
    assert set(h._irreducibles[0]) == set(range(len(joins))) - reducible
    lows = [a for a in h.elements if all((a, b) in order for b in h.elements)]
    highs = [b for b in h.elements if all((a, b) in order for a in h.elements)]
    assert [h.bottom, h.top] == lows + highs
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
    # a failure is not kept: every call counts again and raises
    for _ in range(2):
        with pytest.raises(NotDistributive):
            join_irreducibles(h)
    assert "join_irreducibles" not in vars(h)
    # a distributive lattice keeps its poset under the function's name
    d = build_dist_lattice(("0", "a", "b", "1"), DIAMOND)
    ji = join_irreducibles(d)
    assert vars(d)["join_irreducibles"] == {(): ji}


def test_n5_is_not_distributive():
    h = build_dist_lattice(("0", "a", "b", "c", "1"), N5)
    assert not is_distributive(h)


def test_bowtie_is_not_a_lattice():
    with pytest.raises(NotALattice):
        build_dist_lattice(*BOWTIE)


def test_antisymmetry_violation():
    with pytest.raises(NotALattice):
        build_dist_lattice(*TWO_CYCLE)


@pytest.mark.parametrize(
    "elements, pairs, text",
    [
        (*BOWTIE, "'a' and 'b' have no meet"),
        (*TWO_CYCLE, "order is not antisymmetric: 'a' and 'b'"),
        (*VEE, "'a' and 'b' have no join"),
        (*WEDGE, "'a' and 'b' have no meet"),
        (*DUPLICATE_IDS, "duplicate element ids"),
        (*NO_ELEMENTS, "empty element list"),
        (*UNKNOWN_ID, "unknown id in order pair ('a', 'b')"),
        (*BOUNDED_BOWTIE, "'a' and 'b' have no join"),
        (*BOUNDED_BOWTIE_TOP_FIRST, "'c' and 'd' have no meet"),
    ],
    ids=[
        "bowtie",
        "2-cycle",
        "vee",
        "wedge",
        "duplicate ids",
        "no elements",
        "unknown id",
        "bounded bowtie",
        "bounded bowtie, upper pair first",
    ],
)
def test_non_lattice_text_matches_scan_oracle(elements, pairs, text):
    assert _outcome(build_dist_lattice, elements, pairs) == text
    assert _outcome(lattice_tables_scan, elements, pairs) == text


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
        pairs = [(a, b) for a, b in lattice_tables(h)[0] if a != b]
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


def test_mask_lattice_matches_the_frozenset_oracle_on_corpus(corpus):
    for name, p in corpus:
        assert lattice_from_poset(p) == lattice_from_ideals(p), name


@settings(max_examples=80, deadline=None)
@given(small_posets(max_extra=7))
def test_mask_lattice_matches_the_frozenset_oracle_random(p):
    assert lattice_from_poset(p) == lattice_from_ideals(p)


def test_mask_lattice_is_neither_closed_nor_validated(corpus, monkeypatch):
    calls = []
    for name in ("build_dist_lattice", "_closure"):
        real = getattr(birkhoff, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(birkhoff, name, counted)
    for name, p in corpus:
        h = lattice_from_poset(build_poset(p.elements, p.covers, p.bottom))
        assert len(h.elements) == len(poset_ideals(p)), name
    assert calls == []


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


def test_isomorphism_of_long_chains_takes_under_two_seconds():
    # the fresh chains share no cached data; a fork of the same size and
    # cover count is told apart as well
    p, q = chain.__wrapped__(1100), chain.__wrapped__(1100)
    names = p.elements[:-1]
    covers = list(zip(names, names[1:])) + [(names[-2], "b")]
    fork = build_poset(names + ("b",), covers, "x0")
    assert len(fork.elements) == len(p.elements) and len(fork.covers) == len(p.covers)
    start = time.process_time()
    assert poset_isomorphic(p, q)
    assert not poset_isomorphic(p, fork)
    assert time.process_time() - start < 2




# Covers a_i < b_j over x0 < a0..a3: one 8-cycle, the same 8-cycle with
# its a's and b's renumbered, and two 4-cycles.  Every a and every b has
# two neighbours, so the signature refinement splits nothing and only the
# backtracking search tells them apart.
EIGHT_CYCLE = "a0<b0 a0<b1 a1<b1 a1<b2 a2<b2 a2<b3 a3<b3 a3<b0"
EIGHT_CYCLE_RENUMBERED = "a2<b1 a2<b3 a0<b3 a0<b0 a3<b0 a3<b2 a1<b2 a1<b1"
TWO_FOUR_CYCLES = "a0<b0 a0<b1 a1<b0 a1<b1 a2<b2 a2<b3 a3<b2 a3<b3"


def _crown(text):
    covers = [("x0", f"a{i}") for i in range(4)] + [tuple(c.split("<")) for c in text.split()]
    return build_poset(["x0"] + [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)], covers, "x0")


def test_isomorphism_backtracks_past_matching_signatures():
    eight, fours = _crown(EIGHT_CYCLE), _crown(TWO_FOUR_CYCLES)
    assert len(eight.covers) == len(fours.covers) == 12
    assert not poset_isomorphic(eight, fours)
    assert not poset_isomorphic(fours, eight)
    assert poset_isomorphic(eight, _crown(EIGHT_CYCLE_RENUMBERED))


def _relabeled(p, names):
    """p with its elements, in canonical order, renamed to names."""
    rename = dict(zip(p.elements, names))
    return build_poset(names, [(rename[a], rename[b]) for a, b in p.covers], rename[p.bottom])


def _assert_isomorphism_agrees(pairs):
    for p, q in pairs:
        assert poset_isomorphic(p, q) == poset_isomorphic_pairs(p, q), (p, q)


def test_isomorphism_agrees_with_the_all_pairs_search_on_corpus(corpus):
    posets = [p for _, p in corpus]
    posets += [_relabeled(p, [f"r{i}" for i in reversed(range(len(p.elements)))]) for p in posets]
    posets += [_crown(text) for text in (EIGHT_CYCLE, EIGHT_CYCLE_RENUMBERED, TWO_FOUR_CYCLES)]
    same_size = [(p, q) for p in posets for q in posets if len(p.elements) == len(q.elements)]
    assert sum(poset_isomorphic_pairs(p, q) for p, q in same_size) > len(posets)
    _assert_isomorphism_agrees(same_size)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=6), small_posets(max_extra=6), st.data())
def test_isomorphism_agrees_with_the_all_pairs_search_random(p, q, data):
    names = data.draw(st.permutations([f"r{i}" for i in range(len(p.elements))]))
    r = _relabeled(p, names)
    assert poset_isomorphic(p, r)
    _assert_isomorphism_agrees([(p, q), (q, p), (p, r), (r, q)])


def _kept_lattice_agrees(p):
    """P's kept lattice, signatures and join-irreducibles: the same objects, equal to a fresh copy's."""
    fresh = build_poset(p.elements, p.covers, p.bottom)
    h = lattice_from_poset(p)
    assert lattice_from_poset(p) is h
    assert h == lattice_from_poset(fresh)
    ji = join_irreducibles(h)
    assert join_irreducibles(h) is ji
    assert ji == join_irreducibles(lattice_from_poset(fresh))
    assert _signatures(p) is _signatures(p)
    assert _signatures(p) == _signatures(fresh)
    assert poset_isomorphic(p, ji)


def test_kept_lattice_agrees_with_a_fresh_copy_on_corpus(corpus):
    for _, p in corpus:
        _kept_lattice_agrees(p)


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_kept_lattice_agrees_with_a_fresh_copy_on_random_posets(p):
    _kept_lattice_agrees(p)
