"""Zig-zag sequences, reducedness, the mu/nu constructions, degree bounds."""

import pytest
from hypothesis import given, settings

from conftest import enumerate_N_exhaustive, small_posets
from hibi import (
    TOP,
    as_seq,
    enumerate_N,
    from_dict,
    generators,
    is_minimal,
    is_q_reduced,
    mu,
    nu_down,
    nu_up,
    q0,
    q_max,
    q_value,
    qdist,
    satisfies_condN,
    shifted_family,
    witness_sequence,
)
from hibi.corpus import chain
from test_labelings import V1, V2, V3


def items(seqs):
    return {s.items for s in seqs}


def test_seq_structure(poset1):
    s = as_seq(poset1, ("y", "x"))
    assert s.t == 1
    assert s.ys == ("y",)
    assert s.xs == ("x",)
    assert s.pairs() == (("x0", "y"), ("x", TOP))
    assert s.zigzag() == ("x0", "y", "x", TOP)


def test_empty_seq_structure(poset1):
    s = as_seq(poset1, ())
    assert s.t == 0
    assert s.pairs() == (("x0", TOP),)
    assert s.zigzag() == ("x0", TOP)


def test_seq_rejects_odd_or_unknown(poset1):
    with pytest.raises(ValueError):
        as_seq(poset1, ("y",))
    with pytest.raises(ValueError):
        as_seq(poset1, ("y", "nope"))


def test_condN_p1(poset1):
    assert satisfies_condN(poset1, ("y", "x"))
    assert satisfies_condN(poset1, ())
    assert not satisfies_condN(poset1, ("x", "y"))


def test_condN_rejects_incomparable_pair(poset2):
    assert not satisfies_condN(poset2, ("y0", "x2"))


def test_condN_noncomparability_rule(poset2):
    assert satisfies_condN(poset2, ("y0", "x1", "y1", "x2"))
    assert not satisfies_condN(poset2, ("y0", "x1", "y0", "x1"))


def test_q_value_p1(poset1):
    assert q_value(poset1, -1, ("x0", "y", "x", TOP)) == -2
    assert q_value(poset1, 1, ("x0", "y", "x", TOP)) == 4
    assert q_value(poset1, -1, ("x0", TOP)) == -3
    assert q_value(poset1, 1, ("x0", TOP)) == 4


def test_reducedness_p1(poset1):
    assert is_q_reduced(poset1, -1, ("y", "x"))
    assert not is_q_reduced(poset1, 1, ("y", "x"))
    assert is_q_reduced(poset1, 1, ())
    assert is_q_reduced(poset1, -1, ())


def test_reducedness_is_not_prefix_monotone(poset3):
    assert is_q_reduced(poset3, -1, ("y0", "x1", "y1", "x2"))
    assert not is_q_reduced(poset3, -1, ("y0", "x1"))


def test_reduced_families_frozen(poset1, poset2, poset3):
    assert items(enumerate_N(poset1, -1)) == {(), ("y", "x")}
    assert items(enumerate_N(poset1, 1)) == {()}
    assert items(enumerate_N(poset2, -1)) == {
        (),
        ("y0", "x1"),
        ("y1", "x2"),
        ("y0", "x1", "y1", "x2"),
    }
    assert items(enumerate_N(poset3, -1)) == {(), ("y0", "x1", "y1", "x2")}


def test_reduced_families_sorted_by_length(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            seqs = enumerate_N(p, eps)
            assert seqs[0].items == ()
            lengths = [s.t for s in seqs]
            assert lengths == sorted(lengths)


def test_mu_p1(poset1):
    got = mu(poset1, -1, ("y", "x"))
    assert got == {"x0": -2, "y": 0, "x": -2, TOP: 0}


def test_mu_empty_seq(poset1):
    got = mu(poset1, -1, ())
    assert got == {"x0": qdist(poset1, -1, "x0", TOP), TOP: 0}


def test_mu_rejects_unreduced(poset1):
    with pytest.raises(ValueError):
        mu(poset1, 1, ("y", "x"))


def test_nu_down_up_p1(poset1):
    v1 = from_dict(poset1, V1)
    assert nu_down(poset1, -1, ("y", "x")) == v1
    assert nu_up(poset1, -1, ("y", "x")) == v1
    assert nu_down(poset1, -1, ("y", "x")).degree == -2


def test_nu_down_up_empty_on_chain():
    p = chain(3)
    unique = generators(p, 1)[0]
    assert nu_down(p, 1, ()) == unique
    assert nu_up(p, 1, ()) == unique


def test_nu_down_up_are_minimal(corpus):
    for _, p in corpus:
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                assert is_minimal(p, eps, nu_down(p, eps, seq))
                assert is_minimal(p, eps, nu_up(p, eps, seq))


def test_shifted_family_p1(poset1):
    v2, v3 = from_dict(poset1, V2), from_dict(poset1, V3)
    mu_1, down_1, up_1 = shifted_family(poset1, -1, ("y", "x"), 1)
    assert mu_1["x0"] == -3
    assert down_1 == v3
    assert up_1 == v2


def test_shifted_family_range(poset1):
    with pytest.raises(ValueError):
        shifted_family(poset1, -1, ("y", "x"), 2)
    with pytest.raises(ValueError):
        shifted_family(poset1, -1, ("y", "x"), -1)


def test_witness_sequences_p1(poset1):
    v1, v2, v3 = (from_dict(poset1, d) for d in (V1, V2, V3))
    assert witness_sequence(poset1, -1, v1).items == ("y", "x")
    assert witness_sequence(poset1, -1, v2).items == ()
    assert witness_sequence(poset1, -1, v3).items == ()


def test_witness_sequence_rejects_non_minimal(poset1):
    from hibi import indicator

    lifted = from_dict(poset1, V1) + indicator(poset1, ("x0",))
    with pytest.raises(ValueError):
        witness_sequence(poset1, -1, lifted)


def test_degree_bounds_p1(poset1):
    assert q0(poset1, -1) == -3
    assert q_max(poset1, -1) == -2
    assert q0(poset1, 1) == 4
    assert q_max(poset1, 1) == 4


def test_degree_bounds_chain():
    p = chain(3)
    assert q0(p, -1) == q_max(p, -1) == -4
    assert q0(p, 1) == q_max(p, 1) == 4


@settings(max_examples=40, deadline=None)
@given(small_posets())
def test_reduced_families_random(p):
    for eps in (1, -1):
        seqs = enumerate_N(p, eps)
        assert seqs[0].items == ()
        for s in seqs:
            assert satisfies_condN(p, s.items)
            assert is_q_reduced(p, eps, s)


def ordered_items(seqs):
    return tuple(s.items for s in seqs)


@settings(max_examples=150, deadline=None)
@given(small_posets(max_extra=7))
def test_pruned_enumeration_matches_exhaustive_random(p):
    for eps in (1, -1):
        assert ordered_items(enumerate_N(p, eps)) == ordered_items(enumerate_N_exhaustive(p, eps))


def test_pruned_enumeration_matches_exhaustive_corpus_and_chain12(corpus):
    for p in [p for _, p in corpus] + [chain(12)]:
        for eps in (1, -1):
            assert ordered_items(enumerate_N(p, eps)) == ordered_items(enumerate_N_exhaustive(p, eps))


def test_long_chain_has_only_the_empty_sequence():
    # about 2^30 condition-N candidates: without prefix pruning this runs for hours
    p = chain(30)
    for eps in (1, -1):
        assert ordered_items(enumerate_N(p, eps)) == ((),)
