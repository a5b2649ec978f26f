"""Twisted-power pieces, fresh-generator counts, and the growth tables."""

import math

import pytest

import hibi.frobenius as frobenius
from conftest import brute_new_count
from hibi import (
    Budget,
    BudgetExceeded,
    Polytope,
    build_C,
    c_e_ehrhart,
    c_e_fiber,
    c_e_polytope,
    dist,
    enumerate_N,
    from_dict,
    generators,
    h_e_ehrhart,
    h_e_fiber,
    h_e_polytope,
    in_T,
    lattice_points,
    t_piece,
    tcx_report,
    zero_labeling,
)
from hibi.corpus import antichain, chain

TRIANGLE = Polytope(dim=2, inequalities=(((1, 1), 1),), lower=(0, 0), upper=(1, 1))
POINT = Polytope(dim=2, inequalities=(), lower=(0, 0), upper=(0, 0))

C2_WITNESS = {"x0": -8, "w": -5, "x": -6, "z": -4, "y": -2, "v": -3}


def fiber_value_pieces(p, prime, e_max):
    return {e: {nu.values for nu in t_piece(p, prime, e)} for e in range(1, e_max + 1)}


def test_piece_zero_is_the_origin(poset1):
    assert t_piece(poset1, 2, 0) == (zero_labeling(poset1),)


def test_piece_one_is_the_generator_set(poset1):
    assert set(t_piece(poset1, 2, 1)) == set(generators(poset1, -1))
    assert set(t_piece(poset1, 3, 1)) == set(generators(poset1, -2))


def test_piece_sizes_p1(poset1):
    assert [len(t_piece(poset1, 2, e)) for e in (1, 2, 3)] == [3, 10, 36]
    assert [len(t_piece(poset1, 5, e)) for e in (1, 2)] == [15, 325]


def test_piece_members_live_in_their_tier(poset1):
    for e in (1, 2):
        for nu in t_piece(poset1, 2, e):
            assert in_T(poset1, 1 - 2**e, nu)


def test_piece_on_chain_is_forced():
    p = chain(2)
    for prime in (2, 3):
        for e in (1, 2):
            piece = t_piece(p, prime, e)
            assert len(piece) == 1
            want = tuple((1 - prime**e) * dist(p, z, "∞") for z in p.elements)
            assert piece[0].values == want


def test_caps_and_validation(poset1):
    with pytest.raises(ValueError):
        t_piece(poset1, 4, 1)
    with pytest.raises(ValueError):
        t_piece(poset1, 2, -1)
    with pytest.raises(BudgetExceeded):
        t_piece(poset1, 7, 1)
    with pytest.raises(BudgetExceeded):
        t_piece(poset1, 2, 9)
    with pytest.raises(BudgetExceeded):
        t_piece(poset1, 2, 3, budget=Budget(max_piece=10))


def test_fresh_counts_p1(poset1):
    assert [c_e_fiber(poset1, 2, e) for e in (1, 2, 3)] == [3, 1, 3]


def test_fresh_witness_p1(poset1):
    (witness,) = h_e_fiber(poset1, 2, 2)
    assert witness == from_dict(poset1, C2_WITNESS)
    assert witness("y") == -2
    assert witness("z") == -4


def test_fresh_counts_match_pair_oracle(poset1):
    pieces = fiber_value_pieces(poset1, 2, 3)
    assert c_e_fiber(poset1, 2, 2) == len(brute_new_count(pieces, 2, 2))
    assert c_e_fiber(poset1, 2, 3) == len(brute_new_count(pieces, 2, 3))
    pieces3 = fiber_value_pieces(poset1, 3, 2)
    assert c_e_fiber(poset1, 3, 2) == len(brute_new_count(pieces3, 3, 2))


def test_fresh_set_matches_pair_oracle(poset1):
    pieces = fiber_value_pieces(poset1, 2, 3)
    for e in (2, 3):
        got = {nu.values for nu in h_e_fiber(poset1, 2, e)}
        assert got == set(brute_new_count(pieces, 2, e))


def test_pure_posets_have_no_fresh_generators():
    for p in (chain(2), chain(3), antichain(2), antichain(3)):
        for prime in (2, 3, 5):
            for e in (2, 3):
                assert c_e_fiber(p, prime, e) == 0


def test_ehrhart_counts_p1(poset1):
    c = build_C(poset1, -1, ("y", "x"))
    assert c_e_ehrhart(c, 2, 1) == 3
    for prime in (2, 3):
        for e in (1, 2, 3):
            assert c_e_ehrhart(c, prime, e) <= len(lattice_points(c, prime**e - 1))


def test_ehrhart_dominated_by_fiber(poset1):
    for prime in (2, 3, 5):
        for e in (1, 2, 3):
            cf = c_e_fiber(poset1, prime, e)
            for seq in enumerate_N(poset1, -1):
                assert c_e_ehrhart(build_C(poset1, -1, seq), prime, e) <= cf


def test_ehrhart_fresh_matches_pair_oracle(poset1):
    c = build_C(poset1, -1, ("y", "x"))
    pieces = {
        e: {nu.values for nu in lattice_points(c, 2**e - 1)} for e in (1, 2, 3)
    }
    for e in (2, 3):
        got = {nu.values for nu in h_e_ehrhart(c, 2, e)}
        assert got == set(brute_new_count(pieces, 2, e))


def test_single_point_section_has_trivial_growth():
    c = build_C(chain(3), 1, ())
    assert c_e_ehrhart(c, 2, 1) == 1
    assert c_e_ehrhart(c, 2, 2) == 0
    assert c_e_ehrhart(c, 3, 2) == 0


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope(dim=2, inequalities=(), lower=(0,), upper=(0, 0))
    with pytest.raises(ValueError):
        Polytope(dim=2, inequalities=(((1,), 1),), lower=(0, 0), upper=(1, 1))


def test_point_polytope_counts():
    assert c_e_polytope(POINT, 2, 1) == 1
    assert c_e_polytope(POINT, 2, 2) == 0
    assert c_e_polytope(POINT, 3, 2) == 0


def test_triangle_dilation_piece_size():
    m = 5**2 - 1
    assert len(h_e_polytope(TRIANGLE, 5, 1)) == len(
        [
            (a, b)
            for a in range(5)
            for b in range(5)
            if a + b <= 4
        ]
    )
    piece2 = {(a, b) for a in range(m + 1) for b in range(m + 1) if a + b <= m}
    fresh = set(h_e_polytope(TRIANGLE, 5, 2))
    assert fresh <= piece2


def test_triangle_fresh_counts_frozen():
    assert c_e_polytope(TRIANGLE, 5, 2) == 100
    assert c_e_polytope(TRIANGLE, 5, 3) == 1500


def test_triangle_digit_lower_bound():
    assert c_e_polytope(TRIANGLE, 5, 2) >= (5 // 2) ** (2 * 1)
    assert c_e_polytope(TRIANGLE, 5, 3) >= (5 // 2) ** (2 * 2)


def _triangle_dilation(e):
    m = 2**e - 1
    return {(a, b) for a in range(m + 1) for b in range(m + 1) if a + b <= m}


def test_triangle_fresh_matches_pair_oracle():
    pieces = {e: _triangle_dilation(e) for e in (1, 2)}
    assert c_e_polytope(TRIANGLE, 2, 2) == len(brute_new_count(pieces, 2, 2))


def test_prism_contains_lifted_fresh_squares():
    prism = Polytope(
        dim=3, inequalities=(((1, 1, 0), 1),), lower=(0, 0, 0), upper=(1, 1, 1)
    )
    for prime, e in ((2, 2), (2, 3), (3, 2)):
        m = prime**e - 1
        flat = set(h_e_polytope(TRIANGLE, prime, e))
        tall = set(h_e_polytope(prism, prime, e))
        for a, b in flat:
            for k in range(m + 1):
                assert (a, b, k) in tall


def test_growth_table_p1(poset1):
    (table,) = tcx_report(poset1, (2,), 2)
    assert table.prime == 2
    assert table.target == "fiber cone"
    assert table.rows == ((1, 3, 3), (2, 10, 1))
    assert table.estimate == pytest.approx(0.0)
    assert table.last_ratio == pytest.approx(math.log2(1 / 3))
    assert table.row_estimates == (pytest.approx(math.log2(3)), pytest.approx(0.0))


def test_growth_table_estimates_frozen(poset1):
    tables = tcx_report(poset1, (2, 3, 5), 3)
    est = {t.prime: t.estimate for t in tables}
    assert est[2] == pytest.approx(math.log2(3) / 3)
    assert est[3] == pytest.approx(math.log(54, 3) / 3)
    assert est[5] == pytest.approx(math.log(1500, 5) / 3)
    assert est[2] < est[3] < est[5] < 2


def test_growth_table_chain_sentinel():
    (table,) = tcx_report(chain(3), (2,), 2)
    assert table.rows[-1][2] == 0
    assert table.estimate == float("-inf")
    assert table.last_ratio is None
    assert table.row_estimates[-1] is None


def test_growth_table_rows_bounded(poset1):
    for table in tcx_report(poset1, (2, 3), 3):
        for _, dim_e, ce in table.rows:
            assert 0 <= ce <= dim_e


def test_growth_table_validation(poset1):
    with pytest.raises(ValueError):
        tcx_report(poset1, (2,), 0)
    with pytest.raises(TypeError):
        tcx_report("nope", (2,), 1)


def test_growth_table_section_frozen(poset1):
    c = build_C(poset1, -1, ("y", "x"))
    tables = tcx_report(c, (2, 3), 3)
    assert [t.target for t in tables] == ["ehrhart of sequence"] * 2
    assert tables[0].rows == ((1, 3, 3), (2, 10, 1), (3, 36, 3))
    assert tables[1].rows == ((1, 6, 6), (2, 45, 9), (3, 378, 54))


def test_growth_table_polytope_frozen():
    tables = tcx_report(TRIANGLE, (2, 5), 2)
    assert [t.target for t in tables] == ["raw polytope"] * 2
    assert tables[0].rows == ((1, 3, 3), (2, 10, 1))
    assert tables[1].rows == ((1, 15, 15), (2, 325, 100))


def test_list_built_polytope_matches_tuple_built():
    listed = Polytope(dim=2, inequalities=[([1, 1], 1)], lower=[0, 0], upper=[1, 1])
    assert listed == TRIANGLE
    want = tcx_report(TRIANGLE, (2, 5), 2)
    want_fresh = h_e_polytope(TRIANGLE, 2, 3)
    assert tcx_report(listed, (2, 5), 2) == want
    assert c_e_polytope(listed, 5, 2) == 100
    assert h_e_polytope(listed, 2, 3) == want_fresh


def test_validation_order_is_shared_by_every_target(poset1):
    targets = (
        (c_e_fiber, h_e_fiber, poset1),
        (c_e_ehrhart, h_e_ehrhart, build_C(poset1, -1, ("y", "x"))),
        (c_e_polytope, h_e_polytope, TRIANGLE),
    )
    for count, fresh, target in targets:
        for fn in (count, fresh):
            for prime in (7, 4, 2):
                with pytest.raises(ValueError, match="e must be at least 1"):
                    fn(target, prime, 0)
            with pytest.raises(ValueError, match="not prime"):
                fn(target, 4, 1)
            with pytest.raises(BudgetExceeded, match="prime 7"):
                fn(target, 7, 1)
            with pytest.raises(BudgetExceeded, match="exponent 9"):
                fn(target, 2, 9)


def test_primality_matches_trial_division():
    def trial(k):
        return k >= 2 and all(k % d for d in range(2, int(k**0.5) + 1))

    assert [k for k in range(20000) if frobenius._is_prime(k)] == [
        k for k in range(20000) if trial(k)
    ]
    # strong pseudoprimes to the first few bases, then Carmichael numbers
    strong = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383)
    strong += (341550071728321, 3825123056546413051)
    for k in strong + (561, 41041, 825265):
        assert not frobenius._is_prime(k)
    for k in (2**31 - 1, 1000000007, 2**61 - 1, 10**18 + 3):
        assert frobenius._is_prime(k)


def test_polytope_box_is_capped_before_the_sweep():
    square = Polytope(dim=2, inequalities=(), lower=(0, 0), upper=(2, 2))
    with pytest.raises(BudgetExceeded, match="dilation box"):
        c_e_polytope(square, 5, 2, budget=Budget(max_piece=100))


def test_capped_piece_is_rejected_exactly_when_larger(corpus):
    roomy = Budget(max_prime=3, max_e=2)
    keys = [(name, p, prime, e) for name, p in corpus for prime in (2, 3) for e in (1, 2)]
    sizes = {key: len(t_piece(key[1], key[2], key[3], budget=roomy)) for key in keys}
    for key in keys:
        _, p, prime, e = key
        for cap in (10, 100, 1000):
            capped = Budget(max_prime=3, max_e=2, max_piece=cap)
            if sizes[key] > cap:
                with pytest.raises(BudgetExceeded):
                    t_piece(p, prime, e, budget=capped)
            else:
                assert len(t_piece(p, prime, e, budget=capped)) == sizes[key]
