"""Twisted-power pieces, fresh-generator counts, and the growth tables."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibi.frobenius as frobenius
from conftest import brute_new_count, polytope_points, residue_new_elements, small_posets
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
from hibi.cli import run_command
from hibi.cones import _section_reach
from hibi.corpus import antichain, chain, filters1, filters2, p1, p2, p3
from hibi.poset import build_poset

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


# --- packed fresh counts against the residue-search oracle ------------------

AGREE = Budget(max_prime=5, max_e=6, max_piece=20_000)


def _fiber_piece_values(p, prime):
    return lambda e: [nu.values for nu in t_piece(p, prime, e, AGREE)]


def _section_piece_values(c, prime):
    return lambda e: [nu.values for nu in lattice_points(c, prime**e - 1, AGREE.max_piece)]


def _polytope_piece_values(delta, prime):
    def points(e):
        n = prime**e - 1
        box = math.prod(n * hi - n * lo + 1 for lo, hi in zip(delta.lower, delta.upper))
        if box > AGREE.max_piece:
            raise BudgetExceeded("the dilation box passes the cap")
        return polytope_points(delta, n)

    return points


def _value_pieces(points, e_max):
    """Value-tuple pieces 1, 2, ... up to e_max or the first that passes the cap."""
    pieces = {}
    for e in range(1, e_max + 1):
        try:
            pieces[e] = points(e)
        except BudgetExceeded:
            break
    return pieces


def _assert_agreement(target, prime, points, count, fresh, e_max=3):
    """tcx_report rows, c_e and h_e (values and order) equal the residue oracle."""
    pieces = _value_pieces(points, e_max)
    if not pieces:
        return
    want = {e: residue_new_elements(pieces, prime, e) for e in pieces}
    (table,) = tcx_report(target, (prime,), max(pieces), AGREE)
    assert table.rows == tuple((e, len(pieces[e]), len(want[e])) for e in pieces)
    for e in pieces:
        assert count(target, prime, e, AGREE) == len(want[e])
        got = fresh(target, prime, e, AGREE)
        assert [getattr(v, "values", v) for v in got] == want[e]


def _sections_of(p):
    return [build_C(p, eps, seq) for eps in (1, -1) for seq in enumerate_N(p, eps)]


NEGATIVE_BOX = Polytope(
    dim=2, inequalities=(((1, 1), 1), ((-1, 2), 2)), lower=(-2, -1), upper=(1, 1)
)
SEGMENT = Polytope(dim=1, inequalities=(), lower=(-3,), upper=(1,))
SLAB = Polytope(dim=3, inequalities=(((1, -1, 1), 0),), lower=(-1, 0, -1), upper=(0, 1, 1))


def test_fiber_fresh_agrees_with_residue_oracle_on_corpus(corpus):
    for _, p in corpus:
        for prime in (2, 3, 5):
            _assert_agreement(p, prime, _fiber_piece_values(p, prime), c_e_fiber, h_e_fiber)


def test_section_fresh_agrees_with_residue_oracle_on_corpus(corpus):
    for _, p in corpus:
        for c in _sections_of(p):
            for prime in (2, 3, 5):
                points = _section_piece_values(c, prime)
                _assert_agreement(c, prime, points, c_e_ehrhart, h_e_ehrhart)


def test_polytope_fresh_agrees_with_residue_oracle():
    for delta in (TRIANGLE, POINT, NEGATIVE_BOX, SEGMENT, SLAB):
        for prime in (2, 3, 5):
            points = _polytope_piece_values(delta, prime)
            _assert_agreement(delta, prime, points, c_e_polytope, h_e_polytope)


def test_rows_up_to_e_6_at_prime_2_agree_with_residue_oracle():
    # every row is its own _fresh count, so rows 4 .. 6 are checked against
    # the residue search on t_piece and lattice_points, not against c_e;
    # these corpus posets have pieces up to e = 6 within AGREE, P2 and P3 not
    for p in (p1(), filters1(), chain(4), antichain(3)):
        _assert_agreement(p, 2, _fiber_piece_values(p, 2), c_e_fiber, h_e_fiber, 6)
        for eps in (1, -1):
            c = build_C(p, eps, next(iter(enumerate_N(p, eps))))
            points = _section_piece_values(c, 2)
            _assert_agreement(c, 2, points, c_e_ehrhart, h_e_ehrhart, 6)
    for delta in (TRIANGLE, SEGMENT):
        points = _polytope_piece_values(delta, 2)
        _assert_agreement(delta, 2, points, c_e_polytope, h_e_polytope, 6)


@settings(max_examples=40, deadline=None)
@given(small_posets(), st.sampled_from((2, 3, 5)), st.data())
def test_fresh_agrees_with_residue_oracle_on_random_posets(p, prime, data):
    _assert_agreement(p, prime, _fiber_piece_values(p, prime), c_e_fiber, h_e_fiber)
    c = data.draw(st.sampled_from(_sections_of(p)))
    _assert_agreement(c, prime, _section_piece_values(c, prime), c_e_ehrhart, h_e_ehrhart)


@st.composite
def small_polytopes(draw):
    """Polytopes of dimension 1-3 in a box around the origin, with up to two rows."""
    dim = draw(st.integers(1, 3))
    lower = draw(st.lists(st.integers(-2, 0), min_size=dim, max_size=dim))
    upper = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
    row = st.tuples(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), st.integers(-2, 3))
    return Polytope(dim, draw(st.lists(row, max_size=2)), lower, upper)


@settings(max_examples=40, deadline=None)
@given(small_polytopes(), st.sampled_from((2, 3, 5)))
def test_fresh_agrees_with_residue_oracle_on_random_polytopes(delta, prime):
    points = _polytope_piece_values(delta, prime)
    _assert_agreement(delta, prime, points, c_e_polytope, h_e_polytope)


# Exit-4 texts, and so the piece at which each rejection comes, as the
# residue search gave them: every count builds its top piece first,
# tcx_report's rows go bottom up, and a fiber piece checks each section
# before the distinct count.
REJECTIONS = (
    (["frobenius", "P1", "--budget", "2"], "dilation 1 has more than 2 lattice points"),
    (
        ["frobenius", "P2", "--prime", "2,5", "--emax", "2", "--budget", "5000"],
        "dilation 24 has more than 5000 lattice points",
    ),
    (
        ["frobenius", "P3", "--prime", "3", "--emax", "2", "--budget", "5000"],
        "dilation 8 has more than 5000 lattice points",
    ),
)


def test_cli_rejections_keep_their_texts():
    for argv, text in REJECTIONS:
        assert run_command(argv) == (4, f"budget exceeded: {text}")
        assert run_command(argv + ["--format", "json"]) == (4, f"budget exceeded: {text}")


def test_library_rejections_keep_their_texts_and_order(poset1):
    square = Polytope(dim=2, inequalities=(), lower=(-1, 0), upper=(1, 2))
    section = build_C(p3(), -1, ())
    deep = Budget(max_e=8, max_piece=500)
    cases = (
        (c_e_fiber, (poset1, 2, 3), 5, "dilation 7 has more than 5 lattice points"),
        (c_e_fiber, (poset1, 2, 3), 30, "dilation 7 has more than 30 lattice points"),
        (h_e_fiber, (p2(), 2, 3), 1000, "dilation 7 has more than 1000 lattice points"),
        (tcx_report, (p2(), (2,), 3), 5, "dilation 1 has more than 5 lattice points"),
        (tcx_report, (p2(), (2,), 3), 100, "dilation 3 has more than 100 lattice points"),
        (tcx_report, (p2(), (2,), 3), 300, "dilation 3 has more than 300 lattice points"),
        (
            tcx_report,
            (filters2(), (2, 3), 3),
            1000,
            "dilation 26 has more than 1000 lattice points",
        ),
        # P1's pieces at prime 2 have 3, 10, 36, 136 and 528 points: e = 5 is the first over
        (tcx_report, (poset1, (2,), 8), deep, "dilation 31 has more than 500 lattice points"),
        (c_e_ehrhart, (section, 3, 2), 30, "dilation 8 has more than 30 lattice points"),
        (h_e_polytope, (square, 3, 2), 30, "dilation box of size 289 exceeds the cap 30"),
    )
    for fn, args, cap, text in cases:
        with pytest.raises(BudgetExceeded) as info:
            fn(*args, cap if isinstance(cap, Budget) else Budget(max_piece=cap))
        assert str(info.value) == text


def test_a_huge_emax_is_rejected_where_the_caps_reject_it(poset1):
    # the packing is sized from the exponent being built, never from e_max
    # alone, so the pieces before the rejection stay small
    assert run_command(["frobenius", "P1", "--prime", "2", "--emax", "1000000"]) == (
        4,
        "budget exceeded: dilation 2047 has more than 1000000 lattice points",
    )
    for e_max in (10**6, 10**9):
        with pytest.raises(BudgetExceeded) as info:
            tcx_report(poset1, (5,), e_max)
        assert str(info.value) == "exponent 4 exceeds the cap 3"


def test_caps_are_checked_before_any_section_is_built(poset1):
    calls = (
        (tcx_report, ((4,), 1), ValueError, "4 is not prime"),
        (tcx_report, ((7,), 1), BudgetExceeded, "prime 7 exceeds the cap 5"),
        (c_e_fiber, (4, 1), ValueError, "4 is not prime"),
        (h_e_fiber, (2, 9), BudgetExceeded, "exponent 9 exceeds the cap 3"),
    )
    for fn, args, error, text in calls:
        p = build_poset(*poset1)
        with pytest.raises(error) as info:
            fn(p, *args)
        assert str(info.value) == text
        assert "_sections" not in vars(p)


def test_report_rows_at_e_5_and_6_are_pinned_for_three_targets(poset1):
    # P1's fiber cone, its section (y, x) and TRIANGLE have the same rows up
    # to e = 6; the counts at e = 5 and 6 are pinned in the table and alone
    roomy = Budget(max_prime=5, max_e=6, max_piece=100_000)
    want = ((1, 3, 3), (2, 10, 1), (3, 36, 3), (4, 136, 9), (5, 528, 27), (6, 2080, 81))
    section = build_C(poset1, -1, ("y", "x"))
    for target, count in ((poset1, c_e_fiber), (section, c_e_ehrhart), (TRIANGLE, c_e_polytope)):
        (table,) = tcx_report(target, (2,), 6, roomy)
        assert table.rows == want
        assert [count(target, 2, e, roomy) for e in (5, 6)] == [27, 81]


# --- the packing --------------------------------------------------------------


def test_packing_round_trips_at_both_ends_of_the_digit_range():
    for bound in (0, 1, 2, 3, 7, 8, 255, 256, 2**31 - 1, 2**31, 10**18):
        packing = frobenius._Packing(3, bound, 2, 1)
        ends = {-bound, -bound + 1, -1, 0, 1, bound - 1, bound}
        digits = sorted(d for d in ends if abs(d) <= bound)
        seen = {}
        for a in digits:
            for b in digits:
                for c in (-bound, 0, bound):
                    v = (a, b, c)
                    x = packing.pack(v)
                    assert packing.unpack(x) == v
                    assert seen.setdefault(x, v) == v


def test_packing_tells_every_split_difference_from_zero():
    # the differences v - a - p^k * b of vectors within bound lie within 2 * bound
    for bound in (1, 2, 3, 7, 8, 100, 255, 256):
        packing = frobenius._Packing(2, bound, 2, 1)
        for w0 in range(-2 * bound, 2 * bound + 1):
            for w1 in (-2 * bound, -1, 0, 1, 2 * bound):
                assert (packing.pack((w0, w1)) == 0) == (w0 == w1 == 0)


def test_packing_is_linear():
    packing = frobenius._Packing(3, 40, 2, 1)
    v, a, b = (7, -8, 0), (3, -2, -1), (1, -2, 0)
    assert packing.pack(v) - packing.pack(a) - 4 * packing.pack(b) == packing.pack((0, 2, 1))
    assert packing.pack((0, 2, 1)) != 0


def test_pieces_at_the_largest_coordinates_the_default_budget_admits():
    # prime 5 and e = 3 are the default caps: dilation 124
    corner = Polytope(dim=2, inequalities=(), lower=(-(10**6), 10**6), upper=(-(10**6), 10**6))
    assert h_e_polytope(corner, 5, 1) == ((-4 * 10**6, 4 * 10**6),)
    assert c_e_polytope(corner, 5, 3) == 0
    for e in (1, 2, 3):
        _, width, unit, _ = frobenius._resolve(corner)
        packing = frobenius._Packing(width, unit, 5, e)
        top = (5**e - 1) * 10**6
        for v in ((-top, top), (top, -top), (-top, -top), (top, top)):
            assert packing.unpack(packing.pack(v)) == v
    for p in (chain(4), filters1()):
        pieces = {e: [nu.values for nu in t_piece(p, 5, e)] for e in (1, 2, 3)}
        want = residue_new_elements(pieces, 5, 3)
        assert c_e_fiber(p, 5, 3) == len(want)
        assert [nu.values for nu in h_e_fiber(p, 5, 3)] == want


def test_section_reach_is_exact_and_scales_with_the_dilation(corpus):
    for _, p in corpus:
        for c in _sections_of(p):
            unit = _section_reach(c, 1)
            for n in (1, 2, 7):
                points = lattice_points(c, n)
                assert _section_reach(c, n) == n * unit
                assert max(abs(v) for nu in points for v in nu.values) == n * unit
