"""Fiber-cone counts, analytic spreads, level and Gorenstein checks."""

import random
import time

import pytest
from hypothesis import example, given, settings

import hibi.fiber

from conftest import (
    degree_range_listing,
    first_section_runs,
    generators_box,
    lattice_points_sweep,
    residue_new_elements,
    run_count,
    small_posets,
)
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
from hibi.cones import _point_count, _section_runs, _sections, _tight_pairs
from hibi.corpus import UPWARD_PURE_NAMES, antichain, builtin, chain, p1, p2, upward_pure
from hibi.fiber import _generator_count, _generator_runs
from hibi.frobenius import Budget, c_e_fiber, h_e_fiber, t_piece
from hibi.poset import Poset, build_poset
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


def test_hilbert_rejects_other_eps(poset1):
    for eps, n in ((2, 1), (0, 5), (-2, 1), (0, 0)):
        with pytest.raises(ValueError, match=r"^eps must be \+1 or -1$"):
            fiber_hilbert(poset1, eps, n)


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
        for n in (1, -1, 2, -2, 3, -3, 4, -4):
            count = _generator_count(p, n)
            assert count == run_count(_generator_runs(p, n))
            if abs(n) <= 3:
                assert count == len(generators(p, n))
            if abs(n) <= 2:
                assert count == len(generators_box(p, n))
        assert _generator_count(p, 0) == 1 == fiber_hilbert(p, -1, 0)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=5))
def test_generator_count_matches_listing_random(p):
    for n in (1, -1, 2, -2, 3, -3):
        count = _generator_count(p, n)
        assert count == run_count(_generator_runs(p, n)) == len(generators(p, n))
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


def test_degree_range_matches_listing(corpus):
    for _, p in corpus:
        for n in (1, -1, 2, -2, 3, -3):
            assert degree_range(p, n) == degree_range_listing(p, n)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=6))
def test_degree_range_matches_listing_random(p):
    for n in (1, -1, 2, -2, 3, -3):
        assert degree_range(p, n) == degree_range_listing(p, n)


def assert_first_section_rule(p, n):
    """The walk's covered steps and the count against the run-by-run oracle.

    The stream of _generator_runs must be the oracle's less its wholly
    covered runs, with covered compared as a set, and each section's
    _point_count, given the sections before it, its uncovered steps.
    """

    def as_sets(runs):
        return [(row, moving, length, set(covered)) for row, moving, length, covered in runs]

    want = first_section_runs(p, n)
    kept = [run for _, runs in want for run in runs if len(run[3]) < run[2]]
    assert as_sets(_generator_runs(p, n)) == as_sets(kept)
    m = abs(n)
    earlier = []
    for c, runs in want:
        assert _point_count(c, m, earlier) == run_count(runs)
        earlier.append(_tight_pairs(c))


def test_first_section_rule_matches_the_run_checks_on_corpus(corpus):
    posets = [p for _, p in corpus] + [_poset_of(text) for text in OVERLAP_COVERS]
    for p in posets:
        for n in (1, -1, 2, -2, 3, -3):
            assert_first_section_rule(p, n)


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=6))
def test_first_section_rule_matches_the_run_checks_random(p):
    for n in (1, -1, 2, -2, 3, -3):
        assert_first_section_rule(p, n)


def test_a_section_after_itself_keeps_no_point(corpus):
    # its own pairs hold on every point, so the walk yields no run
    for _, p in corpus:
        for c in _sections(p, 1) + _sections(p, -1):
            for m in (1, 2):
                own = [_tight_pairs(c)]
                assert _point_count(c, m, own) == 0
                assert list(_section_runs(c, m, earlier=own)) == []


def test_the_poset_keeps_its_plans_whatever_the_dilation():
    p = Poset(*p2())  # a poset of its own: nothing kept yet

    def sweep(n):
        for eps in (1, -1):
            fiber_hilbert(p, eps, n)
            degree_range(p, eps * n)
            if n <= 4:  # the listings grow fast
                generators(p, eps * n)

    sweep(1)
    # per sign, each section after the sections before it, and each
    # section but the first alone: (2 + 1) + (4 + 3)
    assert len(p._plans) == 10
    for n in range(2, 41):
        sweep(n)
    assert len(p._plans) == 10


def test_first_section_rule_matches_the_run_checks_at_piece_dilations():
    # the dilations p**e - 1 of the Frobenius pieces that the default budget admits
    budget = Budget()
    primes = [q for q in range(2, budget.max_prime + 1) if all(q % k for k in range(2, q))]
    dilations = sorted({q**e - 1 for q in primes for e in range(1, budget.max_e + 1)})
    checked = 0
    for p in (p1(), p2()):
        for m in dilations:  # the pieces grow with the dilation
            if _generator_count(p, -m) > budget.max_piece:
                break
            assert_first_section_rule(p, -m)
            checked += 1
    assert checked == len(dilations) + 6  # all of P1's, P2's up to 3**2 - 1


def budget_message_by_sections(p, n, limit):
    """The BudgetExceeded text of generators_via_sequences(p, n, limit), or None.

    The sections are listed whole in enumerate_N order by the sweep, and
    a union of their points that passes limit names T^(n).
    """
    eps, m = (1 if n > 0 else -1), abs(n)
    union = set()
    for seq in enumerate_N(p, eps):
        union.update(lattice_points_sweep(build_C(p, eps, seq), m))
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


def test_a_capped_listing_stops_within_one_run_of_its_limit(monkeypatch):
    late = _poset_of(LATE_SECTION_OVERFLOW)
    sizes = [len(lattice_points_sweep(c, 2)) for c in _sections(late, -1)]
    assert len(generators(late, -2)) > 20 and max(sizes) > 20
    walked = []

    def counted(*args):
        for run in _section_runs(*args):
            walked.append(run[2] - len(run[3]))
            yield run

    monkeypatch.setattr(hibi.fiber, "_section_runs", counted)
    for limit in (15, 20):
        walked.clear()
        with pytest.raises(BudgetExceeded) as info:
            generators_via_sequences(late, -2, limit=limit)
        # the run that takes the points past the limit is the last one walked
        assert sum(walked[:-1]) <= limit < sum(walked)
        assert str(info.value) == f"T^(-2) has more than {limit} minimal elements"


def test_budget_messages_follow_the_sections(corpus, poset2):
    cases = [(poset2, -2, limit) for limit in range(0, 120, 3)]
    cases += [(p, n, limit) for _, p in corpus for n in (-2, 2) for limit in (0, 1, 4, 9)]
    late = _poset_of(LATE_SECTION_OVERFLOW)
    cases += [(late, n, limit) for n in (-1, -2) for limit in range(len(generators(late, n)))]
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
            assert _generator_count(p, n) == run_count(runs) == len(box)
            for limit in range(0, len(box) + 2, max(1, len(box) // 7)):
                want = budget_message_by_sections(p, n, limit)
                if want is None:
                    assert len(generators_via_sequences(p, n, limit=limit)) == len(box)
                else:
                    with pytest.raises(BudgetExceeded) as info:
                        generators_via_sequences(p, n, limit=limit)
                    assert str(info.value) == want
    assert partial > 0 and moving_two > 0


def test_partly_covered_runs_give_the_residue_oracle_fresh_counts():
    # prime 2: the pieces e = 1..3 are T^(-1), T^(-3) and T^(-7), where
    # some runs of these posets are covered in part
    partial = 0
    for p in map(_poset_of, OVERLAP_COVERS):
        for n in (1, 3, 7):
            runs = _generator_runs(p, -n)
            partial += sum(0 < len(covered) < length for _, _, length, covered in runs)
        pieces = {e: [nu.values for nu in t_piece(p, 2, e)] for e in (1, 2, 3)}
        for e in pieces:
            want = residue_new_elements(pieces, 2, e)
            assert c_e_fiber(p, 2, e) == len(want)
            assert [nu.values for nu in h_e_fiber(p, 2, e)] == want
    assert partial > 0


@settings(max_examples=60, deadline=None)
@given(small_posets(max_extra=6))
# on the second OVERLAP_COVERS poset an earlier section holds at every
# step of some last-level ranges, which small random posets seldom give
@example(_poset_of(OVERLAP_COVERS[1]))
def test_no_run_is_wholly_covered_and_sections_keep_their_counts_random(p):
    for n in (1, -1, 2, -2, 3, -3):
        m, earlier, stream = abs(n), [], []
        for c in _sections(p, 1 if n > 0 else -1):
            runs = list(_section_runs(c, m, earlier))
            assert all(len(covered) < length for _, _, length, covered in runs)
            assert run_count(runs) == _point_count(c, m, earlier)
            stream += runs
            earlier.append(_tight_pairs(c))
        assert list(_generator_runs(p, n)) == stream


def _rooted(rng, size):
    """A random rooted poset: each element after x0 covers one or two earlier ones."""
    names = ["x0"] + [f"e{i}" for i in range(1, size)]
    covers = {
        (names[j], names[i])
        for i in range(1, size)
        for j in rng.sample(range(i), min(i, 1 if rng.random() < 0.6 else 2))
    }
    return build_poset(names, sorted(covers), "x0")


def test_generator_count_matches_the_walk_on_seeded_rooted_posets():
    rng = random.Random(13)
    for size in [rng.randint(6, 12) for _ in range(40)]:
        p = _rooted(rng, size)
        for n in (1, -1, 2, -2):
            assert _generator_count(p, n) == run_count(_generator_runs(p, n))


def test_generator_count_of_many_disjoint_chains_is_exact_and_fast():
    # x0 < c1 < c2 < c3 and 600 chains x0 < u_i < v_i: each chain takes 3
    # values independently, and the count must neither walk the 3**600
    # points nor recurse once per element
    names = ["x0", "c1", "c2", "c3"]
    covers = [("x0", "c1"), ("c1", "c2"), ("c2", "c3")]
    for i in range(600):
        names += [f"u{i}", f"v{i}"]
        covers += [("x0", f"u{i}"), (f"u{i}", f"v{i}")]
    p = build_poset(names, covers, "x0")
    start = time.process_time()
    assert fiber_hilbert(p, 1, 1) == 3**600
    assert time.process_time() - start < 1.0
