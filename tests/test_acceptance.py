"""Acceptance battery: eleven end-to-end checks with stated time budgets.

Each test prints one PASS/FAIL line (visible with -v via the test name,
or with -s as printed text) and enforces its runtime budget.  Frozen
values come from the worked six-, nine-, and ten-element examples; the
larger sweeps compare two independent computation routes.
"""

import time

from conftest import generators_box, ideal_subtraction_minimal, t_box
from hibi import (
    analytic_spread,
    build_C,
    c_e_ehrhart,
    c_e_fiber,
    c_e_polytope,
    dim_bruteforce,
    dim_formula,
    enumerate_N,
    from_dict,
    generators,
    h_e_polytope,
    hibi_generators,
    in_T,
    is_anticanonical_level,
    is_gorenstein,
    is_level,
    is_minimal,
    is_pure,
    is_standard,
    join_irreducibles,
    lattice_from_poset,
    lattice_points,
    nu_down,
    nu_up,
    poset_ideals,
    poset_isomorphic,
    q0,
    q_max,
    tcx_report,
    truncate,
    witness_sequence,
)
from hibi.corpus import UPWARD_PURE_NAMES, all_builtins, builtin, p1, p2, p3, upward_pure
from hibi.frobenius import Budget, Polytope

V1 = {"x0": -2, "w": -1, "x": -2, "z": -1, "y": 0, "v": -1}
V2 = {"x0": -3, "w": -2, "x": -2, "z": -1, "y": -1, "v": -1}
V3 = {"x0": -3, "w": -2, "x": -2, "z": -2, "y": -1, "v": -1}


def report(number, ok, detail):
    line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def has_witness(p, n, nu):
    try:
        witness_sequence(p, n, nu)
        return True
    except ValueError:
        return False


def test_criterion_01_worked_example_reproduction():
    start = time.monotonic()
    ok = True

    dims1 = {s.items: dim_formula(build_C(p1(), -1, s)) for s in enumerate_N(p1(), -1)}
    ok &= dims1 == {(): 1, ("y", "x"): 2}
    ok &= analytic_spread(p1(), -1) == 3
    f1 = {s.items: build_C(p1(), -1, s).f_set for s in enumerate_N(p1(), -1)}
    ok &= f1 == {(): frozenset({"z"}), ("y", "x"): frozenset({"z"})}

    seqs2 = enumerate_N(p2(), -1)
    ok &= len(seqs2) == 4
    dims2 = {s.items: dim_formula(build_C(p2(), -1, s)) for s in seqs2}
    ok &= dims2 == {
        (): 2,
        ("y0", "x1"): 5,
        ("y1", "x2"): 5,
        ("y0", "x1", "y1", "x2"): 4,
    }
    ok &= analytic_spread(p2(), -1) == 6
    f2 = {s.items: build_C(p2(), -1, s).f_set for s in seqs2}
    ok &= f2 == {
        (): frozenset({"z1", "z2"}),
        ("y0", "x1"): frozenset({"z1", "z2", "x2", "w2"}),
        ("y1", "x2"): frozenset({"w1", "y0", "z1", "z2"}),
        ("y0", "x1", "y1", "x2"): frozenset({"z1", "z2"}),
    }

    seqs3 = enumerate_N(p3(), -1)
    ok &= len(seqs3) == 2
    dims3 = {s.items: dim_formula(build_C(p3(), -1, s)) for s in seqs3}
    ok &= dims3 == {(): 5, ("y0", "x1", "y1", "x2"): 4}
    ok &= analytic_spread(p3(), -1) == 6
    f3 = {s.items: build_C(p3(), -1, s).f_set for s in seqs3}
    ok &= f3 == {
        (): frozenset({"z1", "z2", "z3", "x1", "y1"}),
        ("y0", "x1", "y1", "x2"): frozenset({"z1", "z3"}),
    }

    elapsed = time.monotonic() - start
    ok &= elapsed < 10
    report(1, ok, f"worked-example dims, spreads, F-sets ({elapsed:.2f}s < 10s)")


def test_criterion_02_three_anticanonical_labelings():
    p = p1()
    expected = {from_dict(p, d) for d in (V1, V2, V3)}
    gens = set(generators(p, -1))
    pts = set(lattice_points(build_C(p, -1, ("y", "x")), 1))
    ok = gens == expected == pts
    ok &= sorted(nu.degree for nu in gens) == [-3, -3, -2]
    report(2, ok, "generators(-1) = three expected labelings = section vertices")


def test_criterion_03_dimension_formula_oracle():
    start = time.monotonic()
    ok = True
    checked = 0
    for name, p in all_builtins():
        ok &= len(p.elements) <= 10
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                c = build_C(p, eps, seq)
                ok &= dim_formula(c) == dim_bruteforce(c)
                checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 60
    report(3, ok, f"dim formula == affine-rank brute force, {checked} sections ({elapsed:.2f}s < 60s)")


def test_criterion_04_fiber_cone_decomposition():
    start = time.monotonic()
    ok = True
    for name, p in all_builtins():
        for eps in (1, -1):
            sections = [build_C(p, eps, s) for s in enumerate_N(p, eps)]
            for n in (1, 2, 3, 4):
                union = set()
                for c in sections:
                    union.update(lattice_points(c, n))
                ok &= union == set(generators_box(p, n * eps))
    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    report(4, ok, f"section unions == power generators, n=1..4 both signs ({elapsed:.1f}s < 300s)")


def test_criterion_05_degree_range_coverage():
    ok = True
    for name, p in all_builtins():
        for n in (1, -1, 2, -2, 3, -3):
            degrees = {nu.degree for nu in generators(p, n)}
            ok &= degrees == set(range(q0(p, n), q_max(p, n) + 1))
    report(5, ok, "generator degrees fill [q0, q_max] exactly, |n| <= 3")


def test_criterion_06_level_and_gorenstein():
    ok = True
    for name, p in all_builtins():
        ok &= is_gorenstein(p) == is_pure(p) == (len(generators(p, 1)) == 1)
    for name in UPWARD_PURE_NAMES:
        p = builtin(name)
        ok &= upward_pure(p) and is_level(p) and is_anticanonical_level(p)
    ok &= is_level(p1()) and not is_anticanonical_level(p1())
    report(6, ok, "gorenstein == pure == unique degree-1 generator; level family flags")


def test_criterion_07_minimality_oracle_agreement():
    ok = True
    checked = 0
    for name, p in all_builtins():
        for n in (1, -1, 2, -2):
            for nu in t_box(p, n):
                want = ideal_subtraction_minimal(p, n, nu.values)
                ok &= want == has_witness(p, n, nu) == is_minimal(p, n, nu)
                checked += 1
    report(
        7,
        ok,
        f"ideal-subtraction oracle == tight-sequence witness == is_minimal on {checked} box points",
    )


def test_criterion_08_anchored_minimals_and_truncation():
    ok = True
    for name, p in all_builtins():
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                ok &= is_minimal(p, eps, nu_down(p, eps, seq))
                ok &= is_minimal(p, eps, nu_up(p, eps, seq))
        for n in (1, -1, 2, -2):
            for nu in generators(p, n):
                for k in (1, 2, 3):
                    ok &= is_minimal(p, n, truncate(p, nu, n, k))
    report(8, ok, "nu_down/nu_up minimal; truncation preserves minimality, k=1..3")


def test_criterion_09_standardness():
    ok = True
    for name, p in all_builtins():
        for eps in (1, -1):
            for seq in enumerate_N(p, eps):
                ok &= is_standard(build_C(p, eps, seq), 3)
    report(9, ok, "every section splits its dilation points down to level 1 (n_max=3)")


def test_criterion_10_desk_scale_growth():
    start = time.monotonic()
    big = Budget(max_prime=5, max_e=3, max_piece=2_000_000)
    ok = True

    for table in tcx_report(p1(), (2, 3, 5), 3, budget=big):
        for _, dim_e, c_e in table.rows:
            ok &= 0 <= c_e <= dim_e

    for name, p in all_builtins():
        if not is_pure(p):
            continue
        for prime in (2, 3, 5):
            for e in (2, 3):
                ok &= c_e_fiber(p, prime, e, budget=big) == 0

    scoped = 0
    for name, p in all_builtins():
        full = name == "P1" or is_pure(p)
        for prime in (2, 3, 5):
            for e in (1, 2, 3):
                if not full and prime**e - 1 > 8:
                    continue
                cf = c_e_fiber(p, prime, e, budget=big)
                for seq in enumerate_N(p, -1):
                    ok &= cf >= c_e_ehrhart(build_C(p, -1, seq), prime, e, budget=big)
                    scoped += 1

    triangle = Polytope(dim=2, inequalities=(((1, 1), 1),), lower=(0, 0), upper=(1, 1))
    for e in (2, 3):
        ok &= c_e_polytope(triangle, 5, e, budget=big) >= (5 // 2) ** (2 * (e - 1))

    prism = Polytope(
        dim=3, inequalities=(((1, 1, 0), 1),), lower=(0, 0, 0), upper=(1, 1, 1)
    )
    for prime, e in ((2, 2), (2, 3), (3, 2)):
        m = prime**e - 1
        flat = set(h_e_polytope(triangle, prime, e, budget=big))
        tall = set(h_e_polytope(prism, prime, e, budget=big))
        ok &= all((a, b, k) in tall for a, b in flat for k in range(m + 1))

    elapsed = time.monotonic() - start
    ok &= elapsed < 600
    report(
        10,
        ok,
        "growth rows bounded, pure rings flat, fiber >= per-sequence counts "
        f"({scoped} scoped pairs; deep posets limited to prime^e-1 <= 8), "
        f"digit bound and prism containment ({elapsed:.1f}s < 600s)",
    )


def test_criterion_11_lattice_round_trip():
    ok = True
    for name, p in all_builtins():
        h = lattice_from_poset(p)
        ok &= len(h.elements) == len(poset_ideals(p))
        ok &= poset_isomorphic(join_irreducibles(h), p)
        for g in hibi_generators(p):
            ok &= in_T(p, 0, g) and g.degree == 1
    report(11, ok, "ideal lattice round trip; monomial generators sit in tier 0, degree 1")
