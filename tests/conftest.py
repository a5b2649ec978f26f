"""Shared fixtures and independent oracles for the test battery.

The oracles here recompute module outputs by a different route (exhaustive
DFS, powerset filtering, brute-force pair search, build-then-filter
sequence enumeration, the node-wise re-checking search of reduced
sequences, the down-set scan for minimality, the degree-box
sweeps of T^(n) and of one section, the sums of degree-one generators,
the walk over every run of the sections, the walk's hand-rolled state
machine, the first-section check made run by run, the dilation plan
built afresh at each n, the witness staircase of affinely independent
section points, the degrees of every listed generator, the standardness
test on value tuples, the residue search for fresh Frobenius vectors,
the fresh points of a polytope given by inequalities, listed by its box,
the bound scans of lattice joins and meets, the
lattice of down-sets built from frozensets, the distributive law on
every triple, the isomorphism search that checks every mapped pair, the
generators report rendered from Labelings) so the
library code is never checked against itself.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from operator import add, sub
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hibi
from hibi.cones import (
    _close,
    _dilation,
    _holding,
    _level_range,
    _Packing,
    _Plan,
    _run_values,
    _section_runs,
    _sections,
    _tight_pairs,
)
from hibi.birkhoff import _signatures, build_dist_lattice
from hibi.corpus import all_builtins, p1, p2, p3
from hibi.errors import NotALattice
from hibi.fiber import _generator_runs
from hibi.frobenius import _drop_splits
from hibi.labelings import INT64_MAX, INT64_MIN, Labeling, generators, indicator, label_max
from hibi.poset import TOP, build_poset, poset_ideals, qdist
from hibi.sequences import CondNSeq, is_q_reduced, q0, q_max, q_value, shifted_family


@pytest.fixture(scope="session")
def poset1():
    return p1()


@pytest.fixture(scope="session")
def poset2():
    return p2()


@pytest.fixture(scope="session")
def poset3():
    return p3()


@pytest.fixture(scope="session")
def corpus():
    return all_builtins()


@lru_cache(maxsize=None)
def bench_workloads():
    """The module perfbench/workloads.py, whose poset shapes the benchmark runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_rooted(size, tag):
    """The benchmark's random rooted poset workloads.rooted(size, tag), as a poset."""
    doc = bench_workloads().rooted(size, tag)
    return build_poset(doc["elements"], doc["covers"], doc["bottom"])


def python_probe(script):
    """The finished `python -c script` of a new interpreter that imports this hibi; it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(hibi.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def hibi_probe(argv, before="", after=""):
    """python_probe of `python -m hibi argv`, run by runpy between two snippets of code.

    before runs first, after once the run's SystemExit is caught, with
    its exit code as code; sys is imported.
    """
    return python_probe(
        "import runpy, sys\n"
        + before
        + f"sys.argv = ['hibi'] + {list(argv)!r}\n"
        "code = None\n"
        "try:\n"
        "    runpy.run_module('hibi', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n" + after
    )


def chain_lengths_dfs(p, x, y):
    """All saturated chain lengths from x up to y, by explicit DFS."""
    if x == y:
        return {0}
    out = set()
    ups = () if x == TOP else p.up_covers[x]
    for u in ups:
        for length in chain_lengths_dfs(p, u, y):
            out.add(length + 1)
    return out


def reduced_covers_pairwise(elements, covers):
    """Irredundant covers by a per-pair test over depth-first reachability.

    (a, b) is dropped when another upper neighbour c of a has b above it.
    """
    ups = {z: {b for a, b in covers if a == z} for z in elements}

    def reach(z):
        seen, stack = {z}, [z]
        while stack:
            for b in ups[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    above = {z: reach(z) for z in elements}
    return frozenset(
        (a, b)
        for a in elements
        for b in ups[a]
        if not any(c != b and b in above[c] for c in ups[a])
    )


def downsets_powerset(p):
    """Every nonempty down-set of P, found by filtering the whole powerset."""
    elems = p.elements
    out = set()
    for r in range(1, len(elems) + 1):
        for combo in combinations(elems, r):
            s = frozenset(combo)
            if all(w in s for z in s for w in elems if p.leq(w, z)):
                out.add(s)
    return out


def enumerate_N_exhaustive(p, eps):
    """Every condition-N sequence, filtered for reducedness once it is built.

    No pruning on reducedness: the search extends every zig-zag prefix and
    only the finished sequences are tested, so it needs about 2^n
    candidates on an n-element chain.
    """
    idx = p.index
    pool = p.elements[1:]
    found = []

    def below(a, b):
        return a != b and p.leq(a, b)

    def extend(items, last_x):
        for y in pool:
            if last_x is not None and not below(last_x, y):
                continue
            for x in pool:
                if not below(x, y):
                    continue
                if any(p.leq(x, items[2 * i]) for i in range(len(items) // 2)):
                    continue
                nxt = items + (y, x)
                found.append(nxt)
                extend(nxt, x)

    extend((), None)
    seqs = [CondNSeq(p, ())] + [CondNSeq(p, it) for it in found]
    reduced = [s for s in seqs if is_q_reduced(p, eps, s)]
    reduced.sort(key=lambda s: (s.t, tuple(idx[z] for z in s.items)))
    return tuple(reduced)


def enumerate_N_pruned(p, eps):
    """The reduced sequences by a search that re-checks each node from scratch.

    The same prefix pruning as the library's search, without its running
    sums: a new y_k is dropped when some pair (x_i, y_k), i < k, fails on a
    q_value recomputed over x_i .. y_k, and every prefix reached is kept
    only if is_q_reduced accepts it whole.  Nothing is stored on the poset.
    """
    idx = p.index
    chains, bottom = p._chains, p.bottom
    ups = {z: sorted(chains[z].keys() - {z, TOP}, key=idx.__getitem__) for z in p.elements}
    downs = {y: [] for y in p.elements}
    for x in p.elements[1:]:
        for y in ups[x]:
            downs[y].append(x)

    def pair_fails(zig, i, j):
        xi, yj = zig[2 * i], zig[2 * j + 1]
        return p.leq(xi, yj) and qdist(p, eps, xi, yj) >= q_value(p, eps, zig[2 * i : 2 * j + 2])

    reduced = []
    stack = [()]
    while stack:
        items = stack.pop()
        seq = CondNSeq(p, items)
        if is_q_reduced(p, eps, seq):
            reduced.append(seq)
        k = len(items) // 2
        zig = (bottom,) + items
        for y in ups[items[-1] if items else bottom]:
            if any(pair_fails(zig + (y,), i, k) for i in range(k)):
                continue
            for x in downs[y]:
                if not any(y_i in chains[x] for y_i in items[0::2]):
                    stack.append(items + (y, x))
    reduced.sort(key=lambda s: (s.t, tuple(idx[z] for z in s.items)))
    return tuple(reduced)


@lru_cache(maxsize=None)
def _below_indices(p):
    """For each element position, positions of the elements weakly below it."""
    idx = p.index
    return tuple(
        tuple(idx[w] for w in p.elements if p.leq(w, z)) for z in p.elements
    )


@lru_cache(maxsize=None)
def _up_cover_indices(p):
    idx = p.index
    return tuple(
        tuple(-1 if b == TOP else idx[b] for b in p.up_covers[z]) for z in p.elements
    )


@lru_cache(maxsize=None)
def _down_set_scan_tables(p):
    """The covers of P+ and the nonempty down-sets, as canonical positions (top -1)."""
    idx = p.index
    pairs = tuple(
        (idx[a], -1 if b == TOP else idx[b]) for a in p.elements for b in p.up_covers[a]
    )
    return pairs, tuple(frozenset(idx[z] for z in ideal) for ideal in poset_ideals(p))


def ideal_subtraction_minimal(p, n, vals):
    """Minimality by its definition: nu - 1_I leaves T^(n) for every down-set I.

    Scans every nonempty down-set of poset_ideals and recomputes each
    cover gap of P+ after the subtraction.
    """
    pairs, down_sets = _down_set_scan_tables(p)
    for members in down_sets:
        for ia, ib in pairs:
            gap = vals[ia] - (0 if ib < 0 else vals[ib])
            if ia in members:
                gap -= 1
            if ib >= 0 and ib in members:
                gap += 1
            if gap < n:
                break
        else:
            # nu - 1_I is still in T^(n), so nu was not minimal
            return False
    return True


def closure_minimal(p, n, vals):
    """Minimality decided without scanning every down-set.

    Subtracting a down-set indicator breaks T^(n) exactly when a tight
    cover (gap == n) crosses the boundary.  Down-sets avoiding all tight
    covers are closed under intersection and all contain the bottom, so
    one exists iff the closure of {bottom} under down-closure and tight
    covers misses the top.  Same criterion as is_minimal, but on bare
    value tuples with the down-closures precomputed, so the box oracles
    build no Labeling per point.
    """
    ups = _up_cover_indices(p)
    below = _below_indices(p)
    seen = [False] * len(vals)
    stack = [0]
    while stack:
        i = stack.pop()
        if seen[i]:
            continue
        seen[i] = True
        for j in below[i]:
            if not seen[j]:
                stack.append(j)
        for ib in ups[i]:
            if vals[i] - (0 if ib < 0 else vals[ib]) == n:
                if ib < 0:
                    return True
                if not seen[ib]:
                    stack.append(ib)
    return False


def box_values(p, n):
    """Yield the value tuples of T^(n) inside the degree box, value-lex.

    The box bounds qdist(n,z,top) <= nu(z) <= q_max(n) - qdist(n,x0,z) hold
    for every minimal element, so the box contains all of generators(n).
    """
    qm = q_max(p, n)
    elems = p.elements
    idx = p.index
    lo = [qdist(p, n, z, TOP) for z in elems]
    hi = [qm - qdist(p, n, p.bottom, z) for z in elems]
    down = [[idx[a] for a in p.down_covers[z]] for z in elems]
    m = len(elems)
    vals = [0] * m
    ub = [0] * m
    i = 0
    entering = True
    while i >= 0:
        if entering:
            b = hi[i]
            for j in down[i]:
                cap = vals[j] - n
                if cap < b:
                    b = cap
            ub[i] = b
            vals[i] = lo[i]
        else:
            vals[i] += 1
        if vals[i] > ub[i]:
            i -= 1
            entering = False
        elif i == m - 1:
            yield tuple(vals)
            entering = False
        else:
            i += 1
            entering = True


def t_box(p, n):
    """All of T^(n) inside the degree box, in value-lexicographic order."""
    return tuple(Labeling(p, vals) for vals in box_values(p, n))


def generators_box(p, n):
    """Minimal elements of T^(n) by the box route, value-lexicographic.

    Walks every point of T^(n) inside the degree box and keeps those that
    pass the closure test; independent of the sections and sequences the
    library's generators() is assembled from.  n = 0 yields the zero
    labeling alone.
    """
    return tuple(
        Labeling(p, vals) for vals in box_values(p, n) if closure_minimal(p, n, vals)
    )


def generators_sumset(p, n):
    """Value tuples of the minimal elements of T^(n), value-lex, by summing G_{+-1}.

    labelings.split writes every element of T^(n) as a part in T^(+-1)
    plus a part in T^(n -+ 1), and each part dominates a minimal element,
    so every minimal element of T^(n) is a sum of one of G_{+-1} and one
    of G_{n -+ 1} (the paper's omega^(n) = omega^n).  So the box route's
    G_{+-1} is summed |n| - 1 times, and closure_minimal filters each
    sumset.  Uses no sections or sequences.
    """
    if n == 0:
        return ((0,) * len(p.elements),)
    eps = 1 if n > 0 else -1
    ones = [vals for vals in box_values(p, eps) if closure_minimal(p, eps, vals)]
    level = set(ones)
    for k in range(2, abs(n) + 1):
        sums = {tuple(map(add, a, b)) for a in level for b in ones}
        level = {vals for vals in sums if closure_minimal(p, k * eps, vals)}
    return tuple(sorted(level))


def run_count(runs):
    """Points of runs (row, moving, length): the sum of their lengths."""
    return sum(run[2] for run in runs)


def section_runs_reference(c, n, earlier=()):
    """cones._section_runs by integer stepping, a state machine over the plan's levels.

    ub[t] is the upper end of level t's range, masks[t] the sections live
    on entering it and holding[t] its values where some hold; the step
    rule is written out here, not taken from cones._value_tasks.  The last
    level's range is split at its holding values, and each nonempty
    stretch between them is one run, whose row is built afresh from every
    pin (the walk keeps one row per entry and rewrites the coordinates of
    its last two levels).  Its runs must equal the library walk's exactly:
    order, rows and boundaries.
    """
    plan = _dilation(c, n, earlier)
    if plan is None or plan.live is None:
        return
    pins, checks, ends, keeps = plan.pins, plan.checks, plan.ends, plan.keeps
    r = len(plan.boxes)
    if not r:
        yield tuple([off for _, off in pins]), (), 1
        return
    last = r - 1
    moving = tuple(i for i, (t, _) in enumerate(pins) if t == last)
    x = [0] * (r + 1)  # x[-1] stays 0
    ub = [0] * r
    masks = [plan.live] + [0] * r
    holding = [None] * r
    t = 0
    entering = True
    while t >= 0:
        if entering:
            lo, hi = _level_range(plan, t, x)
            mask = masks[t]
            if mask:
                holding[t] = _holding(mask, checks[t], x, lo, hi)
            if t == last:
                cuts = sorted(holding[t]) if mask else []
                for start, end in zip([lo] + [v + 1 for v in cuts], cuts + [hi + 1]):
                    if start < end:
                        x[t] = start
                        yield tuple([x[u] + off for u, off in pins]), moving, end - start
                t -= 1
                entering = False
                continue
            x[t], ub[t] = lo - 1, hi
            entering = False
        x[t] += 1
        if x[t] > ub[t]:
            t -= 1
            continue
        mask = masks[t]
        if mask:
            bits = holding[t].get(x[t], 0)
            if bits & ends[t]:
                continue  # an earlier section has every point below this value
            mask = mask & keeps[t] | bits
        masks[t + 1] = mask
        t += 1
        entering = True


def step_tests(earlier, moving):
    """Per earlier section: its pairs split into fixed ones and ones that move.

    A moving pair (ix, iy, d, s) holds at step (d - w[ix] + w[iy]) * s of a
    run starting at w, where s = +-1 is the slope of w[ix] - w[iy].
    """
    moves = set(moving)
    tests = []
    for pairs in earlier:
        fixed, sloped = [], []
        for ix, iy, d in pairs:
            s = (ix in moves) - (iy in moves)
            if s:
                sloped.append((ix, iy, d, s))
            else:
                fixed.append((ix, iy, d))
        tests.append((fixed, sloped))
    return tests


def covered_steps(tests, w, length):
    """Steps 0 .. length-1 of the run from w on which some section's pairs all hold."""
    covered = set()
    for fixed, sloped in tests:
        for ix, iy, d in fixed:
            if w[ix] - w[iy] != d:
                break
        else:
            step = None
            for ix, iy, d, s in sloped:
                j = (d - w[ix] + w[iy]) * s
                if step is None:
                    step = j
                elif j != step:
                    break
            else:
                if step is None:
                    return range(length)
                if 0 <= step < length:
                    covered.add(step)
    return covered


def first_section_runs(p, n):
    """Per section of sign n, in enumerate_N order: (section, its runs at |n|).

    Each run of the section's own walk becomes (row, moving, length,
    covered), where covered holds the steps that an earlier section's
    pairs all hold on, found run by run: along a run only the moving
    coordinates rise, by one per step, so a pair holds at every step, at
    none, or at exactly one.  covered is a set, or range(length) when
    some earlier section holds on the whole run.
    """
    m = abs(n)
    earlier = []
    out = []
    for c in _sections(p, 1 if n > 0 else -1):
        runs = []
        for row, moving, length in _section_runs(c, m):
            covered = covered_steps(step_tests(earlier, moving), row + (0,), length)
            runs.append((row, moving, length, covered))
        out.append((c, runs))
        earlier.append(tuple((i, j, m * d) for i, j, d in _tight_pairs(c)))
    return out


def split_run(run):
    """The plain runs (row, moving, length) of a run (row, moving, length, covered).

    One per nonempty stretch of steps between the covered ones, in order,
    each starting at the first step of its stretch.
    """
    row, moving, length, covered = run
    runs, start = [], 0
    for end in sorted(covered) + [length]:
        if start < end:
            first = tuple(v + start if i in moving else v for i, v in enumerate(row))
            runs.append((first, moving, end - start))
        start = end + 1
    return runs


def dilation_fresh(c, n, earlier=()):
    """cones._dilation built afresh at n: no kept plan, nothing scaled.

    Contracts the pins with their offsets at n eps, closes the cover
    bounds, makes the 64-bit check and lays out the levels, the fronts and
    the earlier sections' checks from the n-fold weights.  earlier holds
    unit pairs, as _dilation takes them; they are scaled by n here.
    """
    if n < 1:
        raise ValueError("dilation must be positive")
    p = c.poset
    ne = n * c.epsilon
    idx = p.index
    m = len(p.elements)
    ties = [[] for _ in range(m + 1)]  # (j, w): nu(j) = nu(i) + w; m is the top
    for (_, y, _), part in zip(c.equalities, c.g_parts):
        a = m if y == TOP else idx[y]
        for z in part:
            if z != TOP and z != y:
                off = qdist(p, ne, z, y)
                ties[a].append((idx[z], off))
                ties[idx[z]].append((a, -off))
    root = [None] * (m + 1)
    offset = [0] * (m + 1)
    reps = []
    for r in [m] + list(range(m)):
        if root[r] is not None:
            continue
        root[r] = r
        reps.append(r)
        stack = [r]
        while stack:
            a = stack.pop()
            for b, w in ties[a]:
                if root[b] is None:
                    root[b], offset[b] = r, offset[a] + w
                    stack.append(b)
                elif offset[b] != offset[a] + w:
                    return None
    number = {r: k for k, r in enumerate(reps[1:] + [m])}  # reps[0] is the top
    pins = [(number[root[i]], offset[i]) for i in range(m + 1)]
    covers = {}
    for i, z in enumerate(p.elements):
        ka, oa = pins[i]
        for b in p.up_covers[z]:
            kb, ob = pins[m if b == TOP else idx[b]]
            w = oa - ob - ne  # nu(b) - nu(i) <= -n eps
            if ka == kb:
                if w < 0:
                    return None
            elif w < covers.get((ka, kb), float("inf")):
                covers[ka, kb] = w
    d = _close(len(reps), covers)
    if d is None:
        return None
    top = len(d) - 1
    dtop = d[top]
    bounds = [(off - d[k][top], off + dtop[k]) for k, off in pins[:-1]]
    for extremes in bounds:
        for v in extremes:
            if not INT64_MIN <= v <= INT64_MAX:
                raise OverflowError(f"labeling value {v} exceeds the 64-bit range")
    free = [k for k in range(top) if dtop[k] + d[k][top] != 0]
    level = {k: t for t, k in enumerate(free)}
    r = len(free)
    at = [(level[k], off) if k in level else (-1, off + dtop[k]) for k, off in pins]
    reads = [set() for _ in range(r)]
    for a, b in covers:
        if a in level and b in level:
            ta, tb = sorted((level[a], level[b]))
            reads[tb].add(ta)
    checks = [[] for _ in range(r)]
    ends = [0] * r
    live = 0
    for s, pairs in enumerate(earlier):
        tests = {}
        for i, j, w in pairs:
            (ua, oa), (ub, ob) = at[i], at[j]
            w = n * w + ob - oa  # x[ua] - x[ub] = w
            if ua == ub:
                if w:
                    break
            elif ua > ub:
                tests.setdefault(ua, []).append((ub, w))
            else:
                tests.setdefault(ub, []).append((ua, -w))
        else:
            if not tests:
                live = None
                break
            bit = 1 << s
            live |= bit
            ends[max(tests)] |= bit
            for t, test in tests.items():
                checks[t].append((bit, tuple(test)))
                reads[t].update(u for u, _ in test if u >= 0)
    last_read = [-1] * r
    for t, earlier_levels in enumerate(reads):
        for u in earlier_levels:
            last_read[u] = t
    fronts, front = [], []
    for t in range(r):
        fronts.append(tuple(front))
        front = [u for u in front if last_read[u] > t] + [t] * (last_read[t] > t)
    boxes, ups, lows = [], [], []
    for f, front in zip(free, fronts):
        df = d[f]
        boxes.append((-df[top], dtop[f]))
        ups.append(tuple((u, d[free[u]][f]) for u in front if d[free[u]][f] != d[free[u]][top] + dtop[f]))
        lows.append(tuple((u, df[free[u]]) for u in front if df[free[u]] != df[top] + dtop[free[u]]))
    keeps = [~sum(bit for bit, _ in level_checks) for level_checks in checks]
    return _Plan(
        tuple(at[:-1]),
        tuple(bounds),
        tuple(boxes),
        tuple(ups),
        tuple(lows),
        tuple(fronts),
        tuple(last_read),
        tuple(map(tuple, checks)),
        tuple(ends),
        tuple(keeps),
        live,
        max(max(-lo, hi) for lo, hi in bounds),
    )


def _staircase(c):
    """Witness points and the F_i partition from the shifted-family sweep."""
    p, eps, seq = c.poset, c.epsilon, c.seq
    t = seq.t
    used = set()
    points = []
    parts = []
    current = None
    for i in range(t + 1):
        s = t - i
        _, down_s, up_s = shifted_family(p, eps, seq, s)
        current = down_s if current is None else label_max(current, down_s)
        points.append(current)
        f_i = tuple(z for z in p.elements if current(z) < up_s(z) and z not in used)
        parts.append(frozenset(f_i))
        for z in f_i:
            used.add(z)
            current = current + indicator(p, (z,))
            points.append(current)
    return tuple(points), tuple(parts)


def affine_witnesses(c):
    """#F + t + 1 affinely independent integer points of the section: the dimension oracle.

    Starts from the fully shifted nu_down, walks each F_i in canonical
    order adding one unit at a time, and joins levels by pointwise max.
    """
    return _staircase(c)[0]


def witness_partition(c):
    """The F_i sets swept out by the witness staircase; their union is F."""
    return _staircase(c)[1]


def degree_range_listing(p, n):
    """degree_range by listing: the degrees of every generator, as a set."""
    lo, hi = q0(p, n), q_max(p, n)
    degrees = {v[0] for v in _run_values(_generator_runs(p, n))}
    return lo, hi, degrees == set(range(lo, hi + 1))


def standard_by_tuples(c, n_max):
    """is_standard by value tuples: each point of every tier looks up a split, one by one.

    Every dilation 1 .. n_max is listed as value tuples first, and a point
    of the n-th splits when taking some point of the first leaves a point
    of the (n-1)-th.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    tiers = {n: _run_values(_section_runs(c, n)) for n in range(1, n_max + 1)}
    for n in range(2, n_max + 1):
        lower = set(tiers[n - 1])
        for point in tiers[n]:
            if not any(tuple(a - b for a, b in zip(point, one)) in lower for one in tiers[1]):
                return False
    return True


def lattice_points_sweep(c, n):
    """Value tuples of the n-fold dilation of a section, value-lex, by a box sweep.

    Pins every G coordinate to its y anchor and sweeps the free
    coordinates inside the degree box from the last element down, with
    cover propagation only: conflicts with pins and the box are found when
    the sweep reaches them.  Independent of the closed constraint system
    the library enumerates from.
    """
    p = c.poset
    ne = n * c.epsilon
    qm = q_max(p, ne)
    elems = p.elements
    idx = p.index

    def pos(z):
        return -1 if z == TOP else idx[z]

    pins = [[] for _ in elems]
    for (x, y, _), part in zip(c.equalities, c.g_parts):
        for z in part:
            if z == TOP or z == y:
                continue
            pins[idx[z]].append((pos(y), qdist(p, ne, z, y)))
    ups = [tuple(pos(b) for b in p.up_covers[z]) for z in elems]
    lo_box = [qdist(p, ne, z, TOP) for z in elems]
    hi_box = [qm - qdist(p, ne, p.bottom, z) for z in elems]
    m = len(elems)
    vals = [0] * m
    ub = [0] * m
    out = []
    i = m - 1
    entering = True
    while i < m:
        if entering:
            lo, hi = lo_box[i], hi_box[i]
            for b in ups[i]:
                cap = (0 if b < 0 else vals[b]) + ne
                if cap > lo:
                    lo = cap
            pinned = pins[i]
            if pinned:
                a, off = pinned[0]
                v = (0 if a < 0 else vals[a]) + off
                if lo <= v <= hi and all(
                    (0 if a < 0 else vals[a]) + off == v for a, off in pinned[1:]
                ):
                    lo = hi = v
                else:
                    lo, hi = 1, 0  # no value fits
            vals[i], ub[i] = lo, hi
        else:
            vals[i] += 1
        if vals[i] > ub[i]:
            i += 1
            entering = False
        elif i == 0:
            out.append(tuple(vals))
            entering = False
        else:
            i -= 1
            entering = True
    out.sort()
    return tuple(out)


def brute_new_count(pieces, prime, e):
    """Degree-e vectors with no split v = v1 + prime^k * v2, by trying all pairs."""
    fresh = []
    for v in pieces[e]:
        decomposed = False
        for k in range(1, e):
            m = prime**k
            for v1 in pieces[k]:
                diff = tuple(a - b for a, b in zip(v, v1))
                if all(d % m == 0 for d in diff) and tuple(d // m for d in diff) in pieces[e - k]:
                    decomposed = True
                    break
            if decomposed:
                break
        if not decomposed:
            fresh.append(v)
    return fresh


def residue_new_elements(pieces, prime, e):
    """Top-piece vectors with no split v = v1 + prime**k * v2, by residue lookup.

    A valid first part v1 is congruent to v coordinatewise mod prime**k,
    so the candidates are looked up by residue class, and the remainder
    v - v1 is looked up among the second parts already scaled by prime**k.
    Works on value tuples in the order of pieces[e], without packing.
    """
    parts = []
    for k in range(1, e):
        mod = prime**k
        residue = mod.__rmod__  # a -> a % mod
        residues = {}
        for v1 in pieces[k]:
            residues.setdefault(tuple(map(residue, v1)), []).append(v1)
        scaled = {tuple(map(mod.__mul__, v2)) for v2 in pieces[e - k]}
        parts.append((residue, residues, scaled))

    def splits(v):
        for residue, residues, scaled in parts:
            for v1 in residues.get(tuple(map(residue, v)), ()):
                if tuple(map(sub, v, v1)) in scaled:
                    return True
        return False

    return [v for v in pieces[e] if not splits(v)]


# An integral polytope cut out by (coeffs . x <= rhs) rows inside the box
# lower .. upper: a piece-count input with no plan, listed by its box.
Polytope = namedtuple("Polytope", "dim inequalities lower upper")


def polytope_points(delta, n):
    """Value tuples of the n-th dilation of a Polytope, by filtering its box, value-lex."""
    ranges = [range(n * lo, n * hi + 1) for lo, hi in zip(delta.lower, delta.upper)]
    rows = delta.inequalities
    return [
        pt
        for pt in product(*ranges)
        if all(sum(c * x for c, x in zip(coeffs, pt)) <= n * rhs for coeffs, rhs in rows)
    ]


def h_e_polytope(delta, prime, e):
    """The fresh points at level e of a Polytope's Ehrhart ring, value-lex.

    Each piece is its box filtered (polytope_points) and packed for the
    top piece's box (cones._Packing); the library's split step
    (frobenius._drop_splits) strikes the sums a + prime**k * b.  So the
    packing and the split step meet inputs that are not sections.
    """
    unit = max(map(abs, delta.lower + delta.upper), default=0)
    packing = _Packing(delta.dim, (prime**e - 1) * unit)
    pieces = {
        k: list(map(packing.pack, polytope_points(delta, prime**k - 1))) for k in range(1, e + 1)
    }
    fresh = set(pieces.pop(e))
    _drop_splits(fresh, pieces, prime, e)
    return sorted(map(packing.unpack, fresh))


def c_e_polytope(delta, prime, e):
    """The number of fresh points at level e of a Polytope's Ehrhart ring (h_e_polytope)."""
    return len(h_e_polytope(delta, prime, e))


def lattice_tables_scan(elements, pairs):
    """(order, joins, meets) of a finite lattice, by scanning common bounds.

    Closes the relation by merging the up-sets of every member until
    nothing changes, checks antisymmetry pair by pair, and finds each join
    (meet) as the common upper (lower) bound whose own up-set (down-set)
    holds all the others.  Raises NotALattice with the texts that
    build_dist_lattice uses, for the same first offending pair.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise NotALattice("duplicate element ids")
    idx = {z: i for i, z in enumerate(elements)}
    n = len(elements)
    if n == 0:
        raise NotALattice("empty element list")

    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in idx or b not in idx:
            raise NotALattice(f"unknown id in order pair ({a!r}, {b!r})")
        up[idx[a]] |= 1 << idx[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for k in range(n):
                if acc >> k & 1:
                    acc |= up[k]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise NotALattice(
                    f"order is not antisymmetric: {elements[i]!r} and {elements[j]!r}"
                )
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]

    def extremum(masks, bounds, kind, i, j):
        for k in range(n):
            if bounds >> k & 1 and masks[k] & bounds == bounds:
                return k
        raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no {kind}")

    joins = [[0] * n for _ in range(n)]
    meets = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ub = up[i] & up[j]
            lb = down[i] & down[j]
            if not ub:
                raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no join")
            if not lb:
                raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no meet")
            joins[i][j] = joins[j][i] = extremum(up, ub, "join", i, j)
            meets[i][j] = meets[j][i] = extremum(down, lb, "meet", i, j)
    order = frozenset(
        (elements[i], elements[j]) for i in range(n) for j in range(n) if up[i] >> j & 1
    )
    return order, tuple(map(tuple, joins)), tuple(map(tuple, meets))


def poset_isomorphic_pairs(p, q):
    """birkhoff.poset_isomorphic by a search that checks every mapped pair.

    The same candidates (by _signatures) and the same order, but each
    candidate w for z is tested against every element mapped so far,
    for a cover either way, not only against z's covers.
    """
    if len(p.elements) != len(q.elements) or len(p.covers) != len(q.covers):
        return False
    sp, sq = _signatures(p), _signatures(q)
    if sorted(sp.values()) != sorted(sq.values()):
        return False
    cands = {z: tuple(w for w in q.elements if sq[w] == sp[z]) for z in p.elements}
    order = sorted(p.elements, key=lambda z: len(cands[z]))
    p_cov, q_cov = p.covers, q.covers
    mapping = {}

    def extend(i):
        if i == len(order):
            return True
        z = order[i]
        for w in cands[z]:
            if w in mapping.values():
                continue
            if all(
                ((z, z2) in p_cov) == ((w, w2) in q_cov)
                and ((z2, z) in p_cov) == ((w2, w) in q_cov)
                for z2, w2 in mapping.items()
            ):
                mapping[z] = w
                if extend(i + 1):
                    return True
                del mapping[z]
        return False

    return extend(0)


def generators_report(name, p, n, fmt):
    """The text of hibi generators, rendered from one Labeling per generator."""
    gens = generators(p, n)
    if fmt == "json":
        payload = {
            "name": name,
            "n": n,
            "count": len(gens),
            "generators": [{"degree": nu.degree, "values": nu.as_dict()} for nu in gens],
        }
        return json.dumps(payload, indent=2, ensure_ascii=False)
    row = " ".join(z.replace("%", "%%") + "=%d" for z in p.elements)
    lines = [f"poset {name}: {len(gens)} generators for n = {n}"]
    lines += ["  degree %4d  " % nu.values[0] + row % nu.values for nu in gens]
    return "\n".join(lines)


def lattice_from_ideals(p):
    """The lattice of nonempty down-sets, built from poset_ideals as frozensets.

    A cover I < I + {z} is found by testing every element z outside I
    against its lower covers and looking up the frozenset union.
    """
    ideals = poset_ideals(p)
    labels = tuple(
        "{" + ",".join(str(z) for z in p.elements if z in ideal) + "}" for ideal in ideals
    )
    where = {ideal: i for i, ideal in enumerate(ideals)}
    downs = p.down_covers
    covers = [
        (labels[i], labels[where[ideal | {z}]])
        for i, ideal in enumerate(ideals)
        for z in p.elements
        if z not in ideal and all(a in ideal for a in downs[z])
    ]
    return build_dist_lattice(labels, covers)


def lattice_tables(h):
    """(order, joins, meets) as lattice_tables_scan gives them, read off leq, join and meet."""
    els, pos = h.elements, h.index
    order = frozenset((a, b) for a in els for b in els if h.leq(a, b))
    joins = tuple(tuple(pos[h.join(a, b)] for b in els) for a in els)
    meets = tuple(tuple(pos[h.meet(a, b)] for b in els) for a in els)
    return order, joins, meets


def distributive_law(h):
    """The meet-over-join law checked on every triple, on the tables of join and meet."""
    n = len(h.elements)
    _, joins, meets = lattice_tables(h)
    for a in range(n):
        row = meets[a]
        for b in range(n):
            ab = row[b]
            for c in range(n):
                if row[joins[b][c]] != joins[ab][row[c]]:
                    return False
    return True


@st.composite
def closure_systems(draw, points=5):
    """A finite lattice as an intersection-closed family of subsets.

    Up to `points` points; the drawn subsets are closed under intersection
    and the full set is added, and every finite lattice arises this way,
    ordered by inclusion.  Returns (elements, pairs): the sets in a drawn
    order, and either every strict inclusion or only the covering ones, in
    a drawn order.
    """
    k = draw(st.integers(min_value=0, max_value=points))
    full = (1 << k) - 1
    family = {full} | set(draw(st.lists(st.integers(0, full), max_size=8)))
    while True:
        meets = {a & b for a in family for b in family}
        if meets <= family:
            break
        family |= meets
    sets = draw(st.permutations(sorted(family)))
    names = ["{" + ",".join(str(i) for i in range(k) if s >> i & 1) + "}" for s in sets]
    below = [
        (a, b) for a in range(len(sets)) for b in range(len(sets))
        if a != b and sets[a] & sets[b] == sets[a]
    ]
    if draw(st.booleans()):
        inner = set(below)
        below = [
            (a, b) for a, b in below
            if not any((a, c) in inner and (c, b) in inner for c in range(len(sets)))
        ]
    pairs = draw(st.permutations([(names[a], names[b]) for a, b in below]))
    return names, pairs


@st.composite
def small_posets(draw, max_extra=5):
    """Random posets on x0 plus up to max_extra elements above it."""
    k = draw(st.integers(min_value=1, max_value=max_extra))
    names = tuple(f"e{i}" for i in range(k))
    pool = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = draw(st.frozensets(st.sampled_from(pool))) if pool else frozenset()
    covers = [(names[i], names[j]) for i, j in sorted(chosen)]
    rooted = {j for _, j in chosen}
    covers += [("x0", names[j]) for j in range(k) if j not in rooted]
    return build_poset(("x0",) + names, tuple(covers), "x0")
