"""Shared fixtures and independent oracles for the test battery.

The oracles here recompute module outputs by a different route (exhaustive
DFS, powerset filtering, brute-force pair search, build-then-filter
sequence enumeration, the down-set scan for minimality, the degree-box
sweeps of T^(n) and of one section, the residue search for fresh
Frobenius vectors, the bound scans of lattice joins and meets, the
distributive law on every triple) so the library code is never checked
against itself.
"""

from functools import lru_cache
from itertools import combinations, product
from operator import sub

import pytest
from hypothesis import strategies as st

from hibi.corpus import all_builtins, p1, p2, p3
from hibi.errors import NotALattice
from hibi.labelings import Labeling
from hibi.poset import TOP, build_poset, poset_ideals, qdist
from hibi.sequences import CondNSeq, is_q_reduced, q_max


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


def polytope_points(delta, n):
    """Value tuples of the n-th dilation of a Polytope, by filtering its box, value-lex."""
    ranges = [range(n * lo, n * hi + 1) for lo, hi in zip(delta.lower, delta.upper)]
    rows = delta.inequalities
    return [
        pt
        for pt in product(*ranges)
        if all(sum(c * x for c, x in zip(coeffs, pt)) <= n * rhs for coeffs, rhs in rows)
    ]


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


def distributive_law(h):
    """The meet-over-join law checked on every triple of elements."""
    n = len(h.elements)
    joins, meets = h.joins, h.meets
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
