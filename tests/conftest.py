"""Shared fixtures and independent oracles for the test battery.

The oracles here recompute module outputs by a different route (exhaustive
DFS, powerset filtering, brute-force pair search, build-then-filter
sequence enumeration, the degree-box sweeps of T^(n) and of one section)
so the library code is never checked against itself.
"""

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import strategies as st

from hibi.corpus import all_builtins, p1, p2, p3
from hibi.labelings import Labeling
from hibi.poset import TOP, build_poset, qdist
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


def closure_minimal(p, n, vals):
    """Minimality decided without scanning every down-set.

    Subtracting a down-set indicator breaks T^(n) exactly when a tight
    cover (gap == n) crosses the boundary.  Down-sets avoiding all tight
    covers are closed under intersection and all contain the bottom, so
    one exists iff the closure of {bottom} under down-closure and tight
    covers misses the top.  Same criterion as is_minimal, evaluated by
    one graph search instead of one pass per down-set.
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
