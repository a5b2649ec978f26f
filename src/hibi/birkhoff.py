"""Duality between finite distributive lattices and their posets of
join-irreducible elements, plus the degree-one monomial generators of the
associated semigroup ring.

A finite distributive lattice is reconstructed from the subposet of its
join-irreducible elements (the bottom counts as join-irreducible, matching
the convention that lattice elements correspond to nonempty down-sets).
The round trip through either side is the identity up to isomorphism.
"""

from collections import namedtuple
from functools import cached_property

from .errors import NotALattice, NotDistributive
from .labelings import indicator
from .poset import build_poset, poset_ideals


class DistLattice(namedtuple("DistLattice", "elements order joins meets")):
    """Finite lattice: element order, full order relation, join/meet tables.

    joins and meets are square tables indexed by element positions and
    holding element positions.  build_dist_lattice is the validating
    constructor; it computes the tables from the order relation.

    No __slots__: the cached properties below live in the instance dict.
    """

    @cached_property
    def index(self):
        return {z: i for i, z in enumerate(self.elements)}

    @cached_property
    def bottom(self):
        for z in self.elements:
            if all((z, w) in self.order for w in self.elements):
                return z
        raise NotALattice("no minimum element")

    @cached_property
    def top(self):
        for z in self.elements:
            if all((w, z) in self.order for w in self.elements):
                return z
        raise NotALattice("no maximum element")

    def leq(self, a, b):
        return (a, b) in self.order

    def join(self, a, b):
        idx = self.index
        return self.elements[self.joins[idx[a]][idx[b]]]

    def meet(self, a, b):
        idx = self.index
        return self.elements[self.meets[idx[a]][idx[b]]]


def build_dist_lattice(elements, pairs):
    """Validate an order given by (below, above) pairs and build the lattice.

    The pairs may be any generating set; the reflexive-transitive closure
    is computed here.  Raises NotALattice when the closure is not a
    partial order or some pair of elements lacks a join or a meet.
    Distributivity is deliberately not checked here, so nondistributive
    lattices can be built and fed to join_irreducibles for its error path.
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
            scan = acc
            while scan:
                low = scan & -scan
                acc |= up[low.bit_length() - 1]
                scan ^= low
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise NotALattice(
                    f"order is not antisymmetric: {elements[i]!r} and {elements[j]!r}"
                )

    down = [0] * n
    for i in range(n):
        scan = up[i]
        while scan:
            low = scan & -scan
            down[low.bit_length() - 1] |= 1 << i
            scan ^= low

    def extremum(masks, bounds, kind, i, j):
        scan = bounds
        while scan:
            low = scan & -scan
            k = low.bit_length() - 1
            if masks[k] & bounds == bounds:
                return k
            scan ^= low
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
    return DistLattice(
        elements,
        order,
        tuple(tuple(row) for row in joins),
        tuple(tuple(row) for row in meets),
    )


def is_distributive(h):
    """Exhaustive check of the meet-over-join law on all triples."""
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


def _ideal_label(p, ideal):
    return "{" + ",".join(str(z) for z in p.elements if z in ideal) + "}"


def lattice_from_poset(p):
    """Lattice of nonempty down-sets of P ordered by inclusion.

    Join is union and meet is intersection; element ids spell out the
    members in canonical order, so the output is deterministic.
    """
    ideals = poset_ideals(p)
    labels = tuple(_ideal_label(p, ideal) for ideal in ideals)
    pairs = [
        (labels[i], labels[j])
        for i, small in enumerate(ideals)
        for j, big in enumerate(ideals)
        if small <= big
    ]
    return build_dist_lattice(labels, pairs)


def join_irreducibles(h):
    """Induced subposet of join-irreducible elements of a distributive lattice.

    An element is join-irreducible when it is not the join of two strictly
    smaller elements; the bottom qualifies vacuously and becomes the bottom
    of the returned poset.
    """
    if not is_distributive(h):
        raise NotDistributive("lattice violates the distributive law")
    n = len(h.elements)
    reducible = [False] * n
    for a in range(n):
        for b in range(a + 1, n):
            j = h.joins[a][b]
            if j != a and j != b:
                reducible[j] = True
    ji = [z for i, z in enumerate(h.elements) if not reducible[i]]
    pairs = [(a, b) for a in ji for b in ji if a != b and h.leq(a, b)]
    return build_poset(ji, pairs, h.bottom)


def hibi_generators(p):
    """Degree-one monomial generators: one 0/1 labeling per nonempty down-set."""
    return tuple(indicator(p, ideal) for ideal in poset_ideals(p))


def _signatures(p):
    """Isomorphism-invariant element signatures by iterated neighbor refinement."""
    from .poset import TOP

    ups = {z: tuple(b for b in p.up_covers[z] if b != TOP) for z in p.elements}
    downs = {z: tuple(b for b in p.down_covers[z] if b != TOP) for z in p.elements}
    sig = {z: (len(ups[z]), len(downs[z])) for z in p.elements}
    for _ in range(len(p.elements)):
        canon = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {
            z: (
                canon[sig[z]],
                tuple(sorted(canon[sig[w]] for w in ups[z])),
                tuple(sorted(canon[sig[w]] for w in downs[z])),
            )
            for z in p.elements
        }
        if len(set(new.values())) == len(set(sig.values())):
            sig = new
            break
        sig = new
    canon = {s: i for i, s in enumerate(sorted(set(sig.values())))}
    return {z: canon[sig[z]] for z in p.elements}


def poset_isomorphic(p, q):
    """True iff some bijection of elements matches the cover relations exactly."""
    if len(p.elements) != len(q.elements) or len(p.covers) != len(q.covers):
        return False
    sp = _signatures(p)
    sq = _signatures(q)
    if sorted(sp.values()) != sorted(sq.values()):
        return False
    cands = {z: tuple(w for w in q.elements if sq[w] == sp[z]) for z in p.elements}
    order = sorted(p.elements, key=lambda z: len(cands[z]))
    p_cov, q_cov = p.covers, q.covers
    mapping = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        z = order[i]
        for w in cands[z]:
            if w in used:
                continue
            ok = True
            for z2, w2 in mapping.items():
                if ((z, z2) in p_cov) != ((w, w2) in q_cov) or (
                    (z2, z) in p_cov
                ) != ((w2, w) in q_cov):
                    ok = False
                    break
            if ok:
                mapping[z] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[z]
                used.discard(w)
        return False

    return extend(0)
