"""Duality between finite distributive lattices and their posets of
join-irreducible elements, plus the degree-one monomial generators of the
associated semigroup ring.

A finite distributive lattice is reconstructed from the subposet of its
join-irreducible elements (the bottom counts as join-irreducible, matching
the convention that lattice elements correspond to nonempty down-sets).
The round trip through either side is the identity up to isomorphism.

Every lattice element x is the join of the set J(x) of join-irreducibles
below it, so x -> J(x) maps the lattice one-to-one into the nonempty
down-sets of its join-irreducibles.  By Birkhoff's representation theorem
(Birkhoff, "Rings of sets", 1937; Davey & Priestley, Introduction to
Lattices and Order, 2002, ch. 5) the lattice is distributive exactly when
that map is onto, that is when the two sets have the same size.
is_distributive decides by that count, in time quadratic in the lattice
size, instead of testing the distributive law on every triple.
"""

from collections import namedtuple
from functools import cached_property
from itertools import islice

from .errors import NotALattice, NotDistributive
from .labelings import indicator
from .poset import bit_positions, build_poset, down_set_masks, poset_ideals


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

    @cached_property
    def _irreducibles(self):
        """Join-irreducible positions along a linear extension, with masks.

        The bottom counts as join-irreducible.  An element is reducible
        when it is the join of two elements other than itself, both then
        strictly below it.  The second item gives, for each position of the
        extension, the bitmask of the earlier positions below it.
        """
        joins = self.joins
        reducible = {
            k for i, row in enumerate(joins) for j, k in enumerate(row) if k != i and k != j
        }
        irr = [i for i in range(len(joins)) if i not in reducible]
        below = {k: [j for j in irr if j != k and joins[j][k] == k] for k in irr}
        # fewer elements below comes first, so this is a linear extension
        ext = sorted(irr, key=lambda k: len(below[k]))
        pos = {k: t for t, k in enumerate(ext)}
        return tuple(ext), tuple(sum(1 << pos[j] for j in below[k]) for k in ext)

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

    Elements are bitmask rows: up[i] holds the positions above i and
    down[i] those below it.  The join of i and j is the element whose up
    row is exactly up[i] & up[j], found by one dict lookup; meets likewise
    on the down rows.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise NotALattice("duplicate element ids")
    idx = {z: i for i, z in enumerate(elements)}
    n = len(elements)
    if n == 0:
        raise NotALattice("empty element list")

    succ = [[] for _ in range(n)]
    for a, b in pairs:
        if a not in idx or b not in idx:
            raise NotALattice(f"unknown id in order pair ({a!r}, {b!r})")
        succ[idx[a]].append(idx[b])
    up = [1 << i for i in range(n)]
    # Sweeps from the last element to the first; when every pair goes from
    # an earlier to a later element, the first sweep closes the relation.
    changed = True
    while changed:
        changed = False
        for i in reversed(range(n)):
            acc = up[i]
            for j in succ[i]:
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    where_up = {mask: i for i, mask in enumerate(up)}
    if len(where_up) < n:
        # two equal up rows are two elements each below the other
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] == up[j]:
                    raise NotALattice(
                        f"order is not antisymmetric: {elements[i]!r} and {elements[j]!r}"
                    )

    down = [0] * n
    order = []
    for i, mask in enumerate(up):
        for j in bit_positions(mask):
            down[j] |= 1 << i
            order.append((elements[i], elements[j]))
    where_down = {mask: i for i, mask in enumerate(down)}

    # -1 marks a pair without a join (or meet); the scan below names the first
    joins = tuple(tuple(where_up.get(u & v, -1) for v in up) for u in up)
    meets = tuple(tuple(where_down.get(d & e, -1) for e in down) for d in down)
    if any(-1 in row for row in joins) or any(-1 in row for row in meets):
        for i in range(n):
            for j in range(i, n):
                if not up[i] & up[j]:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no join")
                if not down[i] & down[j]:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no meet")
                if joins[i][j] < 0:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no join")
                if meets[i][j] < 0:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no meet")
    return DistLattice(elements, frozenset(order), joins, meets)


def is_distributive(h):
    """Birkhoff's count: as many elements as the join-irreducibles have down-sets.

    The count stops as soon as it passes the lattice size.
    """
    n = len(h.elements)
    # the empty down-set is counted too, and matches no element
    found = sum(1 for _ in islice(down_set_masks(h._irreducibles[1]), n + 2))
    return found == n + 1


def _ideal_label(p, ideal):
    return "{" + ",".join(str(z) for z in p.elements if z in ideal) + "}"


def lattice_from_poset(p):
    """Lattice of nonempty down-sets of P ordered by inclusion.

    Join is union and meet is intersection; element ids spell out the
    members in canonical order, so the output is deterministic.  The order
    is passed as its covers I < I + {z}, each from a smaller down-set to a
    larger one, which build_dist_lattice closes in one sweep.
    """
    ideals = poset_ideals(p)
    labels = tuple(_ideal_label(p, ideal) for ideal in ideals)
    where = {ideal: i for i, ideal in enumerate(ideals)}
    downs = p.down_covers
    covers = [
        (labels[i], labels[where[ideal | {z}]])
        for i, ideal in enumerate(ideals)
        for z in p.elements
        if z not in ideal and all(a in ideal for a in downs[z])
    ]
    return build_dist_lattice(labels, covers)


def join_irreducibles(h):
    """Induced subposet of join-irreducible elements of a distributive lattice.

    An element is join-irreducible when it is not the join of two strictly
    smaller elements; the bottom qualifies vacuously and becomes the bottom
    of the returned poset.
    """
    if not is_distributive(h):
        raise NotDistributive("lattice violates the distributive law")
    ext, below = h._irreducibles
    names = [h.elements[k] for k in ext]
    covers = []
    for t, mask in enumerate(below):
        # s is covered by t when it is below no other element below t
        inner = 0
        for s in bit_positions(mask):
            inner |= below[s]
        covers += [(names[s], names[t]) for s in bit_positions(mask & ~inner)]
    ji = [h.elements[k] for k in sorted(ext)]
    return build_poset(ji, covers, h.bottom)


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
    # tries[i] yields the candidates still untried for order[i]; the stack
    # of them replaces one recursion level per element
    tries = [iter(cands[order[0]])]
    while tries:
        i = len(tries) - 1
        z = order[i]
        for w in tries[-1]:
            if w in used:
                continue
            if all(
                ((z, z2) in p_cov) == ((w, w2) in q_cov)
                and ((z2, z) in p_cov) == ((w2, w) in q_cov)
                for z2, w2 in mapping.items()
            ):
                mapping[z] = w
                used.add(w)
                if i + 1 == len(order):
                    return True
                tries.append(iter(cands[order[i + 1]]))
                break
        else:
            tries.pop()
            if tries:
                used.discard(mapping.pop(order[i - 1]))
    return False
