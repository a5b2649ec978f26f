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

A lattice keeps only the bitmask rows of its order; joins, meets and the
join-irreducibles are read off them, with no table over pairs.  Each
product is kept by the object it derives from, by the one rule of
poset._kept: a poset keeps its lattice and its signatures, a lattice its
poset of join-irreducibles.
"""

from collections import namedtuple
from functools import cached_property
from itertools import islice

from .errors import NotALattice, NotDistributive
from .labelings import indicator
from .poset import TOP, _down_sets, _kept, bit_positions, build_poset, down_set_masks, poset_ideals


class DistLattice(namedtuple("DistLattice", "elements up down")):
    """Finite lattice: elements and the bitmask rows of the order.

    Bit j of up[i] (of down[i]) is set when j lies above (below) i, i
    itself included.  build_dist_lattice is the validating constructor.
    leq tests one bit; the join of a and b is the element whose up row is
    up[a] & up[b], found by one dict lookup, and meets likewise.

    No __slots__: the cached properties below live in the instance dict.
    """

    @cached_property
    def index(self):
        return {z: i for i, z in enumerate(self.elements)}

    @cached_property
    def _where_up(self):
        return {mask: i for i, mask in enumerate(self.up)}

    @cached_property
    def _where_down(self):
        return {mask: i for i, mask in enumerate(self.down)}

    @cached_property
    def bottom(self):
        if (1 << len(self.elements)) - 1 not in self._where_up:
            raise NotALattice("no minimum element")
        return self.elements[self._where_up[(1 << len(self.elements)) - 1]]

    @cached_property
    def top(self):
        if (1 << len(self.elements)) - 1 not in self._where_down:
            raise NotALattice("no maximum element")
        return self.elements[self._where_down[(1 << len(self.elements)) - 1]]

    @cached_property
    def _irreducibles(self):
        """Join-irreducible positions along a linear extension, with masks.

        The bottom counts as join-irreducible.  An element of a finite
        lattice is join-irreducible exactly when the elements strictly
        below it have a largest one, their join; that is when its strict
        down row is 0 or another element's down row.  The second item
        gives, for each position of the extension, the bitmask of the
        earlier positions below it.
        """
        down, where = self.down, self._where_down
        irr = [k for k, row in enumerate(down) if row == 1 << k or row ^ 1 << k in where]
        irr_mask = sum(1 << k for k in irr)
        below = {k: (down[k] & irr_mask) ^ 1 << k for k in irr}
        # fewer elements below comes first, so this is a linear extension
        ext = sorted(irr, key=lambda k: below[k].bit_count())
        pos = {k: t for t, k in enumerate(ext)}
        return tuple(ext), tuple(sum(1 << pos[j] for j in bit_positions(below[k])) for k in ext)

    def leq(self, a, b):
        idx = self.index
        return bool(self.up[idx[a]] >> idx[b] & 1)

    def join(self, a, b):
        idx, up = self.index, self.up
        return self.elements[self._where_up[up[idx[a]] & up[idx[b]]]]

    def meet(self, a, b):
        idx, down = self.index, self.down
        return self.elements[self._where_down[down[idx[a]] & down[idx[b]]]]


def _closure(nbrs, sweep):
    """Closure rows of the lists nbrs, swept in the order sweep until none changes.

    When each list holds only positions swept before its own, one sweep closes.
    """
    rows = [1 << i for i in range(len(nbrs))]
    changed = True
    while changed:
        changed = False
        for i in sweep:
            acc = rows[i]
            for j in nbrs[i]:
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return rows


def build_dist_lattice(elements, pairs):
    """Validate an order given by (below, above) pairs and build the lattice.

    The pairs may be any generating set; their closure is computed here,
    as up rows swept over the successors from the last element to the
    first and down rows swept over the predecessors from the first to the
    last.  Raises NotALattice when the closure is not a partial order or
    some pair of elements lacks a join or a meet.  Distributivity is
    deliberately not checked here, so nondistributive lattices can be
    built and fed to join_irreducibles for its error path.

    A finite poset with a bottom in which every pair has a join is a
    lattice (a meet is the join of the common lower bounds), so it checks
    that some up row is full and that up[i] & up[j] is an up row for each
    i < j, storing nothing; only on failure does it scan the pairs in
    order to name the first without a join or a meet.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise NotALattice("duplicate element ids")
    idx = {z: i for i, z in enumerate(elements)}
    n = len(elements)
    if n == 0:
        raise NotALattice("empty element list")

    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for a, b in pairs:
        if a not in idx or b not in idx:
            raise NotALattice(f"unknown id in order pair ({a!r}, {b!r})")
        i, j = idx[a], idx[b]
        succ[i].append(j)
        pred[j].append(i)
    up = _closure(succ, range(n - 1, -1, -1))
    h = DistLattice(elements, tuple(up), tuple(_closure(pred, range(n))))
    down, where_up = h.down, h._where_up
    if len(where_up) < n:
        # two equal up rows are two elements each below the other
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] == up[j]:
                    raise NotALattice(
                        f"order is not antisymmetric: {elements[i]!r} and {elements[j]!r}"
                    )
    if (1 << n) - 1 not in where_up or not all(
        all(map(where_up.__contains__, map(u.__and__, up[i + 1 :]))) for i, u in enumerate(up)
    ):
        # not a lattice, so this scan raises
        for i in range(n):
            for j in range(i, n):
                if not up[i] & up[j]:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no join")
                if not down[i] & down[j]:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no meet")
                if up[i] & up[j] not in where_up:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no join")
                if down[i] & down[j] not in h._where_down:
                    raise NotALattice(f"{elements[i]!r} and {elements[j]!r} have no meet")
    return h


def is_distributive(h):
    """Birkhoff's count: as many elements as the join-irreducibles have down-sets.

    The count stops as soon as it passes the lattice size.
    """
    n = len(h.elements)
    # the empty down-set is counted too, and matches no element
    found = sum(1 for _ in islice(down_set_masks(h._irreducibles[1]), n + 2))
    return found == n + 1


@_kept
def lattice_from_poset(p):
    """Lattice of nonempty down-sets of P ordered by inclusion; P keeps it.

    Join is union and meet is intersection; element ids spell out the
    members in canonical order, so the output is deterministic.  Bit j of
    up[i] (of down[i]) is set when mask i lies in mask j (mask j in mask
    i), and as the masks run by size only a later (earlier) one can.  By
    Birkhoff's theorem the order is a distributive lattice, so nothing is
    closed or checked.  P keeps the lattice, so every later call returns
    the same object, with what that keeps in turn (join_irreducibles).
    """
    masks = _down_sets(p)
    names = [str(z) for z in p.elements]
    labels = tuple("{" + ",".join(names[i] for i in bit_positions(m)) + "}" for m in masks)
    n = len(masks)
    up = tuple(sum(1 << j for j in range(i, n) if m & masks[j] == m) for i, m in enumerate(masks))
    down = tuple(
        sum(1 << j for j in range(i + 1) if masks[j] & m == masks[j]) for i, m in enumerate(masks)
    )
    return DistLattice(labels, up, down)


@_kept
def join_irreducibles(h):
    """Induced subposet of join-irreducible elements of a distributive lattice.

    An element is join-irreducible when it is not the join of two strictly
    smaller elements; the bottom qualifies vacuously and becomes the bottom
    of the returned poset.  H keeps that poset, so a later call returns
    the same object; a lattice that is not distributive keeps nothing and
    raises on every call.
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


@_kept
def _signatures(p):
    """Isomorphism-invariant element signatures by iterated neighbor refinement; P keeps them.

    The refinement starts from each element's numbers of upper and lower
    covers and its longest chains down to the bottom and up to a maximal
    element, all isomorphism invariants.  The two chain lengths take one
    pass over the canonical order each, and on a chain they already tell
    every element apart.  P keeps the signatures; callers only read them.
    """
    ups = {z: tuple(b for b in p.up_covers[z] if b != TOP) for z in p.elements}
    downs = {z: tuple(b for b in p.down_covers[z] if b != TOP) for z in p.elements}
    depth, height = {}, {}
    for z in p.elements:
        depth[z] = max((depth[w] + 1 for w in downs[z]), default=0)
    for z in reversed(p.elements):
        height[z] = max((height[w] + 1 for w in ups[z]), default=0)
    sig = {z: (len(ups[z]), len(downs[z]), depth[z], height[z]) for z in p.elements}
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
    p_up, p_down, q_up, q_down = p.up_covers, p.down_covers, q.up_covers, q.down_covers
    mapping = {}
    used = set()
    # tries[i] yields the candidates still untried for order[i]; the stack
    # of them replaces one recursion level per element.  The covers among
    # the elements mapped so far match, so a candidate w for z need only
    # match z's covers among them with w's.
    tries = [iter(cands[order[0]])]
    while tries:
        i = len(tries) - 1
        z = order[i]
        ups = {mapping[a] for a in p_up[z] if a in mapping}
        downs = {mapping[a] for a in p_down[z] if a in mapping}
        for w in tries[-1]:
            if w in used:
                continue
            if ups == used.intersection(q_up[w]) and downs == used.intersection(q_down[w]):
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
