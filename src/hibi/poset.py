"""Finite posets with a unique bottom element and a virtual top.

A poset here always has a distinguished bottom x0 that lies below every
element, and every distance-style computation runs in the extended poset
P+ obtained by adjoining a virtual top above all maximal elements.  The
top is the reserved id TOP and is never part of the input element list.

Saturated-chain lengths (shortest and longest) between comparable pairs
are computed once per poset in one pass over the canonical order,
backwards: the row of x is x itself at (0, 0) plus the rows of its upper
covers, each length one longer, keeping the minimum and the maximum.
Comparability, the distances and the chain strata all read that table.

The poset is the one owner of the data derived from it.  Each item is
built on first use, lives in the instance dict, and goes away with the
poset; no module keeps a cache keyed by a poset.  The canonical layout
(index, up_covers, down_covers, plus_elements), the chain table (_chains:
per source x, the shortest and longest saturated chain to every y >= x
in P+, its keys the up-set of x) and the covers of P+ as index pairs
(_cover_pairs) are cached properties.  Everything a module derives from
a poset or a lattice is kept by one rule (_kept): under the name of the
function that builds it, in a dict keyed by the function's other
arguments, and only once the build returns.  So kept are the reduced
sequences per sign (sequences.enumerate_N), their sections
(cones._sections), each with the tight pairs of those before it
(fiber._first_sections), the unit dilation plan of each section given
the sections before it (cones._unit_plan), the number of minimal elements
of each T^(n) (fiber._generator_count), the lattice of down-sets and the
element signatures (birkhoff.lattice_from_poset, birkhoff._signatures),
and a lattice's poset of join-irreducibles (birkhoff.join_irreducibles).
Two products keep in the same layout by hand, as what they hand out
also depends on a cap: the down-sets as bitmasks of canonical positions
(_down_sets, under ()), and the twisted-piece rows of every target the
poset owns, its fiber cone and each section (frobenius._row, per
target, prime and exponent), refused counts included.
"""

import heapq
from collections import namedtuple
from functools import cached_property, wraps
from itertools import islice

from .errors import InvalidPoset

TOP = "∞"


def _kept(build):
    """build(owner, *args), kept by the owner in owner.__dict__[build's name][args].

    A build that raises keeps nothing, and no empty dict is left behind.
    Unhashable arguments are left to the build's own checks.
    """
    name = build.__name__

    @wraps(build)
    def kept(owner, *args):
        try:
            return owner.__dict__[name][args]
        except (KeyError, TypeError):
            pass
        value = build(owner, *args)
        owner.__dict__.setdefault(name, {})[args] = value
        return value

    return kept


class Poset(namedtuple("Poset", "elements covers bottom")):
    """Finite poset: canonical element order, irredundant covers, bottom.

    elements are stored in the canonical order (input order refined by a
    topological sort of the cover relation), so elements[0] is always the
    bottom.  covers holds the Hasse diagram of P only; covers into the
    virtual top are implicit (one from each maximal element).

    No __slots__: the cached properties below live in the instance dict.
    """

    @cached_property
    def index(self):
        return {z: i for i, z in enumerate(self.elements)}

    @cached_property
    def up_covers(self):
        """id -> tuple of covering elements in P+ (maximal ids get TOP)."""
        ups = {z: [] for z in self.elements}
        for a, b in self.covers:
            ups[a].append(b)
        idx = self.index
        out = {}
        for z, lst in ups.items():
            lst.sort(key=idx.__getitem__)
            out[z] = tuple(lst) if lst else (TOP,)
        out[TOP] = ()
        return out

    @cached_property
    def down_covers(self):
        downs = {z: [] for z in self.elements}
        downs[TOP] = [z for z in self.elements if self.up_covers[z] == (TOP,)]
        for a, b in self.covers:
            downs[b].append(a)
        idx = self.index
        return {z: tuple(sorted(lst, key=idx.__getitem__)) for z, lst in downs.items()}

    @cached_property
    def plus_elements(self):
        return self.elements + (TOP,)

    @cached_property
    def _chains(self):
        """x -> {y: (shortest, longest) saturated chain length} for every y >= x in P+."""
        chains = {TOP: {TOP: (0, 0)}}
        for x in reversed(self.elements):
            first, *rest = self.up_covers[x]
            row = {y: (lo + 1, hi + 1) for y, (lo, hi) in chains[first].items()}
            for b in rest:
                for y, (lo, hi) in chains[b].items():
                    if y in row:
                        olo, ohi = row[y]
                        row[y] = (min(olo, lo + 1), max(ohi, hi + 1))
                    else:
                        row[y] = (lo + 1, hi + 1)
            row[x] = (0, 0)
            chains[x] = row
        return chains

    @cached_property
    def _cover_pairs(self):
        """Covers of P+ as index pairs; -1 stands for the top."""
        idx = self.index
        return tuple(
            (idx[a], -1 if b == TOP else idx[b]) for a in self.elements for b in self.up_covers[a]
        )

    def leq(self, x, y):
        """x <= y in P+."""
        self._check_id(x)
        self._check_id(y)
        return y in self._chains.get(x, ())

    def interval(self, x, y):
        """Elements z of P+ with x <= z <= y, in canonical order."""
        if not self.leq(x, y):
            raise InvalidPoset(f"{x!r} is not below {y!r}")
        return tuple(z for z in self.plus_elements if self.leq(x, z) and self.leq(z, y))

    def maximal_elements(self):
        return tuple(z for z in self.elements if self.up_covers[z] == (TOP,))

    def _check_id(self, x):
        if x != TOP and x not in self.index:
            raise InvalidPoset(f"unknown element id {x!r}")


def build_poset(elements, covers, bottom):
    """Validate and canonicalize a poset given by elements, covers, bottom.

    Transitively implied cover pairs are silently dropped.  Raises
    InvalidPoset on a cycle, on a bottom that is not the unique minimum,
    or on unknown or reserved ids.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise InvalidPoset("duplicate element ids")
    if TOP in elements:
        raise InvalidPoset(f"{TOP!r} is a reserved id")
    known = set(elements)
    if bottom not in known:
        raise InvalidPoset(f"bottom {bottom!r} is not an element")
    pairs = set()
    for a, b in covers:
        if a not in known or b not in known:
            raise InvalidPoset(f"unknown id in cover ({a!r}, {b!r})")
        if a == b:
            raise InvalidPoset(f"cycle detected at {a!r}")
        pairs.add((a, b))

    ups = {z: set() for z in elements}
    for a, b in pairs:
        ups[a].add(b)

    order = _toposort(elements, ups)

    # reachability over the full (possibly redundant) edge set
    above = {}
    for z in reversed(order):
        acc = {z}
        for b in ups[z]:
            acc |= above[b]
        above[z] = acc

    missing = [z for z in elements if z not in above[bottom]]
    if missing:
        raise InvalidPoset(f"bottom {bottom!r} is not below {missing[0]!r}: not the unique minimum")

    # (a, b) is implied when b lies strictly above another upper neighbour of
    # a, so an element with a single upper neighbour has no implied pair
    reduced = set()
    for a, bs in ups.items():
        implied = set().union(*(above[c] - {c} for c in bs)) if len(bs) > 1 else ()
        reduced.update((a, b) for b in bs if b not in implied)

    return Poset(tuple(order), frozenset(reduced), bottom)


def _toposort(elements, ups):
    """Topological order refining the input order (Kahn, smallest index first)."""
    pos = {z: i for i, z in enumerate(elements)}
    indeg = {z: 0 for z in elements}
    for z in elements:
        for b in ups[z]:
            indeg[b] += 1
    ready = sorted((z for z in elements if indeg[z] == 0), key=pos.__getitem__)
    out = []
    heap = [pos[z] for z in ready]
    heapq.heapify(heap)
    while heap:
        z = elements[heapq.heappop(heap)]
        out.append(z)
        for b in ups[z]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, pos[b])
    if len(out) != len(elements):
        raise InvalidPoset("cycle detected in cover relation")
    return out


def dist(p, x, y):
    """Minimum length of a saturated chain from x to y in P+."""
    _require_leq(p, x, y)
    return p._chains[x][y][0]


def qdist(p, n, x, y):
    """n-th quasi-distance: max of n*t over saturated chains from x to y.

    Equals n times the longest chain length for n >= 0 and n times the
    shortest for n < 0; qdist(-1, x, y) == -dist(x, y).
    """
    _require_leq(p, x, y)
    lo, hi = p._chains[x][y]
    return n * (hi if n >= 0 else lo)


def _require_leq(p, x, y):
    if not p.leq(x, y):
        raise InvalidPoset(f"{x!r} is not below {y!r}")


def bit_positions(mask):
    """Positions of the set bits of a nonnegative int, ascending."""
    # bin(mask)[:1:-1] spells the bits lowest first, without the "0b"
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def down_set_masks(required):
    """Yield every down-set of an order on positions 0 .. k-1, as a bitmask.

    Positions are numbered along a linear extension, and a down-set holding
    position t must hold every position of required[t] (its lower covers,
    or everything below it).  The empty down-set is included.  The search
    branches on one position at a time with an explicit stack, so it visits
    at most k + 1 prefixes per down-set and never recurses.
    """
    k = len(required)
    stack = [(0, 0)]
    while stack:
        t, mask = stack.pop()
        if t == k:
            yield mask
            continue
        stack.append((t + 1, mask))
        need = required[t]
        if need & mask == need:
            stack.append((t + 1, mask | 1 << t))


def _down_sets(p, limit=None):
    """The nonempty down-sets of P as bitmasks, in poset_ideals order; P keeps them.

    With a limit, a poset with more than limit of them gives None: the
    search stops at the first mask past the limit and nothing is kept.
    They are kept by hand, in the layout of _kept (under ()), since a
    kept answer still depends on the limit.
    """
    masks = p.__dict__.get("_down_sets", {}).get(())
    if masks is None:
        required = [sum(1 << p.index[a] for a in p.down_covers[z]) for z in p.elements]
        stop = None if limit is None else limit + 1
        found = list(islice(filter(None, down_set_masks(required)), stop))
        if limit is not None and len(found) > limit:
            return None
        # by size, then by positions: the set holding the lowest differing one first
        found.sort(key=lambda m: (-m.bit_count(), bin(m)[:1:-1]), reverse=True)
        masks = tuple(found)
        p.__dict__["_down_sets"] = {(): masks}
    return masks if limit is None or len(masks) <= limit else None


def poset_ideals(p):
    """All nonempty down-sets of P, as frozensets, in a deterministic order.

    Every nonempty down-set contains the bottom.  Ordered by cardinality,
    then lexicographically by canonical element indices.
    """
    names = p.elements
    return tuple(frozenset(names[i] for i in bit_positions(m)) for m in _down_sets(p))


def is_pure(p):
    """True iff all maximal chains of P have equal length."""
    lo, hi = p._chains[p.bottom][TOP]
    return lo == hi


def p_nonmax(p):
    """Elements lying on no chain of P of maximal length."""
    chains = p._chains
    from_bottom = chains[p.bottom]
    total = from_bottom[TOP][1]
    return frozenset(
        z for z in p.elements if from_bottom[z][1] + chains[z][TOP][1] < total
    )


def p_nonmin(p):
    """Elements lying on no maximal chain of P of minimal length."""
    chains = p._chains
    from_bottom = chains[p.bottom]
    total = from_bottom[TOP][0]
    return frozenset(
        z for z in p.elements if from_bottom[z][0] + chains[z][TOP][0] > total
    )
