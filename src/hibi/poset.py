"""Finite posets with a unique bottom element and a virtual top.

A poset here always has a distinguished bottom x0 that lies below every
element, and every distance-style computation runs in the extended poset
P+ obtained by adjoining a virtual top above all maximal elements.  The
top is the reserved id TOP and is never part of the input element list.

Saturated-chain lengths (shortest and longest) between comparable pairs
are computed once per poset by dynamic programming over a fixed
topological order; the distances derive from them.

The poset is the one owner of the data derived from it.  Each item is
built on first use, lives in the instance dict, and goes away with the
poset; no module keeps a cache keyed by a poset.  It owns:

- index, up_covers, down_covers, plus_elements: the canonical layout;
- _above: the up-set of every element of P+;
- _chain_lengths: shortest and longest saturated chains per comparable pair;
- _cover_pairs: the covers of P+ as index pairs (for the T^(n) tests);
- _ideals and _ideal_index_sets: the nonempty down-sets (poset_ideals);
- _reduced: the reduced sequences per sign eps (sequences.enumerate_N).
"""

import heapq
from collections import namedtuple
from functools import cached_property

from .errors import InvalidPoset

TOP = "∞"


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
    def _above(self):
        """id -> frozenset of elements of P+ weakly above it."""
        above = {TOP: frozenset({TOP})}
        for z in reversed(self.plus_elements):
            if z == TOP:
                continue
            acc = {z}
            for b in self.up_covers[z]:
                acc.update(above[b])
            above[z] = frozenset(acc)
        return above

    @cached_property
    def _chain_lengths(self):
        """(x, y) -> (shortest, longest) saturated chain length, x <= y in P+."""
        table = {(TOP, TOP): (0, 0)}
        order = self.plus_elements
        for i in range(len(order) - 1, -1, -1):
            x = order[i]
            if x == TOP:
                continue
            table[(x, x)] = (0, 0)
            for y in self._above[x]:
                if y == x:
                    continue
                lo = hi = None
                for b in self.up_covers[x]:
                    if y in self._above[b]:
                        blo, bhi = table[(b, y)]
                        lo = blo + 1 if lo is None else min(lo, blo + 1)
                        hi = bhi + 1 if hi is None else max(hi, bhi + 1)
                table[(x, y)] = (lo, hi)
        return table

    @cached_property
    def _cover_pairs(self):
        """Covers of P+ as index pairs; -1 stands for the top."""
        idx = self.index
        return tuple(
            (idx[a], -1 if b == TOP else idx[b]) for a in self.elements for b in self.up_covers[a]
        )

    @cached_property
    def _ideals(self):
        """The nonempty down-sets, in the order poset_ideals documents."""
        idx = self.index
        downs = {z: [a for a in self.down_covers[z] if a != TOP] for z in self.elements}
        ideals = []

        def extend(i, current):
            if i == len(self.elements):
                if current:
                    ideals.append(frozenset(current))
                return
            z = self.elements[i]
            extend(i + 1, current)
            if all(a in current for a in downs[z]):
                current.add(z)
                extend(i + 1, current)
                current.remove(z)

        extend(0, set())
        ideals.sort(key=lambda s: (len(s), sorted(idx[z] for z in s)))
        return tuple(ideals)

    @cached_property
    def _ideal_index_sets(self):
        """The nonempty down-sets as frozensets of canonical indices."""
        # through the public name, which perfbench/spans.py wraps and counts
        idx = self.index
        return tuple(frozenset(idx[z] for z in ideal) for ideal in poset_ideals(self))

    @cached_property
    def _reduced(self):
        """eps -> reduced sequences; filled by sequences.enumerate_N."""
        return {}

    def leq(self, x, y):
        """x <= y in P+."""
        self._check_id(x)
        self._check_id(y)
        return y in self._above.get(x, ())

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
    return p._chain_lengths[(x, y)][0]


def qdist(p, n, x, y):
    """n-th quasi-distance: max of n*t over saturated chains from x to y.

    Equals n times the longest chain length for n >= 0 and n times the
    shortest for n < 0; qdist(-1, x, y) == -dist(x, y).
    """
    _require_leq(p, x, y)
    lo, hi = p._chain_lengths[(x, y)]
    return n * (hi if n >= 0 else lo)


def _require_leq(p, x, y):
    if not p.leq(x, y):
        raise InvalidPoset(f"{x!r} is not below {y!r}")


def poset_ideals(p):
    """All nonempty down-sets of P, as frozensets, in a deterministic order.

    Every nonempty down-set contains the bottom.  Ordered by cardinality,
    then lexicographically by canonical element indices.
    """
    return p._ideals


def is_pure(p):
    """True iff all maximal chains of P have equal length."""
    lo, hi = p._chain_lengths[(p.bottom, TOP)]
    return lo == hi


def p_nonmax(p):
    """Elements lying on no chain of P of maximal length."""
    table = p._chain_lengths
    total = table[(p.bottom, TOP)][1]
    return frozenset(
        z for z in p.elements
        if table[(p.bottom, z)][1] + table[(z, TOP)][1] < total
    )


def p_nonmin(p):
    """Elements lying on no maximal chain of P of minimal length."""
    table = p._chain_lengths
    total = table[(p.bottom, TOP)][0]
    return frozenset(
        z for z in p.elements
        if table[(p.bottom, z)][0] + table[(z, TOP)][0] > total
    )
