"""Integer labelings of P+ and the graded monoid T^(n) behind divisor powers.

A labeling nu assigns an integer to every element of P and (implicitly) 0
to the virtual top.  T^(n) collects the labelings whose gap across every
cover of P+ is at least n; its minimal elements are the monomial
generators of the n-th (anti)canonical power.  Minimality is defined by
the ideal-subtraction test: nu is minimal iff nu - 1_I leaves T^(n) for
every nonempty down-set I.  It is decided without listing the down-sets,
by one search: the closure of the bottom under lower covers and tight
upper covers (gap exactly n) must reach the top.
"""

from collections import namedtuple

from .errors import InvalidPoset
from .poset import TOP, qdist

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class Labeling(namedtuple("Labeling", "poset values")):
    """Integer map on P+ with value 0 at the top, stored in canonical order."""

    __slots__ = ()

    def __new__(cls, poset, values):
        if len(values) != len(poset.elements):
            raise ValueError("labeling needs one value per poset element")
        for v in values:
            if not INT64_MIN <= v <= INT64_MAX:
                raise OverflowError(f"labeling value {v} exceeds the 64-bit range")
        return super().__new__(cls, poset, values)

    def __call__(self, z):
        """Value at z; the top maps to 0."""
        return 0 if z == TOP else self.values[self.poset.index[z]]

    @property
    def degree(self):
        """Value at the bottom element."""
        return self.values[0]

    def as_dict(self):
        d = dict(zip(self.poset.elements, self.values))
        d[TOP] = 0
        return d

    def __add__(self, other):
        _same_poset(self, other)
        return Labeling(self.poset, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        _same_poset(self, other)
        return Labeling(self.poset, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, k):
        return Labeling(self.poset, tuple(a * k for a in self.values))

    __rmul__ = __mul__

    def __floordiv__(self, k):
        return Labeling(self.poset, tuple(a // k for a in self.values))


def _kernel_labelings(p, rows):
    """Labelings of value rows that the closed section kernel built, unchecked.

    Labeling._make skips the constructor's checks, which such rows cannot
    fail: each has one value per element, and cones._section_runs checks
    every class at its exact closed bounds against the 64-bit range before
    it yields a run.  The rows of lattice points, generators and Frobenius
    pieces all come from that walk.
    """
    make = Labeling._make
    return tuple([make((p, v)) for v in rows])


def _same_poset(a, b):
    if a.poset is not b.poset and a.poset != b.poset:
        raise ValueError("labelings live on different posets")


def zero_labeling(p):
    return Labeling(p, (0,) * len(p.elements))


def from_dict(p, mapping):
    """Labeling from {element: value}; a top key is allowed but must map to 0."""
    extra = set(mapping) - set(p.elements) - {TOP}
    if extra:
        raise InvalidPoset(f"unknown element id {sorted(map(str, extra))[0]!r}")
    missing = [z for z in p.elements if z not in mapping]
    if missing:
        raise ValueError(f"missing value for element {missing[0]!r}")
    if mapping.get(TOP, 0) != 0:
        raise ValueError("the top element must map to 0")
    return Labeling(p, tuple(mapping[z] for z in p.elements))


def indicator(p, subset):
    """The 0/1 labeling of a subset of P."""
    members = frozenset(subset)
    unknown = members - set(p.elements)
    if unknown:
        raise InvalidPoset(f"unknown element id {sorted(map(str, unknown))[0]!r}")
    return Labeling(p, tuple(1 if z in members else 0 for z in p.elements))


def label_max(a, b):
    """Pointwise maximum; stays in T^(min of the two tiers)."""
    _same_poset(a, b)
    return Labeling(a.poset, tuple(map(max, a.values, b.values)))


def label_min(a, b):
    """Pointwise minimum; stays in T^(min of the two tiers)."""
    _same_poset(a, b)
    return Labeling(a.poset, tuple(map(min, a.values, b.values)))


def _gaps_ok(vals, pairs, n):
    for ia, ib in pairs:
        if vals[ia] - (0 if ib < 0 else vals[ib]) < n:
            return False
    return True


def in_T(p, n, nu):
    """nu lies in T^(n): every cover gap of P+, top included, is at least n."""
    return _gaps_ok(nu.values, p._cover_pairs, n)


def leq_T(p, n, nu, nu2):
    """Monoid order on T^(n): nu <= nu2 iff the difference is order reversing."""
    for operand in (nu, nu2):
        if not in_T(p, n, operand):
            raise ValueError("operand is not in T^(n)")
    return in_T(p, 0, nu2 - nu)


def is_minimal(p, n, nu):
    """True iff subtracting any nonempty down-set indicator leaves T^(n).

    nu - 1_I stays in T^(n) exactly when no tight cover (gap n) leaves I.
    Every down-set holds the bottom, so nu is minimal iff the closure of
    the bottom under lower covers and tight upper covers reaches the top.
    """
    if not in_T(p, n, nu):
        raise ValueError("labeling is not in T^(n)")
    vals = nu.values + (0,)  # the top sits at index -1
    nbrs = [[] for _ in vals]
    for ia, ib in p._cover_pairs:
        nbrs[ib].append(ia)
        if vals[ia] - vals[ib] == n:
            nbrs[ia].append(ib)
    seen, stack = {0}, [0]
    while stack:
        for j in nbrs[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return -1 in seen


def generators(p, n):
    """Minimal elements of T^(n), the monomial generators of the n-th power.

    n = 0 yields the zero labeling alone.  Output is deterministic
    (value-lexicographic).  The elements are the union of the lattice
    points of the |n|-fold dilated sections over the reduced sequences
    (fiber.generators_via_sequences); is_minimal gives the same answer
    element by element.
    """
    from .fiber import generators_via_sequences  # deferred: fiber imports this module

    return generators_via_sequences(p, n)


def split(p, nu, n):
    """Write nu in T^(n) as a floor part in T^(+-1) plus a remainder.

    Returns (floor, rest) with floor = nu // |n| in T^(sign n) and
    rest = nu - floor in T^(n - sign n); the parts sum back to nu.
    """
    if abs(n) < 2:
        raise ValueError("splitting needs |n| >= 2")
    if not in_T(p, n, nu):
        raise ValueError("labeling is not in T^(n)")
    floor = nu // abs(n)
    return floor, nu - floor


def truncate(p, nu, n, k):
    """Lower a minimal element by k, clamped at the distance floor.

    The output max(nu - k, qdist(n, ., top)) is again minimal in T^(n).
    """
    if k < 1:
        raise ValueError("truncation step must be at least 1")
    if not is_minimal(p, n, nu):
        raise ValueError("labeling is not a minimal element of T^(n)")
    return Labeling(
        p, tuple(max(nu.values[i] - k, qdist(p, n, z, TOP)) for i, z in enumerate(p.elements))
    )


def exist_witness(p, n, x, y):
    """A labeling in T^(n) whose gap across the cover (x, y) is exactly n."""
    covers_top = y == TOP and x in p.maximal_elements()
    if not covers_top and (x, y) not in p.covers:
        raise InvalidPoset(f"({x!r}, {y!r}) is not a cover")
    base = qdist(p, n, x, TOP) - n
    vals = []
    for z in p.elements:
        v = qdist(p, n, z, TOP)
        if p.leq(z, y):
            v = max(v, base + qdist(p, n, z, y))
        vals.append(v)
    return Labeling(p, tuple(vals))
