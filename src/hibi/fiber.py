"""Fiber-cone numerics: Hilbert counts, analytic spread, level and purity tests."""

from .cones import _section_values, build_C, dim_formula, lattice_points
from .errors import BudgetExceeded
from .labelings import Labeling, generators
from .poset import TOP, is_pure
from .sequences import enumerate_N, q0, q_max


def fiber_hilbert(p, eps, n):
    """Number of generators of the (n eps)-th power; degree 0 contributes 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    return len(generators(p, n * eps))


def analytic_spread(p, eps):
    """1 + the largest section dimension over the reduced sequences."""
    return 1 + max(dim_formula(build_C(p, eps, seq)) for seq in enumerate_N(p, eps))


def degree_range(p, n):
    """(q0, q_max, check): generator degrees fill the interval exactly."""
    if n == 0:
        raise ValueError("n must be nonzero")
    lo, hi = q0(p, n), q_max(p, n)
    degrees = {nu.degree for nu in generators(p, n)}
    return lo, hi, degrees == set(range(lo, hi + 1))


def is_level(p):
    """All canonical generators share one degree: only the empty sequence reduces."""
    return len(enumerate_N(p, 1)) == 1


def is_anticanonical_level(p):
    """All anticanonical generators share one degree."""
    return len(enumerate_N(p, -1)) == 1


def is_gorenstein(p):
    """Purity of the poset; equivalently the degree-1 power has one generator."""
    return is_pure(p)


def fiber_cone_decomposition(p, eps, n):
    """Map each reduced sequence to the degree-n points of its section.

    The union over all sequences equals generators(n eps).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return {seq: lattice_points(build_C(p, eps, seq), n) for seq in enumerate_N(p, eps)}


def generators_via_sequences(p, n, limit=None):
    """Minimal elements of T^(n), value-lexicographic: the generator route.

    The minimal elements are exactly the points of the |n|-fold dilated
    sections over the reduced sequences of sign n.  With a limit, it stops
    with BudgetExceeded as soon as it has found more distinct points than
    that.
    """
    return tuple(Labeling(p, vals) for vals in _generator_values(p, n, limit))


def _generator_values(p, n, limit=None):
    """Value tuples of the minimal elements of T^(n), in lexicographic order.

    Sections overlap, so each point is emitted only by its first section
    in enumerate_N order whose equalities it is tight on: a point of T^(n)
    tight on those pairs lies in that section, so the test is exact and
    needs no index of the points already found.
    """
    if n == 0:
        return [(0,) * len(p.elements)]
    eps = 1 if n > 0 else -1
    m = abs(n)
    idx = p.index
    top = len(p.elements)
    out = []
    earlier = []  # tight-pair tests of the sections already swept

    def seen(v):
        w = v + (0,)  # the top's value sits at index top
        for pairs in earlier:
            for ix, iy, d in pairs:
                if w[ix] - w[iy] != d:
                    break
            else:
                return True
        return False

    for seq in enumerate_N(p, eps):
        c = build_C(p, eps, seq)
        for v in _section_values(c, m, limit):
            if not seen(v):
                out.append(v)
                if limit is not None and len(out) > limit:
                    raise BudgetExceeded(f"T^({n}) has more than {limit} minimal elements")
        earlier.append(
            tuple((idx[x], top if y == TOP else idx[y], m * d) for x, y, d in c.equalities)
        )
    out.sort()
    return out
