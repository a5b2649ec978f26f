"""Fiber-cone numerics: Hilbert counts, analytic spread, level and purity tests.

The generators of T^(n) are the points of the |n|-fold dilated sections,
each kept by its first section in enumerate_N order that it is tight on.
cones makes that check on the plan of each dilation (cones._dilation),
given the tight pairs of the sections before it (_first_sections):
listings read the runs of its walk, which skips the points an earlier
section has and leaves a cap to the listing (cones._capped), the Hilbert
counts list nothing (cones._point_count), and the degree range reads its
closed bounds.

A listing reads its runs in lexicographic order of their points
(_ordered_runs): one section's walk yields them so, and the points of
several sections are sorted once and read as runs of one point.  So a
listing that formats a run at a time (the generators table of the CLI)
expands no run and sorts nothing when the sign has one section.
"""

from itertools import repeat

from .cones import (
    _capped,
    _dilation,
    _point_count,
    _run_values,
    _section_runs,
    _sections,
    _tight_pairs,
    dim_formula,
    lattice_points,
)
from .labelings import _kernel_labelings
from .poset import _kept, is_pure
from .sequences import enumerate_N, q0, q_max


def fiber_hilbert(p, eps, n):
    """Number of generators of the (n eps)-th power; degree 0 contributes 1."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _generator_count(p, n * eps)


def analytic_spread(p, eps):
    """1 + the largest section dimension over the reduced sequences."""
    return 1 + max(dim_formula(c) for c in _sections(p, eps))


def degree_range(p, n):
    """(q0, q_max, check): generator degrees fill the interval exactly.

    A section's points take every degree between the closed bounds of the
    bottom coordinate, as its walk is backtrack-free, so the degrees are
    the union of those intervals over the sections; nothing is listed.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    lo, hi = q0(p, n), q_max(p, n)
    plans = (_dilation(c, abs(n)) for c in _sections(p, 1 if n > 0 else -1))
    reached, gapless = lo - 1, True
    for a, b in sorted(plan.bounds[0] for plan in plans if plan is not None):
        gapless = gapless and lo <= a <= reached + 1
        reached = max(reached, b)
    return lo, hi, gapless and reached == hi


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
    return {c.seq: lattice_points(c, n) for c in _sections(p, eps)}


def generators_via_sequences(p, n, limit=None):
    """Minimal elements of T^(n), value-lexicographic: the generator route.

    The minimal elements are exactly the points of the |n|-fold dilated
    sections over the reduced sequences of sign n.  With a limit, it stops
    with BudgetExceeded before the run that takes them past that many.
    """
    return _kernel_labelings(p, _generator_values(p, n, limit))


def _generator_values(p, n, limit=None):
    """Value tuples of the minimal elements of T^(n), in lexicographic order."""
    return _run_values(_ordered_runs(p, n, limit))


def _ordered_runs(p, n, limit=None):
    """The runs (row, moving, length) of the minimal elements of T^(n), in lexicographic order.

    One section's walk lists its points in that order, so with one section
    (or n = 0) its runs pass as they come.  Several sections interleave,
    so their points are sorted, and each is a run (value, (), 1).  With a
    limit, BudgetExceeded stops the runs before the one that takes them
    past that many points, before any sorting.
    """
    text = f"T^({n}) has more than {limit} minimal elements"
    runs = _capped(_generator_runs(p, n), limit, text)
    if n == 0 or len(_first_sections(p, 1 if n > 0 else -1)) == 1:
        return runs
    return zip(sorted(_run_values(runs)), repeat(()), repeat(1))


@_kept
def _generator_count(p, n):
    """Number of minimal elements of T^(n), without listing them; the poset keeps it.

    Each section counts the points it keeps (_first_sections) by
    cones._point_count.
    """
    if n == 0:
        return 1
    pairs = _first_sections(p, 1 if n > 0 else -1)
    return sum(_point_count(c, abs(n), earlier) for c, earlier in pairs)


def _generator_runs(p, n):
    """The runs (_pair_runs) of the points each section keeps (_first_sections).

    So the runs list every minimal element once.  n = 0 gives the run
    (origin, (), 1) of the one minimal element of T^(0).
    """
    if n == 0:
        return iter((((0,) * len(p.elements), (), 1),))
    return _pair_runs(_first_sections(p, 1 if n > 0 else -1), abs(n))


def _pair_runs(pairs, n):
    """The n-fold runs (cones._section_runs) of each (section, earlier) pair (_first_sections)."""
    for c, earlier in pairs:
        yield from _section_runs(c, n, earlier)


@_kept
def _first_sections(p, eps):
    """(section, earlier) per section of sign eps, in enumerate_N order; the poset keeps them.

    Sections overlap, so each point is kept only by its first section in
    enumerate_N order whose equalities it is tight on: a point of T^(n)
    tight on those pairs lies in that section, so the test is exact and
    needs no index of the points already found.  earlier holds the unit
    tight pairs (cones._tight_pairs) of the sections before the section,
    against which its walk and its count make that test.
    """
    pairs, earlier = [], ()
    for c in _sections(p, eps):
        pairs.append((c, earlier))
        earlier += (_tight_pairs(c),)
    return tuple(pairs)
