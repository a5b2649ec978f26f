"""Fiber-cone numerics: Hilbert counts, analytic spread, level and purity tests."""

from .cones import _run_count, _run_values, _section_runs, _sections, dim_formula, lattice_points
from .errors import BudgetExceeded
from .labelings import _kernel_labelings
from .poset import TOP, is_pure
from .sequences import enumerate_N, q0, q_max


def fiber_hilbert(p, eps, n):
    """Number of generators of the (n eps)-th power; degree 0 contributes 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _generator_count(p, n * eps)


def analytic_spread(p, eps):
    """1 + the largest section dimension over the reduced sequences."""
    return 1 + max(dim_formula(c) for c in _sections(p, eps))


def degree_range(p, n):
    """(q0, q_max, check): generator degrees fill the interval exactly."""
    if n == 0:
        raise ValueError("n must be nonzero")
    lo, hi = q0(p, n), q_max(p, n)
    degrees = {v[0] for v in _run_values(_generator_runs(p, n))}
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
    return {c.seq: lattice_points(c, n) for c in _sections(p, eps)}


def generators_via_sequences(p, n, limit=None):
    """Minimal elements of T^(n), value-lexicographic: the generator route.

    The minimal elements are exactly the points of the |n|-fold dilated
    sections over the reduced sequences of sign n.  With a limit, it stops
    with BudgetExceeded at the first section with more points than that,
    or at the end of the section that takes the distinct points past it.
    """
    return _kernel_labelings(p, _generator_values(p, n, limit))


def _generator_values(p, n, limit=None):
    """Value tuples of the minimal elements of T^(n), in lexicographic order."""
    return sorted(_run_values(_generator_runs(p, n, limit)))


def _generator_count(p, n):
    """Number of minimal elements of T^(n), counted run by run without listing them."""
    return _run_count(_generator_runs(p, n))


def _generator_runs(p, n, limit=None, reach=None):
    """The sections' runs (cones._section_runs), each with the steps it repeats.

    Sections overlap, so each point is kept only by its first section in
    enumerate_N order whose equalities it is tight on: a point of T^(n)
    tight on those pairs lies in that section, so the test is exact and
    needs no index of the points already found.  Along a run only the
    moving coordinates rise, by one per step, so a tight pair of an
    earlier section holds at every step, at no step, or at exactly one;
    all of a section's pairs then hold at every step, at none, or at one,
    and the run is checked in O(pairs).  Yields (row, moving, length,
    covered): covered holds the steps some earlier section already has,
    as a set, or as range(length) when one has them all.  n = 0 gives
    one run, the origin: the one minimal element of T^(0).

    With a limit, it raises BudgetExceeded once a section has more than
    that many points, or, at the end of a section, once more than that
    many distinct points have been found.  A reach goes to the walk of
    every section (cones._section_runs).
    """
    if n == 0:
        yield (0,) * len(p.elements), (), 1, ()
        return
    eps = 1 if n > 0 else -1
    m = abs(n)
    idx = p.index
    top = len(p.elements)
    earlier = []  # tight pairs (ix, iy, d) of the sections already swept
    found = 0
    for c in _sections(p, eps):
        tests = None
        for row, moving, length, _ in _section_runs(c, m, limit, reach):
            if limit is not None and found > limit:
                continue  # only the section's own size is still checked
            if tests is None:
                tests = _step_tests(earlier, moving)
            covered = _covered_steps(tests, row + (0,), length)
            found += length - len(covered)
            yield row, moving, length, covered
        if limit is not None and found > limit:
            raise BudgetExceeded(f"T^({n}) has more than {limit} minimal elements")
        earlier.append(
            tuple((idx[x], top if y == TOP else idx[y], m * d) for x, y, d in c.equalities)
        )


def _step_tests(earlier, moving):
    """Per earlier section: its pairs split into fixed ones and ones that move.

    A moving pair (ix, iy, d, s) holds at step (d - w[ix] + w[iy]) * s of a
    run starting at w, where s = +-1 is the slope of w[ix] - w[iy].
    """
    moves = set(moving)
    tests = []
    for pairs in earlier:
        fixed, sloped = [], []
        for ix, iy, d in pairs:
            s = (ix in moves) - (iy in moves)
            if s:
                sloped.append((ix, iy, d, s))
            else:
                fixed.append((ix, iy, d))
        tests.append((fixed, sloped))
    return tests


def _covered_steps(tests, w, length):
    """Steps 0 .. length-1 of the run from w on which some section's pairs all hold."""
    covered = set()
    for fixed, sloped in tests:
        for ix, iy, d in fixed:
            if w[ix] - w[iy] != d:
                break
        else:
            step = None
            for ix, iy, d, s in sloped:
                j = (d - w[ix] + w[iy]) * s
                if step is None:
                    step = j
                elif j != step:
                    break
            else:
                if step is None:
                    return range(length)
                if 0 <= step < length:
                    covered.add(step)
    return covered
