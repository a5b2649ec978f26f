"""Twisted-power complexity counts over the graded pieces R_{p^e - 1}.

The e-th piece of the twisted construction is the degree-(p^e - 1) part
of the target ring; a piece element is "new" when it cannot be written
as v1 + p^k * v2 with the parts drawn from the pieces of degrees k and
e - k.  The count c_e of new elements bounds the complexity growth; the
reports expose log_p(c_e)/e as a labeled estimate, never as a limit.

The three targets -- a fiber cone (Poset), the Ehrhart ring of one
sequence (ConeSection) and an inequality-given Polytope -- share one
path: the e-th piece is the set of points of the (p^e - 1)-th dilation.

Budgets guard every enumeration: primes and exponents are capped, and a
piece enumeration aborts with an explicit error as soon as it passes the
cap, rather than truncating.  Nothing is cached between calls: a piece
lives only as long as the call that builds it, and tcx_report builds each
piece once per prime, from the bottom up.

All counts are vector-space dimensions over the residue field.  For a
target whose twisted product is not a strong skew algebra this counts an
upper bound for the module-generator number rather than the number
itself; the reports carry estimates either way and never assert limits.
"""

from collections import namedtuple
from itertools import product
from math import log
from operator import sub

from .cones import ConeSection, _section_values
from .errors import BudgetExceeded
from .fiber import _generator_values
from .labelings import _kernel_labelings
from .poset import Poset


class Budget(
    namedtuple("Budget", "max_prime max_e max_piece", defaults=(5, 3, 1_000_000))
):
    """Caps for the piece enumerations; exceeding any cap is an error."""

    __slots__ = ()


class Polytope(namedtuple("Polytope", "dim inequalities lower upper")):
    """Integral polytope cut out by (coeffs . x <= rhs) rows inside a box."""

    __slots__ = ()

    def __new__(cls, dim, inequalities, lower, upper):
        # fields given as lists are stored as tuples, so every polytope hashes
        rows = tuple((tuple(coeffs), rhs) for coeffs, rhs in inequalities)
        lower, upper = tuple(lower), tuple(upper)
        if len(lower) != dim or len(upper) != dim:
            raise ValueError("bounds must match the coordinate count")
        for coeffs, _ in rows:
            if len(coeffs) != dim:
                raise ValueError("inequality width must match the coordinate count")
        return super().__new__(cls, dim, rows, lower, upper)


class TComplexityTable(namedtuple("TComplexityTable", "prime target rows estimate last_ratio")):
    """Rows (e, dim_e, c_e) for one prime, plus the labeled growth estimates.

    last_ratio is a float, or None when a count vanishes.
    """

    __slots__ = ()

    @property
    def row_estimates(self):
        """log_prime(c_e)/e per row; None where the count vanishes."""
        return tuple(
            log(c_e, self.prime) / e if c_e > 0 else None for e, _, c_e in self.rows
        )


# Miller-Rabin with the prime bases up to 37 is exact below the least
# strong pseudoprime to all of them, far above the 64-bit range of labels.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def _is_prime(p):
    """Deterministic Miller-Rabin primality for 0 <= p < _MR_EXACT_BELOW."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_caps(prime, e, budget):
    if prime >= _MR_EXACT_BELOW:
        raise ValueError(f"{prime} is out of the 64-bit range")
    if not _is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if prime > budget.max_prime:
        raise BudgetExceeded(f"prime {prime} exceeds the cap {budget.max_prime}")
    if e > budget.max_e:
        raise BudgetExceeded(f"exponent {e} exceeds the cap {budget.max_e}")


_TAGS = {Poset: "fiber cone", ConeSection: "ehrhart of sequence", Polytope: "raw polytope"}


def _points(target, n, budget):
    """Value tuples of the integer points in the n-th dilation of a target.

    Fiber and section enumerations stop as soon as they pass the cap; a
    polytope's dilation box is checked against the cap before the sweep.
    """
    cap = budget.max_piece
    if isinstance(target, Poset):
        return tuple(_generator_values(target, -n, cap))
    if isinstance(target, ConeSection):
        return tuple(_section_values(target, n, cap))
    if not isinstance(target, Polytope):
        raise TypeError("target must be a Poset, a ConeSection, or a Polytope")
    volume = 1
    for lo, hi in zip(target.lower, target.upper):
        volume *= n * hi - n * lo + 1
        if volume > cap:
            raise BudgetExceeded(f"dilation box of size {volume} exceeds the cap {cap}")
    ranges = [range(n * lo, n * hi + 1) for lo, hi in zip(target.lower, target.upper)]
    rows = target.inequalities
    return tuple(
        pt
        for pt in product(*ranges)
        if all(sum(c * x for c, x in zip(coeffs, pt)) <= n * rhs for coeffs, rhs in rows)
    )


def _piece(target, prime, e, budget):
    """Value tuples of the e-th piece: the (prime**e - 1)-th dilation of target."""
    budget = budget or Budget()
    _check_caps(prime, e, budget)
    return _points(target, prime**e - 1, budget)


def _new_elements(pieces, prime, e):
    """Top-piece vectors with no split v = v1 + prime**k * v2.

    A valid first part v1 is congruent to v coordinatewise mod prime**k,
    so the candidates are looked up by residue class, and the remainder
    v - v1 is looked up among the second parts already scaled by prime**k;
    this keeps the search near-linear in the piece sizes.
    """
    parts = []
    for k in range(1, e):
        mod = prime**k
        residue = mod.__rmod__  # a -> a % mod
        residues = {}
        for v1 in pieces[k]:
            residues.setdefault(tuple(map(residue, v1)), []).append(v1)
        scaled = {tuple(map(mod.__mul__, v2)) for v2 in pieces[e - k]}
        parts.append((residue, residues, scaled))

    def splits(v):
        for residue, residues, scaled in parts:
            for v1 in residues.get(tuple(map(residue, v)), ()):
                if tuple(map(sub, v, v1)) in scaled:
                    return True
        return False

    return [v for v in pieces[e] if not splits(v)]


def _fresh(target, prime, e, budget):
    """Value tuples of the e-th piece that do not split over lower pieces."""
    if e < 1:
        raise ValueError("e must be at least 1")
    # top piece first: its caps bound the lower pieces
    pieces = {k: _piece(target, prime, k, budget) for k in range(e, 0, -1)}
    return _new_elements(pieces, prime, e)


def t_piece(p, prime, e, budget=None):
    """Basis of the e-th twisted piece: minimal elements of degree 1 - prime**e.

    Assembled from the pinned sections, the same route as generators().
    e = 0 gives the origin alone.
    """
    return _kernel_labelings(p, _piece(p, prime, e, budget))


def h_e_fiber(p, prime, e, budget=None):
    """The new labelings of the e-th twisted fiber piece (witnesses of c_e)."""
    return _kernel_labelings(p, _fresh(p, prime, e, budget))


def c_e_fiber(p, prime, e, budget=None):
    """New-generator count of the e-th twisted piece of the fiber cone."""
    return len(_fresh(p, prime, e, budget))


def h_e_ehrhart(c, prime, e, budget=None):
    """The new labelings among the section's dilation points at level e."""
    return _kernel_labelings(c.poset, _fresh(c, prime, e, budget))


def c_e_ehrhart(c, prime, e, budget=None):
    """New-generator count over the dilation lattice points of a section."""
    return len(_fresh(c, prime, e, budget))


def h_e_polytope(delta, prime, e, budget=None):
    """The new integer points at level e for an inequality-given polytope."""
    return tuple(_fresh(delta, prime, e, budget))


def c_e_polytope(delta, prime, e, budget=None):
    """New-generator count for the Ehrhart ring of an inequality-given polytope."""
    return len(_fresh(delta, prime, e, budget))


def tcx_report(target, primes, e_max, budget=None):
    """One table per prime: rows (e, dim_e, c_e) plus labeled growth estimates.

    estimate is log_prime(c_{e_max}) / e_max, or -inf when the last count
    vanishes (finitely generated); last_ratio is log_prime of the final
    consecutive quotient when both counts are positive.  Both are desk
    readings of an asymptotic quantity, never asserted values.
    """
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    tables = []
    for prime in primes:
        pieces, rows = {}, []
        for e in range(1, e_max + 1):
            pieces[e] = _piece(target, prime, e, budget)
            rows.append((e, len(pieces[e]), len(_new_elements(pieces, prime, e))))
        rows = tuple(rows)
        last_c = rows[-1][2]
        estimate = log(last_c, prime) / e_max if last_c > 0 else float("-inf")
        ratio = None
        if len(rows) >= 2 and last_c > 0 and rows[-2][2] > 0:
            ratio = log(last_c / rows[-2][2], prime)
        tables.append(TComplexityTable(prime, _TAGS[type(target)], rows, estimate, ratio))
    return tuple(tables)
