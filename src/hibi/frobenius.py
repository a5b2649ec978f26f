"""Twisted-power complexity counts over the graded pieces R_{p^e - 1}.

The e-th piece of the twisted construction is the degree-(p^e - 1) part
of the target ring; a piece element is "new" when it cannot be written
as v1 + p^k * v2 with the parts drawn from the pieces of degrees k and
e - k.  The count c_e of new elements bounds the complexity growth; the
reports expose log_p(c_e)/e as a labeled estimate, never as a limit.

The three targets -- a fiber cone (Poset), the Ehrhart ring of one
sequence (ConeSection) and an inequality-given Polytope -- share one
path once _resolve has told them apart: the e-th piece is the set of
points of the (p^e - 1)-th dilation, streamed as runs of the closed walk
(cones._section_runs), and each point becomes one integer as it streams.

The packing is v -> sum_i v_i * 2**(bits*i).  It is linear, so the
fresh vectors of the top piece P_e are the packed set difference
P_e minus the sums a + p^k * b over a in P_k and b in P_{e-k}: a packed
sumset, built by C-level int addition and set updates, running over the
smaller of the two sides.  The packing is exact, not hashed: bits comes
from the reach of the first dilation, and the reach of the n-th is
exactly n times that, as a polytope's box and a section's plan scale
with n (cones._dilation); _Packing gives the bound under which a packed
sum matches a packed top vector only when the vectors match.

Budgets guard every enumeration: primes and exponents are capped, and a
piece enumeration aborts with an explicit error as soon as it passes the
cap, rather than truncating: _piece counts the points of the runs as
they stream (cones._capped) and stops before the run that would take
them past the cap, and a polytope first checks its box.  Every count
takes one route, _fresh: the top piece first, so its cap rejects before
any lower piece is walked, then the lower pieces, all under a packing
sized from that exponent.  Nothing is cached between calls: a piece
lives only as long as the count that builds it, and tcx_report takes
each row (e, dim_e, c_e) from its own count, walking the lower pieces
again at each e.  The pieces of a d-dimensional target grow like
prime**(d*e), so a table walks at most about prime**d / (prime**d - 1)
times the points of its pieces.

All counts are vector-space dimensions over the residue field.  For a
target whose twisted product is not a strong skew algebra this counts an
upper bound for the module-generator number rather than the number
itself; the reports carry estimates either way and never assert limits.
"""

from collections import namedtuple
from functools import partial
from itertools import chain, product
from math import log
from operator import mul

from .cones import ConeSection, _capped, _section_reach, _section_runs, _sections
from .errors import BudgetExceeded
from .fiber import _generator_runs, _generator_values
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
    """The budget (the default one for None), once it admits prime and e."""
    budget = budget or Budget()
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
    return budget


class _Packing:
    """Integer vectors of one width packed as single ints: v -> sum v_i * 2**(bits*i).

    It serves the pieces 1 .. e of a target at one prime, for the one
    count of the e-th fresh vectors: piece k has coordinates within
    r_k = (prime**k - 1) * unit, where unit is the largest coordinate
    magnitude of the first dilation (exact, as the (prime**k - 1)-th
    dilation is the first scaled), and bits is the least that reads back
    every vector within r_e.  The map is linear.
    A vector w with every |w_i| < 2**bits packs to 0 only when w is 0
    (its digits vanish mod 2**bits from the lowest up), and a vector with
    every |v_i| < 2**(bits-1) is read back by unpack.  So a difference
    v - a - prime**k * b of vectors of pieces e, k and e - k, within
    r_e + r_k + prime**k * r_{e-k} = 2 * r_e < 2**bits, packs to 0 only
    when it is 0: a packed sum matches a packed top vector exactly when
    the vectors match.
    A plain class: a namedtuple would cost every cold start its creation.
    """

    __slots__ = ("unit", "bits", "weights")

    def __init__(self, width, unit, prime, e):
        self.unit = unit
        self.bits = bits = ((prime**e - 1) * unit).bit_length() + 1
        self.weights = tuple(1 << bits * i for i in range(width))

    def pack(self, v):
        return sum(map(mul, v, self.weights))

    def unpack(self, x):
        """The vector of a packed int, read as balanced base-2**bits digits."""
        bits = self.bits
        half = 1 << bits - 1
        mask = (1 << bits) - 1
        out = []
        for _ in self.weights:
            digit = ((x + half) & mask) - half
            out.append(digit)
            x = (x - digit) >> bits
        return tuple(out)


def _resolve(target):
    """(tag, width, unit, runs) of a target: the one place its type is read.

    runs(n, cap) streams the n-th dilation's points as runs (row, moving,
    length, covered); a polytope rejects a dilation box over the cap
    before it lists, and _piece caps the points of every target.  They
    stay within n * unit, as a polytope's dilation box and a section's
    closed bounds scale with n.  A fiber cone closes its sections here.
    """
    if isinstance(target, Poset):
        unit = max((_section_reach(c, 1) for c in _sections(target, -1)), default=0)
        # the n-th dilation is T^(-n)
        return "fiber cone", len(target.elements), unit, lambda n, cap: _generator_runs(target, -n)
    if isinstance(target, ConeSection):
        width, unit = len(target.poset.elements), _section_reach(target, 1)
        return "ehrhart of sequence", width, unit, lambda n, cap: _section_runs(target, n)
    if isinstance(target, Polytope):
        unit = max(map(abs, target.lower + target.upper), default=0)
        return "raw polytope", target.dim, unit, partial(_polytope_runs, target)
    raise TypeError("target must be a Poset, a ConeSection, or a Polytope")


def _polytope_runs(target, n, cap):
    """The n-th dilation's points as runs of length 1, once its box is within cap."""
    volume = 1
    for lo, hi in zip(target.lower, target.upper):
        volume *= n * hi - n * lo + 1
        if volume > cap:
            raise BudgetExceeded(f"dilation box of size {volume} exceeds the cap {cap}")
    ranges = [range(n * lo, n * hi + 1) for lo, hi in zip(target.lower, target.upper)]
    rows = target.inequalities
    for pt in product(*ranges):
        if all(sum(c * x for c, x in zip(coeffs, pt)) <= n * rhs for coeffs, rhs in rows):
            yield pt, (), 1, ()


def _piece(runs, n, cap, packing):
    """The packed points of the n-th dilation, streamed by runs, a piece the packing serves.

    It stops with BudgetExceeded before the run that takes them past cap.
    """
    text = f"dilation {n} has more than {cap} lattice points"
    return chain.from_iterable(_run_ints(_capped(runs(n, cap), cap, text), packing))


def _run_ints(runs, packing):
    """Per run (row, moving, length, covered): its packed points off the covered steps."""
    pack, weights = packing.pack, packing.weights
    for row, moving, length, covered in runs:
        start = pack(row)
        if length == 1:
            yield (start,)
            continue
        step = sum(map(weights.__getitem__, moving))
        points = range(start, start + length * step, step)
        if not covered:
            yield points
            continue
        j = 0
        for skip in sorted(covered):
            yield points[j:skip]
            j = skip + 1
        yield points[j:]


def _drop_splits(fresh, pieces, prime, e):
    """Remove from the set fresh every a + prime**k * b, a in pieces[k], b in pieces[e-k].

    The sums are made from the smaller side outward, one C-level pass
    over the larger side per element.
    """
    for k in range(1, e):
        firsts = pieces[k]
        seconds = list(map((prime**k).__mul__, pieces[e - k]))
        if len(firsts) > len(seconds):
            firsts, seconds = seconds, firsts
        for a in firsts:
            fresh.difference_update(map(a.__add__, seconds))


def _fresh(target, prime, e, budget):
    """The e-th piece's packed fresh vectors as a set, the piece's size dim_e, the packing."""
    if e < 1:
        raise ValueError("e must be at least 1")
    budget = _check_caps(prime, e, budget)
    _, width, unit, runs = _resolve(target)
    packing = _Packing(width, unit, prime, e)
    cap = budget.max_piece
    # top piece first: its caps bound the lower pieces
    fresh = set(_piece(runs, prime**e - 1, cap, packing))
    dim_e = len(fresh)
    pieces = {k: list(_piece(runs, prime**k - 1, cap, packing)) for k in range(e - 1, 0, -1)}
    _drop_splits(fresh, pieces, prime, e)
    return fresh, dim_e, packing


def _fresh_values(target, prime, e, budget):
    """Value tuples of the fresh vectors, in lexicographic order like their piece."""
    fresh, _, packing = _fresh(target, prime, e, budget)
    return sorted(map(packing.unpack, fresh))


def t_piece(p, prime, e, budget=None):
    """Basis of the e-th twisted piece: minimal elements of degree 1 - prime**e.

    Assembled from the pinned sections, the same route as generators().
    e = 0 gives the origin alone.
    """
    budget = _check_caps(prime, e, budget)
    return _kernel_labelings(p, _generator_values(p, 1 - prime**e, budget.max_piece))


def h_e_fiber(p, prime, e, budget=None):
    """The new labelings of the e-th twisted fiber piece (witnesses of c_e)."""
    return _kernel_labelings(p, _fresh_values(p, prime, e, budget))


def c_e_fiber(p, prime, e, budget=None):
    """New-generator count of the e-th twisted piece of the fiber cone."""
    return len(_fresh(p, prime, e, budget)[0])


def h_e_ehrhart(c, prime, e, budget=None):
    """The new labelings among the section's dilation points at level e."""
    return _kernel_labelings(c.poset, _fresh_values(c, prime, e, budget))


def c_e_ehrhart(c, prime, e, budget=None):
    """New-generator count over the dilation lattice points of a section."""
    return len(_fresh(c, prime, e, budget)[0])


def h_e_polytope(delta, prime, e, budget=None):
    """The new integer points at level e for an inequality-given polytope."""
    return tuple(_fresh_values(delta, prime, e, budget))


def c_e_polytope(delta, prime, e, budget=None):
    """New-generator count for the Ehrhart ring of an inequality-given polytope."""
    return len(_fresh(delta, prime, e, budget)[0])


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
        rows = []
        for e in range(1, e_max + 1):
            # pieces 1 .. e - 1 passed the cap in the rows before, so a row
            # can only reject at its own top piece, the one _fresh builds first
            fresh, dim_e, _ = _fresh(target, prime, e, budget)
            rows.append((e, dim_e, len(fresh)))
        rows = tuple(rows)
        last_c = rows[-1][2]
        estimate = log(last_c, prime) / e_max if last_c > 0 else float("-inf")
        ratio = None
        if len(rows) >= 2 and last_c > 0 and rows[-2][2] > 0:
            ratio = log(last_c / rows[-2][2], prime)
        tables.append(TComplexityTable(prime, _resolve(target)[0], rows, estimate, ratio))
    return tuple(tables)
