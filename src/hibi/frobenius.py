"""Twisted-power complexity counts over the graded pieces R_{p^e - 1}.

The e-th piece of the twisted construction is the degree-(p^e - 1) part
of the target ring; a piece element is "new" when it cannot be written
as v1 + p^k * v2 with the parts drawn from the pieces of degrees k and
e - k.  The count c_e of new elements bounds the complexity growth; the
reports expose log_p(c_e)/e as a labeled estimate, never as a limit.

The two targets, a fiber cone (Poset) and the Ehrhart ring of one
sequence (ConeSection), are one shape once _resolve has read them: a
tuple of (section, earlier) pairs.  The e-th piece is the set of points
of the (p^e - 1)-th dilation, streamed as the runs of those pairs
(fiber._pair_runs, over the closed walk cones._section_runs), and each
point becomes one integer as it streams.

The packing is the one packer of cones (cones._Packing, with
cones._run_ints to pack runs), v -> sum_i v_i * 2**(bits*i).  It is
linear, so the fresh vectors of the top piece P_e are the packed set
difference P_e minus the sums a + p^k * b over a in P_k and b in
P_{e-k}: a packed sumset, built by C-level int addition and set
updates, running over the smaller of the two sides.  The packing is
exact, not hashed: its reach is that of the top piece, (p^e - 1) times
the reach of the first dilation, exactly, as a section's plan scales
with n (cones._dilation).  A difference v - a -
p^k * b then stays within r_e + r_k + p^k * r_{e-k} = 2 * r_e, where r_k
= (p^k - 1) * r_1 is the reach of piece k, so a packed sum matches a
packed top vector only when the vectors match.

Budgets guard every enumeration: primes and exponents are capped, an
exponent whose dilation reaches past the 64-bit range is refused by
_reach before any piece is packed, and a piece enumeration aborts with
an explicit error as soon as it passes the cap, rather than truncating:
_piece counts the points of the runs as they stream (cones._capped) and
stops before the run that would take them past the cap.  Every count takes
one route, _fresh: the top piece first, so its cap rejects before any
lower piece is walked, then the lower pieces, all under a packing sized
from that exponent.  No piece is kept: a piece lives only as long as the
count that builds it, so a table's fresh row at e walks the lower pieces
again.  The pieces of a d-dimensional target grow like prime**(d*e), so
a table walks at most about prime**d / (prime**d - 1) times the points
of its pieces.

Rows are kept.  tcx_report and the c_e counts take each row (e, dim_e,
c_e) from _row, and the poset that owns the target keeps it per target,
prime and e, with the sizes of the pieces it built (_resolve says
where); a count refused at a piece keeps the sizes of the pieces that
passed and a lower bound on the refused one.  Like the down-sets, a row
is kept by hand in the layout of poset._kept, because what is given out
also depends on the cap.  Every row is admitted one way (_admitted):
the caps, then the target.  A row is counted, and so kept or refused,
only once _reach has admitted its exponent, which depends on the
target, prime and e alone; a kept row or refusal is then given out
after the piece cap on pieces e, e - 1, .. 1, as a fresh count checks
them.  So a report, its rejection text and its exit code are the same
whatever was counted before and under what caps, and a warm kept row
reads no section plan.  The h_e listings need the vectors and always
count afresh.

All counts are vector-space dimensions over the residue field.  For a
target whose twisted product is not a strong skew algebra this counts an
upper bound for the module-generator number rather than the number
itself; the reports carry estimates either way and never assert limits.
"""

from collections import namedtuple
from itertools import chain
from math import log

from .cones import ConeSection, _capped, _Packing, _run_ints, _section_reach, _strike, _too_many
from .errors import BudgetExceeded
from .fiber import _first_sections, _generator_values, _pair_runs
from .labelings import INT64_MAX, _kernel_labelings
from .poset import Poset


class Budget(
    namedtuple("Budget", "max_prime max_e max_piece", defaults=(5, 3, 1_000_000))
):
    """Caps for the piece enumerations; exceeding any cap is an error."""

    __slots__ = ()


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
    """The piece cap of the budget (the default one for None), once it admits prime and e."""
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
    return budget.max_piece


def _resolve(target):
    """(tag, pairs, owner, key) of a target: the one place its type is read.

    The n-th dilation's points are the runs at n (fiber._pair_runs) of
    the (section, earlier) pairs: a fiber cone's sections of sign -1 (its
    n-th dilation is T^(-n)) with those before them, or a section alone.
    The owner, a poset, keeps the rows (_row) under (key, prime, e):
    key is None for a fiber cone and a section's sign, pairs and G parts
    for a section.  No section plan is read here.
    """
    if isinstance(target, Poset):
        return "fiber cone", _first_sections(target, -1), target, None
    if isinstance(target, ConeSection):
        key = target.epsilon, target.equalities, target.g_parts
        return "ehrhart of sequence", ((target, ()),), target.poset, key
    raise TypeError("target must be a Poset or a ConeSection")


def _reach(pairs, prime, e):
    """The reach of the e-th piece of pairs, once it is within the 64-bit range.

    The one place an exponent's range is checked, before any piece is
    packed.  The (prime**e - 1)-th dilation reaches exactly that multiple
    of the first dilation's reach, as each section's closed bounds scale
    with n.
    """
    reach = (prime**e - 1) * max((_section_reach(c) for c, _ in pairs), default=0)
    if reach > INT64_MAX:
        raise BudgetExceeded(f"exponent {e} takes the dilation past the 64-bit range")
    return reach


def _piece(pairs, n, cap, packing):
    """The packed points of the n-th dilation, streamed by runs, a piece the packing serves.

    It stops with BudgetExceeded before the run that takes them past cap.
    """
    runs = _capped(_pair_runs(pairs, n), cap, _too_many(n, cap))
    return chain.from_iterable(_run_ints(runs, packing))


def _drop_splits(fresh, pieces, prime, e):
    """Remove from the set fresh every a + prime**k * b, a in pieces[k], b in pieces[e-k]."""
    for k in range(1, e):
        _strike(fresh, pieces[k], list(map((prime**k).__mul__, pieces[e - k])))


def _admitted(target, prime, e, budget):
    """The arguments (target resolved, prime, e, cap) of _row for the count at e.

    The one way a count is admitted, with its checks in this order: e
    itself, the caps (_check_caps), the target (_resolve).  Whatever
    sizes or lists a piece checks _reach next.
    """
    if e < 1:
        raise ValueError("e must be at least 1")
    cap = _check_caps(prime, e, budget)
    return _resolve(target), prime, e, cap


def _fresh(pairs, prime, e, cap, packing, sizes):
    """The e-th piece's packed fresh vectors as a set, under a packing of _reach's reach.

    The size of each piece, e first, is appended to the list sizes once
    the piece has passed the cap, so a refusal leaves the sizes of the
    pieces before it.
    """
    # top piece first: its caps bound the lower pieces
    fresh = set(_piece(pairs, prime**e - 1, cap, packing))
    sizes.append(len(fresh))
    pieces = {}
    for k in range(e - 1, 0, -1):
        pieces[k] = list(_piece(pairs, prime**k - 1, cap, packing))
        sizes.append(len(pieces[k]))
    _drop_splits(fresh, pieces, prime, e)
    return fresh


def _row(target, prime, e, cap):
    """The row (e, dim_e, c_e) of the e-th piece of an admitted target, kept by its owner.

    The owner keeps it by hand, in the layout of poset._kept, as (sizes,
    c_e): the sizes of pieces e .. 1 its count built.  A count refused at
    a piece is kept as (sizes, None), with cap + 1, a lower bound, as the
    size of the refused piece.  A count is made only once _reach admits
    its exponent, so a kept row or refusal has passed that check; it is
    given out once those sizes pass the piece cap in that order, the
    checks a fresh count would make, with the same texts.  So a repeated
    refusal refuses at once under a cap at most the one that refused,
    and counts afresh under a larger one.
    """
    _, pairs, owner, key = target
    rows, key = owner.__dict__, (key, prime, e)
    kept = rows.get("_row", {}).get(key)
    if kept is not None:
        for k, size in zip(range(e, 0, -1), kept[0]):
            if size > cap:
                raise BudgetExceeded(_too_many(prime**k - 1, cap))
        if kept[1] is not None:
            return e, kept[0][0], kept[1]
    packing = _Packing(len(owner.elements), _reach(pairs, prime, e))
    sizes = []
    try:
        fresh = _fresh(pairs, prime, e, cap, packing, sizes)
    except BudgetExceeded:
        # the piece after those that passed has more than cap points
        rows.setdefault("_row", {})[key] = (*sizes, cap + 1), None
        raise
    rows.setdefault("_row", {})[key] = tuple(sizes), len(fresh)
    return e, sizes[0], len(fresh)


def _fresh_labelings(target, prime, e, budget):
    """The labelings of the fresh vectors on the target's owner, in lexicographic order."""
    (_, pairs, owner, _), prime, e, cap = _admitted(target, prime, e, budget)
    packing = _Packing(len(owner.elements), _reach(pairs, prime, e))
    fresh = _fresh(pairs, prime, e, cap, packing, [])
    return _kernel_labelings(owner, sorted(map(packing.unpack, fresh)))


def t_piece(p, prime, e, budget=None):
    """Basis of the e-th twisted piece: minimal elements of degree 1 - prime**e.

    Assembled from the pinned sections, the same route as generators().
    e = 0 gives the origin alone.  The caps, the target (a Poset only)
    and the 64-bit range are checked in that order, as for c_e_fiber.
    """
    cap = _check_caps(prime, e, budget)
    if not isinstance(p, Poset):
        raise TypeError("target must be a Poset")
    _reach(_first_sections(p, -1), prime, e)
    return _kernel_labelings(p, _generator_values(p, 1 - prime**e, cap))


def h_e_fiber(target, prime, e, budget=None):
    """The new labelings of the e-th twisted piece: the vectors c_e_fiber counts."""
    return _fresh_labelings(target, prime, e, budget)


def c_e_fiber(target, prime, e, budget=None):
    """New-generator count of the e-th twisted piece of a target.

    The target is a Poset, whose pieces are its fiber cone's, or a
    ConeSection, whose pieces are its dilations' lattice points.  The
    names c_e_ehrhart and h_e_ehrhart are c_e_fiber and h_e_fiber.
    """
    return _row(*_admitted(target, prime, e, budget))[2]


h_e_ehrhart = h_e_fiber
c_e_ehrhart = c_e_fiber


def tcx_report(target, primes, e_max, budget=None):
    """One table per prime: rows (e, dim_e, c_e) plus labeled growth estimates.

    estimate is log_prime(c_{e_max}) / e_max, or -inf when the last count
    vanishes (finitely generated); last_ratio is log_prime of the final
    consecutive quotient when both counts are positive.  Both are desk
    readings of an asymptotic quantity, never asserted values.  Each
    row is admitted and counted as c_e_fiber's is, in order of e.
    """
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    tables = []
    for prime in primes:
        rows = [_row(*_admitted(target, prime, e, budget)) for e in range(1, e_max + 1)]
        last_c = rows[-1][2]
        estimate = log(last_c, prime) / e_max if last_c > 0 else float("-inf")
        ratio = None
        if len(rows) >= 2 and last_c > 0 and rows[-2][2] > 0:
            ratio = log(last_c / rows[-2][2], prime)
        tables.append(TComplexityTable(prime, _resolve(target)[0], tuple(rows), estimate, ratio))
    return tuple(tables)
