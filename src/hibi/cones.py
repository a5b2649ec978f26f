"""Polytopes of minimal labelings pinned by a sequence of tight pairs.

For a reduced sequence and eps = +-1, the section C consists of the real
labelings with every cover gap at least eps and the bookended pair gaps
exactly qdist(eps, x_i, y_i).  Dilating by n scales both sides, and every
integer point of the n-fold dilation is a minimal element of T^(n eps).
The sets G_i collect the elements squeezed between x_i and y_i whose two
half distances add up exactly; on G the coordinates are pinned affinely
to the y anchors, which is why dim C = #(P minus G) + t.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded
from .labelings import Labeling, indicator, label_max
from .poset import TOP, qdist
from .sequences import as_seq, is_q_reduced, q_max, shifted_family


@dataclass(frozen=True)
class ConeSection:
    """One pinned polytope: equalities along the sequence, gap inequalities elsewhere."""

    poset: object
    epsilon: int
    seq: object
    equalities: tuple  # (x_i, y_i, qdist(eps, x_i, y_i)) per bookended pair
    inequalities: tuple  # covers (a, b) of P+, meaning nu(a) - nu(b) >= eps
    g_parts: tuple  # frozensets G_0 .. G_t, subsets of P+
    g_set: frozenset
    f_set: frozenset  # P minus G


def build_C(p, eps, seq):
    """Assemble the section for a reduced sequence, including the G/F bookkeeping."""
    seq = as_seq(p, seq)
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not is_q_reduced(p, eps, seq):
        raise ValueError("sequence is not reduced")
    pairs = seq.pairs()
    equalities = tuple((x, y, qdist(p, eps, x, y)) for x, y in pairs)
    inequalities = tuple((a, b) for a in p.elements for b in p.up_covers[a])
    g_parts = []
    for x, y in pairs:
        target = qdist(p, eps, x, y)
        g_parts.append(
            frozenset(
                z
                for z in p.interval(x, y)
                if qdist(p, eps, x, z) + qdist(p, eps, z, y) == target
            )
        )
    g_set = frozenset().union(*g_parts)
    f_set = frozenset(p.elements) - g_set
    return ConeSection(p, eps, seq, equalities, inequalities, tuple(g_parts), g_set, f_set)


def dim_formula(c):
    """Dimension by the closed formula #F + t."""
    return len(c.f_set) + c.seq.t


def lattice_points(c, n, limit=None):
    """Integer points of the n-fold dilation, in value-lexicographic order.

    Enumeration pins every G coordinate to its y anchor, then sweeps the
    free coordinates inside the degree box with cover propagation; each
    output is a minimal element of T^(n eps).  With a limit, the sweep
    stops with BudgetExceeded as soon as it has found more points than that.
    """
    if n < 1:
        raise ValueError("dilation must be positive")
    p = c.poset
    ne = n * c.epsilon
    qm = q_max(p, ne)
    elems = p.elements
    idx = p.index

    def pos(z):
        return -1 if z == TOP else idx[z]

    pins = [[] for _ in elems]
    for (x, y, _), part in zip(c.equalities, c.g_parts):
        for z in part:
            if z == TOP or z == y:
                continue
            pins[idx[z]].append((pos(y), qdist(p, ne, z, y)))
    ups = [tuple(pos(b) for b in p.up_covers[z]) for z in elems]
    lo_box = [qdist(p, ne, z, TOP) for z in elems]
    hi_box = [qm - qdist(p, ne, p.bottom, z) for z in elems]

    # Depth-first sweep from the last element down to the bottom, so every
    # up cover and every anchor is set before the element it bounds.  The
    # explicit stack is the run of positions i..m-1: vals[j] holds the
    # current value at each of them and ub[j] its upper end.
    m = len(elems)
    vals = [0] * m
    ub = [0] * m
    out = []
    i = m - 1
    entering = True
    while i < m:
        if entering:
            lo, hi = lo_box[i], hi_box[i]
            for b in ups[i]:
                cap = (0 if b < 0 else vals[b]) + ne
                if cap > lo:
                    lo = cap
            pinned = pins[i]
            if pinned:
                a, off = pinned[0]
                v = (0 if a < 0 else vals[a]) + off
                if lo <= v <= hi and all(
                    (0 if a < 0 else vals[a]) + off == v for a, off in pinned[1:]
                ):
                    lo = hi = v
                else:
                    lo, hi = 1, 0  # no value fits
            vals[i], ub[i] = lo, hi
        else:
            vals[i] += 1
        if vals[i] > ub[i]:
            i += 1
            entering = False
        elif i == 0:
            out.append(Labeling(p, tuple(vals)))
            if limit is not None and len(out) > limit:
                raise BudgetExceeded(f"dilation {n} has more than {limit} lattice points")
            entering = False
        else:
            i -= 1
            entering = True
    out.sort(key=lambda nu: nu.values)
    return tuple(out)


def dim_bruteforce(c):
    """Affine rank of the dilation-1 integer points, over exact rationals.

    Valid as a dimension oracle because the witness construction already
    exhibits #F + t + 1 affinely independent integer points.
    """
    pts = lattice_points(c, 1)
    base = pts[0].values
    rows = [[Fraction(v - b) for v, b in zip(q.values, base)] for q in pts[1:]]
    return _rank(rows)


def _rank(rows):
    if not rows:
        return 0
    rank = 0
    width = len(rows[0])
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _staircase(c):
    """Witness points and the F_i partition from the shifted-family sweep."""
    p, eps, seq = c.poset, c.epsilon, c.seq
    t = seq.t
    used = set()
    points = []
    parts = []
    current = None
    for i in range(t + 1):
        s = t - i
        _, down_s, up_s = shifted_family(p, eps, seq, s)
        current = down_s if current is None else label_max(current, down_s)
        points.append(current)
        f_i = tuple(z for z in p.elements if current(z) < up_s(z) and z not in used)
        parts.append(frozenset(f_i))
        for z in f_i:
            used.add(z)
            current = current + indicator(p, (z,))
            points.append(current)
    return tuple(points), tuple(parts)


def affine_witnesses(c):
    """#F + t + 1 affinely independent integer points of the section.

    Starts from the fully shifted nu_down, walks each F_i in canonical
    order adding one unit at a time, and joins levels by pointwise max.
    """
    return _staircase(c)[0]


def witness_partition(c):
    """The F_i sets swept out by the witness staircase; their union is F."""
    return _staircase(c)[1]


def is_standard(c, n_max):
    """Every dilation point up to n_max splits off a dilation-1 point."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    tiers = {n: lattice_points(c, n) for n in range(1, n_max + 1)}
    value_sets = {n: {nu.values for nu in pts} for n, pts in tiers.items()}
    for n in range(2, n_max + 1):
        lower = value_sets[n - 1]
        for point in tiers[n]:
            if not any(
                tuple(a - b for a, b in zip(point.values, one.values)) in lower
                for one in tiers[1]
            ):
                return False
    return True


def ehrhart_counts(c, n_max):
    """Lattice point counts of the dilations 0..n_max; the 0-th count is 1."""
    return tuple([1] + [len(lattice_points(c, n)) for n in range(1, n_max + 1)])
