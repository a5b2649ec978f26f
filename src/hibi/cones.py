"""Polytopes of minimal labelings pinned by a sequence of tight pairs.

For a reduced sequence and eps = +-1, the section C consists of the real
labelings with every cover gap at least eps and the bookended pair gaps
exactly qdist(eps, x_i, y_i).  Dilating by n scales both sides, and every
integer point of the n-fold dilation is a minimal element of T^(n eps).
The sets G_i collect the elements squeezed between x_i and y_i whose two
half distances add up exactly; on G the coordinates are pinned affinely
to the y anchors, which is why dim C = #(P minus G) + t.
"""

from collections import namedtuple

from .errors import BudgetExceeded
from .labelings import INT64_MAX, INT64_MIN, _kernel_labelings, indicator, label_max
from .poset import TOP, qdist
from .sequences import as_seq, enumerate_N, is_q_reduced, shifted_family


class ConeSection(
    namedtuple(
        "ConeSection", "poset epsilon seq equalities inequalities g_parts g_set f_set"
    )
):
    """One pinned polytope: equalities along the sequence, gap inequalities elsewhere.

    equalities holds (x_i, y_i, qdist(eps, x_i, y_i)) per bookended pair,
    inequalities the covers (a, b) of P+, meaning nu(a) - nu(b) >= eps,
    g_parts the frozensets G_0 .. G_t (subsets of P+), g_set their union
    and f_set the rest of P.
    """

    __slots__ = ()


def build_C(p, eps, seq):
    """Assemble the section for a reduced sequence, including the G/F bookkeeping."""
    seq = as_seq(p, seq)
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not is_q_reduced(p, eps, seq):
        raise ValueError("sequence is not reduced")
    return _section(p, eps, seq)


def _sections(p, eps):
    """The sections of enumerate_N(p, eps), in that order; the poset keeps them."""
    sections = p._sections.get(eps)
    if sections is None:
        sections = tuple(_section(p, eps, seq) for seq in enumerate_N(p, eps))
        p._sections[eps] = sections
    return sections


def _section(p, eps, seq):
    """The section of a sequence already known to be reduced for eps."""
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

    Each output is a minimal element of T^(n eps).  With a limit, the
    enumeration stops with BudgetExceeded as soon as it has found more
    points than that.
    """
    return _kernel_labelings(c.poset, _run_values(_section_runs(c, n, limit)))


_INF = float("inf")


def _closure(c, n):
    """The n-fold dilation as closed difference constraints, or None if empty.

    The pins of the G parts tie coordinates together at fixed offsets, so
    each tied class is contracted first: to the top when it holds the top,
    else to its first coordinate.  Returns (pins, d).  pins[i] = (k, off)
    says nu(i) = x_k + off, where the classes x_0 .. x_K are numbered in
    canonical order of their first coordinate and x_K is the top's class,
    fixed at 0.  d[a][b] is the tightest upper bound on x_b - x_a implied
    by the cover gaps (at least n eps), closed by Floyd-Warshall over the
    finite entries only, so that sparse inputs stay near quadratic; a
    negative cycle means the dilation is empty.  No degree box is needed:
    cover paths to the top bound each coordinate below, and the pins with
    the cover gaps bound the bottom, hence every coordinate, above by the
    sequence's q-value.
    """
    if n < 1:
        raise ValueError("dilation must be positive")
    p = c.poset
    ne = n * c.epsilon
    idx = p.index
    m = len(p.elements)
    ties = [[] for _ in range(m + 1)]  # (j, w): nu(j) = nu(i) + w; m is the top
    for (_, y, _), part in zip(c.equalities, c.g_parts):
        a = m if y == TOP else idx[y]
        for z in part:
            if z != TOP and z != y:
                off = qdist(p, ne, z, y)
                ties[a].append((idx[z], off))
                ties[idx[z]].append((a, -off))
    root = [None] * (m + 1)
    offset = [0] * (m + 1)
    reps = []
    for r in [m] + list(range(m)):
        if root[r] is not None:
            continue
        root[r] = r
        reps.append(r)
        stack = [r]
        while stack:
            a = stack.pop()
            for b, w in ties[a]:
                if root[b] is None:
                    root[b], offset[b] = r, offset[a] + w
                    stack.append(b)
                elif offset[b] != offset[a] + w:
                    return None
    number = {r: k for k, r in enumerate(reps[1:] + [m])}  # reps[0] is the top
    pins = [(number[root[i]], offset[i]) for i in range(m + 1)]
    size = len(reps)
    d = [[_INF] * size for _ in range(size)]
    for k in range(size):
        d[k][k] = 0

    def bound(a, b, w):  # nu(b) - nu(a) <= w
        (ka, oa), (kb, ob) = pins[a], pins[b]
        w += oa - ob
        if w < d[ka][kb]:
            d[ka][kb] = w

    for i, z in enumerate(p.elements):
        for b in p.up_covers[z]:
            bound(i, m if b == TOP else idx[b], -ne)
    for k in range(size):
        # only the finite entries of row k and column k can shorten a path
        out_k = [(j, b) for j, b in enumerate(d[k]) if b != _INF and j != k]
        for i in [i for i, row in enumerate(d) if row[k] != _INF and i != k]:
            row = d[i]
            dik = row[k]
            for j, b in out_k:
                if dik + b < row[j]:
                    row[j] = dik + b
    if any(d[k][k] < 0 for k in range(size)):
        return None
    return pins[:m], d


def _section_runs(c, n, limit=None, reach=None):
    """Runs of the n-fold dilation's points, in lexicographic order.

    A closed system of difference constraints is backtrack-free (Dechter,
    Meiri and Pearl, "Temporal constraint networks", 1991): every value
    inside the bounds set by the classes already fixed extends to a point.
    So the free classes are walked in canonical order of their first
    coordinates, which makes the output lexicographic, and the last free
    class's whole range is one run.  Each run is (row, moving, length,
    covered): the point where the last free class takes its lowest value,
    the coordinates of that class, the number of points, and () for the
    steps left out; along the run the moving coordinates rise by one per
    step.  Beyond the closure the walk holds O(depth) values.

    With a limit, it raises BudgetExceeded before the run that takes the
    count past limit.  With a reach, it raises RuntimeError before the
    first run unless every coordinate stays within -reach .. reach; the
    closed bounds are attained, so both this and the 64-bit check are
    exact.
    """
    closed = _closure(c, n)
    if closed is None:
        return
    pins, d = closed
    top = len(d) - 1
    dtop = d[top]
    bounds = _closed_bounds(pins, d)
    for ends in bounds:
        for v in ends:
            if not INT64_MIN <= v <= INT64_MAX:
                raise OverflowError(f"labeling value {v} exceeds the 64-bit range")
    if reach is not None and any(lo < -reach or hi > reach for lo, hi in bounds):
        raise RuntimeError(f"a coordinate of dilation {n} leaves the range +-{reach}")
    # A class the closure fixes to the top is a constant.  One fixed to an
    # earlier free class would just get a one-value range in the walk; no
    # section has shown one, as the G pins are already contracted.
    x = [0] * (top + 1)
    free = []
    for k in range(top):
        if dtop[k] + d[k][top] == 0:
            x[k] = dtop[k]
        else:
            free.append(k)
    if not free:
        if limit is not None and limit < 1:
            raise _over(n, limit)
        yield tuple([x[k] + off for k, off in pins]), (), 1, ()
        return
    # bounds on each free class: (lo, hi) through the top, then the earlier
    # free classes whose bounds are not implied through the top
    ups, lows = [], []
    for t, f in enumerate(free):
        df = d[f]
        ups.append([(u, d[u][f]) for u in free[:t] if d[u][f] != d[u][top] + dtop[f]])
        lows.append([(u, df[u]) for u in free[:t] if df[u] != df[top] + dtop[u]])
    last = free[-1]
    moving = tuple(i for i, (k, _) in enumerate(pins) if k == last)
    # Depth-first walk over the free classes; ub[t] is the upper end of
    # the t-th one's range.  The closure leaves no dead ends.
    r = len(free)
    ub = [0] * r
    t = 0
    entering = True
    size = 0
    while t >= 0:
        f = free[t]
        if entering:
            lo, hi = -d[f][top], dtop[f]
            for u, w in ups[t]:
                if x[u] + w < hi:
                    hi = x[u] + w
            for u, w in lows[t]:
                if x[u] - w > lo:
                    lo = x[u] - w
            if t == r - 1:
                x[f] = lo
                length = hi - lo + 1
                if limit is not None:
                    size += length
                    if size > limit:
                        raise _over(n, limit)
                yield tuple([x[k] + off for k, off in pins]), moving, length, ()
                t -= 1
                entering = False
                continue
            x[f], ub[t] = lo, hi
        else:
            x[f] += 1
        if x[f] > ub[t]:
            t -= 1
            entering = False
        else:
            t += 1
            entering = True


def _run_values(runs):
    """Value tuples of the points of runs (row, moving, length, covered), in run order.

    Along a run the moving coordinates rise by one per step; the covered
    steps are left out.
    """
    out = []
    for row, moving, length, covered in runs:
        if len(covered) == length:
            continue
        if length == 1:
            out.append(row)
            continue
        rows = [row]
        step = list(row)
        for _ in range(length - 1):
            for i in moving:
                step[i] += 1
            rows.append(tuple(step))
        out.extend(rows if not covered else (v for j, v in enumerate(rows) if j not in covered))
    return out


def _run_count(runs):
    """Number of points of runs (row, moving, length, covered), without listing them."""
    return sum(length - len(covered) for _, _, length, covered in runs)


def _closed_bounds(pins, d):
    """(lowest, highest) value of each coordinate, from a closure (pins, d)."""
    top = len(d) - 1
    dtop = d[top]
    return [(off - d[k][top], off + dtop[k]) for k, off in pins]


def _over(n, limit):
    return BudgetExceeded(f"dilation {n} has more than {limit} lattice points")


def _section_reach(c, n):
    """Largest coordinate magnitude over the n-fold dilation; 0 when it is empty.

    Every weight of the closed system is n times its weight at n = 1, and
    min-plus closure commutes with that scaling, so the reach is n times
    the reach at n = 1.
    """
    closed = _closure(c, n)
    if closed is None:
        return 0
    return max(max(-lo, hi) for lo, hi in _closed_bounds(*closed))


def dim_bruteforce(c):
    """Affine rank of the dilation-1 integer points, over exact rationals.

    Valid as a dimension oracle because the witness construction already
    exhibits #F + t + 1 affinely independent integer points.
    """
    from fractions import Fraction  # only the self-test needs exact rationals

    pts = _run_values(_section_runs(c, 1))
    base = pts[0]
    rows = [[Fraction(v - b) for v, b in zip(q, base)] for q in pts[1:]]
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
    tiers = {n: _run_values(_section_runs(c, n)) for n in range(1, n_max + 1)}
    for n in range(2, n_max + 1):
        lower = set(tiers[n - 1])
        for point in tiers[n]:
            if not any(tuple(a - b for a, b in zip(point, one)) in lower for one in tiers[1]):
                return False
    return True


def ehrhart_counts(c, n_max):
    """Lattice point counts of the dilations 0..n_max; the 0-th count is 1."""
    return tuple([1] + [_run_count(_section_runs(c, n)) for n in range(1, n_max + 1)])
