"""Polytopes of minimal labelings pinned by a sequence of tight pairs.

For a reduced sequence and eps = +-1, the section C consists of the real
labelings with every cover gap at least eps and the bookended pair gaps
exactly qdist(eps, x_i, y_i).  Dilating by n scales both sides, and every
integer point of the n-fold dilation is a minimal element of T^(n eps).
The sets G_i collect the elements squeezed between x_i and y_i whose two
half distances add up exactly; on G the coordinates are pinned affinely
to the y anchors, which is why dim C = #(P minus G) + t.

The points of a dilation are listed by one closed walk (_section_runs)
and counted by one memoized sweep that walks no runs (_point_count).
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

    Returns (pins, d): the element pins of _contraction and its cover
    bounds closed by _close.  No degree box is needed: cover paths to the
    top bound each coordinate below, and the pins with the cover gaps bound
    the bottom, hence every coordinate, above by the sequence's q-value.
    """
    contracted = _contraction(c, n)
    if contracted is None:
        return None
    pins, size, covers = contracted
    d = _close(size, covers)
    return None if d is None else (pins[:-1], d)


def _close(size, covers):
    """Closed bounds d[a][b] on x_b - x_a from the covers of _contraction, or None.

    Floyd-Warshall over the finite entries only, so that sparse inputs
    stay near quadratic; a negative cycle means the dilation is empty.
    """
    d = [[_INF] * size for _ in range(size)]
    for k in range(size):
        d[k][k] = 0
    for (a, b), w in covers.items():
        d[a][b] = w
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
    return d


def _contraction(c, n):
    """The n-fold dilation's cover bounds between tied classes, or None if a tie fails.

    The pins of the G parts tie coordinates together at fixed offsets, so
    each tied class is contracted first: to the top when it holds the top,
    else to its first coordinate.  Returns (pins, size, covers).  pins[i]
    = (k, off) says nu(i) = x_k + off, where the classes x_0 .. x_K, K =
    size - 1, are numbered in canonical order of their first coordinate;
    the last pin is the top's, in x_K, which is fixed at 0.  covers maps
    (a, b) to the tightest cover gap (at least n eps) as an upper bound on
    x_b - x_a, for a != b, before any closure.
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
    covers = {}
    for i, z in enumerate(p.elements):
        ka, oa = pins[i]
        for b in p.up_covers[z]:
            kb, ob = pins[m if b == TOP else idx[b]]
            w = oa - ob - ne  # nu(b) - nu(i) <= -n eps
            if ka == kb:
                if w < 0:
                    return None
            elif w < covers.get((ka, kb), _INF):
                covers[ka, kb] = w
    return pins, len(reps), covers


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
    _check_64_bits(bounds)
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


def _tight_pairs(c, n):
    """The section's pairs at dilation n as (i, j, w): nu(i) - nu(j) = w on its points.

    i and j are canonical positions, with j = len(elements) for the top.
    """
    idx = c.poset.index
    top = len(c.poset.elements)
    return tuple((idx[x], top if y == TOP else idx[y], n * d) for x, y, d in c.equalities)


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


def _point_count(c, n, earlier=()):
    """Number of points of the n-fold dilation, less those an earlier section has.

    earlier holds one tuple of pairs (i, j, w) per earlier section
    (_tight_pairs); a point with nu(i) - nu(j) = w on every pair of one of
    them is not counted.  No point is listed.  The free classes are swept
    in the walk's order (_section_runs).  What a class's value leaves to
    the classes after it depends only on the values of the classes before
    it that a later class still reads, through a cover bound before
    closure or an earlier section's pair, and on the earlier sections
    whose pairs all hold so far; each level memoizes its counts by those.
    The closed bounds would tie every class to every earlier one, so they
    only narrow a range, from the classes in the key.  A pair that reaches
    the class being set holds at one value of it at most, so each earlier
    section holds there at one value or at none, and the last free class
    counts its range less those values.  The sweep runs on an explicit
    stack; the 64-bit check of _section_runs comes first, with its text.
    """
    contracted = _contraction(c, n)
    d = None if contracted is None else _close(*contracted[1:])
    if d is None:
        return 0
    pins, _, covers = contracted
    _check_64_bits(_closed_bounds(pins[:-1], d))
    top = len(d) - 1
    dtop = d[top]
    free = [k for k in range(top) if dtop[k] + d[k][top] != 0]
    level = {k: t for t, k in enumerate(free)}
    r = len(free)
    reads = [set() for _ in range(r)]  # the earlier levels level t reads
    for a, b in covers:
        if a in level and b in level:
            ta, tb = sorted((level[a], level[b]))
            reads[tb].add(ta)
    # checks[t] holds (bit, tests) per earlier section with pairs decided
    # at level t: they hold iff x[t] = x[u] + w for every (u, w) in tests.
    # Level -1 is a constant 0; ends[t] has the sections last decided there.
    checks = [[] for _ in range(r)]
    ends = [0] * r
    live = 0

    def at(k):  # x_k = x[u] + w
        t = level.get(k)
        return (-1, dtop[k]) if t is None else (t, 0)

    for s, pairs in enumerate(earlier):
        tests = {}
        for i, j, w in pairs:
            (ka, oa), (kb, ob) = pins[i], pins[j]
            (ua, ca), (ub, cb) = at(ka), at(kb)
            w += ob - oa + cb - ca  # x[ua] - x[ub] = w
            if ua == ub:
                if w:
                    break  # never tight
            elif ua > ub:
                tests.setdefault(ua, []).append((ub, w))
            else:
                tests.setdefault(ub, []).append((ua, -w))
        else:
            if not tests:
                return 0  # every point is tight on this section
            bit = 1 << s
            live |= bit
            ends[max(tests)] |= bit
            for t, test in tests.items():
                checks[t].append((bit, tuple(test)))
                reads[t].update(u for u, _ in test if u >= 0)
    if not r:
        return 1
    last_read = [-1] * r
    for t, earlier_levels in enumerate(reads):
        for u in earlier_levels:
            last_read[u] = max(last_read[u], t)
    fronts, front = [], []  # fronts[t]: the levels before t read at t or later
    for t in range(r):
        fronts.append(front)
        front = [u for u in front if last_read[u] > t] + [t] * (last_read[t] > t)
    boxes, ups, lows = [], [], []
    for f, front in zip(free, fronts):
        boxes.append((-d[f][top], dtop[f]))
        ups.append([(u, d[free[u]][f]) for u in front if d[free[u]][f] != d[free[u]][top] + dtop[f]])
        lows.append([(u, d[f][free[u]]) for u in front if d[f][free[u]] != d[f][top] + dtop[free[u]]])
    keeps = [~sum(bit for bit, _ in level_checks) for level_checks in checks]
    memo = [{} for _ in range(r)]
    x = [0] * (r + 1)  # x[-1] stays 0
    stack = []  # frames [t, key, tasks, count so far, multiplicity of the task]
    t, mask = 0, live
    while True:
        # enter level t under mask, x[:t] set
        got = key = None
        if t < r - 1:
            key = (mask, *[x[u] for u in fronts[t]])
            got = memo[t].get(key)
        if got is None:
            lo, hi = boxes[t]
            for u, w in ups[t]:
                if x[u] + w < hi:
                    hi = x[u] + w
            for u, w in lows[t]:
                if x[u] - w > lo:
                    lo = x[u] - w
            tight = {}  # value of x[t] -> sections whose pairs hold there
            for bit, tests in checks[t]:
                if mask & bit:
                    (u, w), *rest = tests
                    v = x[u] + w
                    if lo <= v <= hi and all(x[u] + w == v for u, w in rest):
                        tight[v] = tight.get(v, 0) | bit
            if lo > hi:
                got = 0
            elif t == r - 1:
                got = hi - lo + 1 - len(tight)
            else:
                stay = mask & keeps[t]
                done = ends[t]
                if last_read[t] > t:
                    tasks = _value_tasks(lo, hi, stay, tight, done)
                else:  # the values of x[t] outside tight lead to one count
                    tasks = [(1, v, stay | b) for v, b in tight.items() if not b & done]
                    if hi - lo + 1 > len(tight):
                        tasks.append((hi - lo + 1 - len(tight), lo, stay))
                    tasks = iter(tasks)
                frame = [t, key, tasks, 0, 0]
                stack.append(frame)
        if got is not None:
            if not stack:
                return got
            frame = stack[-1]
            frame[3] += frame[4] * got
        while True:
            task = next(frame[2], None)
            if task is not None:
                break
            stack.pop()
            got = memo[frame[0]][frame[1]] = frame[3]
            if not stack:
                return got
            frame = stack[-1]
            frame[3] += frame[4] * got
        t = frame[0]
        frame[4], x[t], mask = task
        t += 1


def _value_tasks(lo, hi, stay, tight, done):
    """(1, v, sections) for each value v of a level that a later level reads."""
    for v in range(lo, hi + 1):
        bits = tight.get(v, 0)
        if not bits & done:
            yield 1, v, stay | bits


def _check_64_bits(bounds):
    """Raise OverflowError at the first closed bound past the 64-bit range."""
    for ends in bounds:
        for v in ends:
            if not INT64_MIN <= v <= INT64_MAX:
                raise OverflowError(f"labeling value {v} exceeds the 64-bit range")


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
    return tuple([1] + [_point_count(c, n) for n in range(1, n_max + 1)])
