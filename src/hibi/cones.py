"""Polytopes of minimal labelings pinned by a sequence of tight pairs.

For a reduced sequence and eps = +-1, the section C consists of the real
labelings with every cover gap at least eps and the bookended pair gaps
exactly qdist(eps, x_i, y_i).  Dilating by n scales both sides, and every
integer point of the n-fold dilation is a minimal element of T^(n eps).
The sets G_i collect the elements squeezed between x_i and y_i whose two
half distances add up exactly; on G the coordinates are pinned affinely
to the y anchors, which is why dim C = #(P minus G) + t.

Each dilation is prepared as one plan (_dilation): closed bounds, free
classes in levels, and the first-section rule of the fiber cone (a point
is left to the first section, in enumerate_N order, whose pairs it is
tight on) checked level by level.  Every weight of the n-fold system is
n times its weight at n = 1, so a plan is built once per section, at
unit scale, kept by the poset, and scaled by n on each use.  One closed
walk (_section_runs) lists the plan's points as runs, a caller that caps
a listing counts its runs (_capped), one memoized sweep (_point_count)
counts the points without listing, and both step through a level's
values by one rule (_value_tasks, inline in the walk's run loop).
Reaches and degree ranges are read off the plan's bounds.

The one packer of points lives here, beside the runs it packs: _Packing
maps a vector to one int, exactly for a given reach, and _run_ints packs
the points of runs as ranges of ints.  Set algebra on packed points is
C-level; the standardness test (is_standard) and the twisted-piece
counts (frobenius) use it.
"""

from collections import namedtuple
from itertools import chain
from operator import mul

from .errors import BudgetExceeded
from .labelings import INT64_MAX, INT64_MIN, _kernel_labelings
from .poset import TOP, _kept, qdist
from .sequences import as_seq, enumerate_N, is_q_reduced


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


@_kept
def _sections(p, eps):
    """The sections of enumerate_N(p, eps), in that order; the poset keeps them."""
    return tuple(_section(p, eps, seq) for seq in enumerate_N(p, eps))


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


def _meet(a, b):
    """The points two sections of one sign share, as one section: both pairs and G parts."""
    return a._replace(
        equalities=a.equalities + b.equalities,
        g_parts=a.g_parts + b.g_parts,
        g_set=a.g_set | b.g_set,
        f_set=a.f_set & b.f_set,
    )


def dim_formula(c):
    """Dimension by the closed formula #F + t."""
    return len(c.f_set) + c.seq.t


def lattice_points(c, n, limit=None):
    """Integer points of the n-fold dilation, in value-lexicographic order.

    Each output is a minimal element of T^(n eps).  With a limit, the
    enumeration stops with BudgetExceeded as soon as it has found more
    points than that.
    """
    runs = _capped(_section_runs(c, n), limit, _too_many(n, limit))
    return _kernel_labelings(c.poset, _run_values(runs))


def _too_many(n, limit):
    """The text of a point cap passed at the n-fold dilation."""
    return f"dilation {n} has more than {limit} lattice points"


_INF = float("inf")


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


def _contraction(p, eps, equalities, g_parts):
    """The first dilation's cover bounds between tied classes, or None if a tie fails.

    The pins of the G parts tie coordinates together at fixed offsets, so
    each tied class is contracted first: to the top when it holds the top,
    else to its first coordinate.  Returns (pins, size, covers).  pins[i]
    = (k, off) says nu(i) = x_k + off, where the classes x_0 .. x_K, K =
    size - 1, are numbered in canonical order of their first coordinate;
    the last pin is the top's, in x_K, which is fixed at 0.  covers maps
    (a, b) to the tightest cover gap (at least eps) as an upper bound on
    x_b - x_a, for a != b, before any closure.
    """
    idx = p.index
    m = len(p.elements)
    ties = [[] for _ in range(m + 1)]  # (j, w): nu(j) = nu(i) + w; m is the top
    for (_, y, _), part in zip(equalities, g_parts):
        a = m if y == TOP else idx[y]
        for z in part:
            if z != TOP and z != y:
                off = qdist(p, eps, z, y)
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
            w = oa - ob - eps  # nu(b) - nu(i) <= -eps
            if ka == kb:
                if w < 0:  # ties of two sections' meet can stretch a cover
                    return None
            elif w < covers.get((ka, kb), _INF):
                covers[ka, kb] = w
    return pins, len(reps), covers


# The plan of one dilation (_dilation); the walk and the count read it.
_Plan = namedtuple(
    "_Plan", "pins bounds boxes ups lows fronts last_read checks ends keeps live reach"
)


def _dilation(c, n, earlier=()):
    """The plan of the n-fold dilation, or None when it is empty.

    Every weight of the n-fold system is n times its weight at n = 1: the
    cover gaps, the pin offsets qdist(p, n eps, z, y) = n qdist(p, eps, z,
    y) and the earlier sections' pairs.  Min-plus closure commutes with
    that scaling, and which classes are fixed, which levels read which and
    which pairs can hold do not change with it.  So one plan per section
    and earlier sections is built at n = 1 (_unit_plan) and kept by the
    poset under the section's sign, pairs and G parts and the earlier
    sections, and the n-fold plan is that plan with its values scaled by
    n.  The 64-bit check is made on the scaled bounds, so a failed n
    leaves the kept plan as it was.

    x[t] is the value of level t, and x[-1] = 0.

    - pins[i] = (t, off): coordinate i is x[t] + off.
    - bounds[i]: the lowest and highest value of coordinate i, attained;
      reach is the largest magnitude among them.
    - boxes[t]: level t's range through the top.  ups[t] and lows[t]:
      (u, w) with x[t] <= x[u] + w and x[t] >= x[u] - w, for the levels u
      of fronts[t] whose bound is not implied through the top.
    - fronts[t]: the levels before t that t or a later level reads,
      through a cover bound before the closure or an earlier section's
      pair; last_read[u] is the last level that reads u.  A level outside
      the front bounds t only through a front level or the top, so the
      front gives each level its exact range.
    - checks[t]: (bit, tests) per earlier section with pairs decided at
      level t; they hold iff x[t] = x[u] + w for every (u, w) in tests.
      ends[t] has the bits of the sections last decided at t, keeps[t]
      clears the bits checked there, and live has every bit, or is None
      when some earlier section holds on every point.

    earlier holds one tuple of pairs (i, j, w) per earlier section
    (_tight_pairs, at n = 1); a point of the n-fold dilation with nu(i) -
    nu(j) = n w on every pair of one of them lies in that section.  The
    plan is shared, so all of it is tuples.
    """
    if n < 1:
        raise ValueError("dilation must be positive")
    plan = _unit_plan(c.poset, c.epsilon, c.equalities, c.g_parts, tuple(earlier))
    if plan is None:
        return None
    bounds = plan.bounds if n == 1 else tuple((n * lo, n * hi) for lo, hi in plan.bounds)
    for extremes in bounds:
        for v in extremes:
            if not INT64_MIN <= v <= INT64_MAX:
                raise OverflowError(f"labeling value {v} exceeds the 64-bit range")
    if n == 1:
        return plan
    return plan._replace(
        pins=_scaled(plan.pins, n),
        bounds=bounds,
        boxes=tuple([(n * lo, n * hi) for lo, hi in plan.boxes]),
        ups=tuple([_scaled(up, n) for up in plan.ups]),
        lows=tuple([_scaled(low, n) for low in plan.lows]),
        checks=tuple(
            [tuple([(bit, _scaled(tests, n)) for bit, tests in level]) for level in plan.checks]
        ),
        reach=n * plan.reach,
    )


def _scaled(pairs, n):
    """(u, n w) for each (u, w) of pairs."""
    return tuple([(u, n * w) for u, w in pairs])


@_kept
def _unit_plan(p, eps, equalities, g_parts, earlier):
    """The plan of the first dilation (_dilation), before its 64-bit check; None if empty.

    The section is given by its sign, pairs and G parts, so that the
    poset keeps the plan under them and the earlier sections.  The cover
    bounds are contracted on the pins (_contraction) and closed (_close).
    No degree box is needed: cover paths to the top bound each coordinate
    below, and the pins with the cover gaps bound the bottom, hence every
    coordinate, above by the sequence's q-value.  A class the closure
    fixes to the top is a constant; each other class is a level, in
    canonical order of first coordinates.
    """
    contracted = _contraction(p, eps, equalities, g_parts)
    d = None if contracted is None else _close(*contracted[1:])
    if d is None:
        return None
    pins, _, covers = contracted
    top = len(d) - 1
    dtop = d[top]
    bounds = tuple([(off - d[k][top], off + dtop[k]) for k, off in pins[:-1]])
    free = [k for k in range(top) if dtop[k] + d[k][top] != 0]
    level = {k: t for t, k in enumerate(free)}
    r = len(free)
    at = [(level[k], off) if k in level else (-1, off + dtop[k]) for k, off in pins]
    reads = [set() for _ in range(r)]  # the earlier levels level t reads
    for a, b in covers:
        if a in level and b in level:
            ta, tb = sorted((level[a], level[b]))
            reads[tb].add(ta)
    checks = [[] for _ in range(r)]
    ends = [0] * r
    live = 0
    for s, pairs in enumerate(earlier):
        tests = {}
        for i, j, w in pairs:
            (ua, oa), (ub, ob) = at[i], at[j]
            w += ob - oa  # x[ua] - x[ub] = w
            if ua == ub:
                if w:
                    break  # the ties hold the pair apart: never tight
            elif ua > ub:
                tests.setdefault(ua, []).append((ub, w))
            else:
                tests.setdefault(ub, []).append((ua, -w))
        else:
            if not tests:
                live = None  # tight everywhere
                break
            bit = 1 << s
            live |= bit
            ends[max(tests)] |= bit
            for t, test in tests.items():
                checks[t].append((bit, tuple(test)))
                reads[t].update(u for u, _ in test if u >= 0)
    last_read = [-1] * r
    for t, earlier_levels in enumerate(reads):
        for u in earlier_levels:
            last_read[u] = t
    fronts, front = [], ()
    for t in range(r):
        fronts.append(front)
        front = tuple([u for u in front if last_read[u] > t] + [t] * (last_read[t] > t))
    boxes, ups, lows = [], [], []
    for f, front in zip(free, fronts):
        df = d[f]
        boxes.append((-df[top], dtop[f]))
        ups.append(tuple([(u, d[free[u]][f]) for u in front if d[free[u]][f] != d[free[u]][top] + dtop[f]]))
        lows.append(tuple([(u, df[free[u]]) for u in front if df[free[u]] != df[top] + dtop[free[u]]]))
    keeps = [~sum(bit for bit, _ in level_checks) for level_checks in checks]
    return _Plan(
        tuple(at[:-1]),
        bounds,
        tuple(boxes),
        tuple(ups),
        tuple(lows),
        tuple(fronts),
        tuple(last_read),
        tuple(map(tuple, checks)),
        tuple(ends),
        tuple(keeps),
        live,
        max([max(-lo, hi) for lo, hi in bounds]),
    )


def _holding(mask, level_checks, x, lo, hi):
    """value in lo .. hi -> the sections of mask whose pairs all hold there, at one level.

    A pair that reaches the level being set holds at one value of it at
    most, so each section holds at one value or at none.
    """
    holding = {}
    for bit, tests in level_checks:
        if mask & bit:
            (u, w), *rest = tests
            v = x[u] + w
            if lo <= v <= hi and all(x[u] + w == v for u, w in rest):
                holding[v] = holding.get(v, 0) | bit
    return holding


def _level_range(plan, t, x):
    """(lo, hi) of level t, given the values x of the levels before it."""
    lo, hi = plan.boxes[t]
    for u, w in plan.ups[t]:
        if x[u] + w < hi:
            hi = x[u] + w
    for u, w in plan.lows[t]:
        if x[u] - w > lo:
            lo = x[u] - w
    return lo, hi


def _section_runs(c, n, earlier=()):
    """Runs of the n-fold dilation's points, in lexicographic order.

    A closed system of difference constraints is backtrack-free (Dechter,
    Meiri and Pearl, "Temporal constraint networks", 1991): every value
    inside the bounds set by the classes already fixed extends to a point.
    So the levels of the plan (_dilation) are walked in order, which makes
    the output lexicographic.  Each run is (row, moving, length): its
    first point, the coordinates of the last level, and the number of
    points; along the run the moving coordinates rise by one per step.
    The last level's range is cut at the values where an earlier section
    (as in _dilation) holds (_holding), and each stretch left between them
    is one run, so every point a run lists is the section's to keep.
    Every level before the last steps through its values by the rule of
    _value_tasks, as _point_count does, so the walk goes past a value
    where an earlier section has every point below it.  The walk only
    lists: a caller that caps the points counts them (_capped).  The
    levels before the last but one are walked by _entries; the last but
    one and the last, one value of the former at a time, in a loop of
    their own.  Each entry builds one row from every pin, and each run
    rewrites only the coordinates pinned to those two levels.
    """
    plan = _dilation(c, n, earlier)
    if plan is None or plan.live is None:
        return
    pins = plan.pins
    last = len(plan.boxes) - 1
    if last < 0:
        yield tuple([off for _, off in pins]), (), 1
        return
    s = last - 1  # the level each run loop steps through; -1 is the top
    at_s = [(i, off) for i, (t, off) in enumerate(pins) if t == s]
    at_last = [(i, off) for i, (t, off) in enumerate(pins) if t == last]
    moving = tuple([i for i, _ in at_last])
    (box_lo, box_hi), ups, lows = plan.boxes[last], plan.ups[last], plan.lows[last]
    checks = plan.checks[last]
    x = [0] * (last + 2)  # x[-1], the top, is 0
    entries = _entries(plan, x, s) if s >= 0 else [(0, 0, plan.live, 0, 0)]
    for lo, hi, stay, tight, done in entries:
        row = [x[u] + off for u, off in pins]  # right on every level before s
        for x[s] in range(lo, hi + 1):
            mask = stay
            if tight:  # the step rule of _value_tasks
                bits = tight.get(x[s], 0)
                if bits & done:
                    continue
                mask |= bits
            for i, off in at_s:
                row[i] = x[s] + off
            low, high = box_lo, box_hi
            for u, w in ups:
                if x[u] + w < high:
                    high = x[u] + w
            for u, w in lows:
                if x[u] - w > low:
                    low = x[u] - w
            if mask:
                for v in sorted(_holding(mask, checks, x, low, high)):
                    if v > low:
                        for i, off in at_last:
                            row[i] = low + off
                        yield tuple(row), moving, v - low
                    low = v + 1
                if low > high:
                    continue
            for i, off in at_last:
                row[i] = low + off
            yield tuple(row), moving, high - low + 1


def _entries(plan, x, s):
    """The arguments of _value_tasks at each entry to level s >= 0, in walk order.

    Each is yielded with x[:s] set.  The levels before s step by their
    tasks, on a stack of one task iterator per level.
    """
    checks, ends, keeps = plan.checks, plan.ends, plan.keeps
    stack = [_value_tasks(0, 0, plan.live, 0, 0)]  # the value tasks of x[-1] .. x[t - 1]
    t = 0
    while stack:
        for _, x[t - 1], mask in stack[-1]:
            # enter level t under mask, x[:t] set
            lo, hi = _level_range(plan, t, x)
            tight = mask and _holding(mask, checks[t], x, lo, hi)  # 0 with no section live
            if t == s:
                yield lo, hi, mask & keeps[t], tight, ends[t]
                continue
            stack.append(_value_tasks(lo, hi, mask & keeps[t], tight, ends[t]))
            t += 1
            break
        else:
            stack.pop()
            t -= 1


def _capped(runs, limit, text):
    """runs, stopped by BudgetExceeded(text) before the run that takes their points past limit.

    With no limit, every run passes.
    """
    size = 0
    for run in runs:
        size += run[2]
        if limit is not None and size > limit:
            raise BudgetExceeded(text)
        yield run


def _tight_pairs(c):
    """The section's pairs as (i, j, w): nu(i) - nu(j) = n w on the n-fold dilation's points.

    i and j are canonical positions, with j = len(elements) for the top.
    """
    idx = c.poset.index
    top = len(c.poset.elements)
    return tuple((idx[x], top if y == TOP else idx[y], d) for x, y, d in c.equalities)


def _run_values(runs):
    """Value tuples of the points of runs (row, moving, length), in run order.

    Along a run the moving coordinates rise by one per step.
    """
    out = []
    for row, moving, length in runs:
        out.append(row)
        if length == 1:
            continue
        step = list(row)
        for _ in range(length - 1):
            for i in moving:
                step[i] += 1
            out.append(tuple(step))
    return out


class _Packing:
    """Integer vectors of one width packed as single ints: v -> sum v_i * 2**(bits*i).

    bits is the least that reads back every vector within reach, the
    largest coordinate magnitude its user will pack; a dilation's is
    exact, n times the first dilation's (_section_reach).  The map is
    linear.  A vector w with every |w_i| < 2**bits packs to 0 only when
    w is 0 (its digits vanish mod 2**bits from the lowest up), and a
    vector with every |v_i| < 2**(bits-1) is read back by unpack.  So a
    difference of packed vectors whose coordinates stay within 2 * reach
    is 0 only when the vectors are equal: a packed sum of points matches
    a packed point exactly when the vectors match.
    A plain class: a namedtuple would cost every cold start its creation.
    """

    __slots__ = ("bits", "weights")

    def __init__(self, width, reach):
        self.bits = bits = reach.bit_length() + 1
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


def _run_ints(runs, packing):
    """Per run (row, moving, length): its packed points, as one range."""
    pack, weights = packing.pack, packing.weights
    for row, moving, length in runs:
        start = pack(row)
        if length == 1:
            yield (start,)
            continue
        step = sum(map(weights.__getitem__, moving))
        yield range(start, start + length * step, step)


def _point_count(c, n, earlier=()):
    """Number of points of the n-fold dilation, less those an earlier section has.

    earlier is as in _dilation, whose plan this reads; no point is
    listed.  The levels are swept in the walk's order (_section_runs),
    by its value step (_value_tasks), and meet no empty range either.
    What a level's value leaves to the levels after it depends only on
    the values of its front and on the earlier sections whose pairs all
    hold so far, so each level memoizes its counts by those.  Each
    earlier section holds at one value of the level being set or at none
    (_holding), and the last level counts its range less those values.
    The sweep runs on an explicit stack.
    """
    plan = _dilation(c, n, earlier)
    if plan is None or plan.live is None:
        return 0
    fronts, last_read, checks = plan.fronts, plan.last_read, plan.checks
    ends, keeps = plan.ends, plan.keeps
    r = len(fronts)
    if not r:
        return 1
    memo = [{} for _ in range(r)]
    x = [0] * (r + 1)  # x[-1] stays 0
    stack = []  # frames [t, key, tasks, count so far, multiplicity of the task]
    t, mask = 0, plan.live
    while True:
        # enter level t under mask, x[:t] set
        got = key = None
        if t < r - 1:
            key = (mask, *[x[u] for u in fronts[t]])
            got = memo[t].get(key)
        if got is None:
            lo, hi = _level_range(plan, t, x)
            tight = _holding(mask, checks[t], x, lo, hi)
            if t == r - 1:
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
    """The tasks (1, v, sections) of the values v = lo .. hi of a level a later one reads.

    The value step of the walk and the count; the walk's run loop
    (_section_runs) takes the same step inline at the level before the
    last, where each value is one run.  tight maps a value to
    the earlier sections whose pairs all hold there (_holding), or is 0
    when no section is live.  A value
    where one of them is decided for good (done) is passed over, as that
    section has every point below it; at any other value the sections
    live below it are stay, the ones not checked at this level, with the
    ones that hold there.  With no tight value every value is a task
    (1, v, stay).
    """
    if not tight:
        for v in range(lo, hi + 1):
            yield 1, v, stay
        return
    for v in range(lo, hi + 1):
        bits = tight.get(v, 0)
        if not bits & done:
            yield 1, v, stay | bits


def _section_reach(c):
    """Largest coordinate magnitude over the first dilation; 0 when it is empty.

    The n-fold dilation reaches n times as far (_dilation).  The reach is
    read off the kept unit plan: its bounds are sums of the poset's chain
    lengths, far inside the 64-bit range, so they need no check here.
    """
    plan = _unit_plan(c.poset, c.epsilon, c.equalities, c.g_parts, ())
    return 0 if plan is None else plan.reach


def dim_bruteforce(c):
    """Affine rank of the dilation-1 integer points, by integer elimination.

    Valid as a dimension oracle because the witness construction already
    exhibits #F + t + 1 affinely independent integer points.
    """
    pts = _run_values(_section_runs(c, 1))
    base = pts[0]
    return _rank([[v - b for v, b in zip(q, base)] for q in pts[1:]])


def _rank(rows):
    """Rank of integer rows by fraction-free (Bareiss) elimination.

    After each pivot every row below it, one with 0 under the pivot too,
    is scaled by the pivot and divided by the pivot before it; by
    Sylvester's identity each entry is then a minor of the input, so the
    division is exact and no fraction appears.
    """
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        lead = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(lead * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = lead
        rank += 1
        if rank == len(rows):
            break
    return rank


def is_standard(c, n_max):
    """Every dilation point up to n_max splits off a dilation-1 point.

    That is, T_n lies in T_1 + T_(n-1) for n = 2 .. n_max, where T_n is
    the set of points of the n-fold dilation.  Every tier is listed first,
    so a dilation past the 64-bit range raises whatever the answer, then
    each test runs on packed ints (_Packing, whose reach is the n_max-th
    dilation's): the sums of T_1 and T_(n-1) are struck from T_n (_strike).
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    packing = _Packing(len(c.poset.elements), n_max * _section_reach(c))
    tiers = [
        set(chain.from_iterable(_run_ints(_section_runs(c, n), packing)))
        for n in range(1, n_max + 1)
    ]
    return not any(_strike(set(top), tiers[0], lower) for lower, top in zip(tiers, tiers[1:]))


def _strike(left, firsts, seconds):
    """The set left, with every packed sum a + b (a in firsts, b in seconds) struck out.

    One C-level pass over the larger side per element of the smaller,
    until left is empty.
    """
    firsts, seconds = sorted((firsts, seconds), key=len)
    for a in firsts:
        if not left:
            break
        left.difference_update(map(a.__add__, seconds))
    return left


def ehrhart_counts(c, n_max):
    """Lattice point counts of the dilations 0..n_max; the 0-th count is 1."""
    return tuple([1] + [_point_count(c, n) for n in range(1, n_max + 1)])
