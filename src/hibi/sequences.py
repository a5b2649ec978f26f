"""Alternating zig-zag sequences and the reduction machinery for degree bounds.

A sequence (y_0, x_1, ..., y_{t-1}, x_t) zig-zags through P minus the
bottom; the implicit bookends x_0 = bottom and y_t = top are supplied by
every consumer, so the pairs (x_i, y_i) for i = 0..t always make sense.
Reducedness compares every shortcut quasi-distance against the zig-zag
q-value and demands a strict win for the zig-zag; it is invariant under
positive scaling of the parameter, so checking at +-1 settles all n of
that sign.

The reduced sequences are enumerated by a search over prefixes that
checks the zig-zag conditions and every pair (x_i, y_j) with j < t as soon
as y_j is placed: such a pair involves only x_i .. y_j, so a prefix that
fails one can be dropped with all its extensions.  Only the pairs ending
at the top bookend wait for the finished sequence, because reducedness
itself is not prefix-closed.
"""

from collections import namedtuple

from .errors import InvalidPoset
from .labelings import Labeling
from .poset import TOP, _kept, qdist


class CondNSeq(namedtuple("CondNSeq", "poset items")):
    """Alternating sequence (y_0, x_1, ..., y_{t-1}, x_t) in P minus the bottom.

    The empty sequence (t = 0) is allowed and is often the important one.
    Construction validates ids only; the order conditions are the business
    of satisfies_condN.
    """

    __slots__ = ()

    def __new__(cls, poset, items):
        if len(items) % 2:
            raise ValueError("alternating sequence must have even length")
        for z in items:
            if z == TOP or z not in poset.index:
                raise InvalidPoset(f"unknown element id {z!r}")
            if z == poset.bottom:
                raise ValueError("the bottom element cannot appear in a sequence")
        return super().__new__(cls, poset, items)

    @property
    def t(self):
        return len(self.items) // 2

    @property
    def ys(self):
        """y_0 .. y_{t-1}."""
        return self.items[0::2]

    @property
    def xs(self):
        """x_1 .. x_t."""
        return self.items[1::2]

    def pairs(self):
        """Bookended pairs (x_i, y_i), i = 0..t, with x_0 = bottom, y_t = top."""
        xs = (self.poset.bottom,) + self.xs
        ys = self.ys + (TOP,)
        return tuple(zip(xs, ys))

    def zigzag(self):
        """Bookended flat tuple (x_0, y_0, x_1, y_1, ..., x_t, y_t)."""
        return (self.poset.bottom,) + self.items + (TOP,)


def as_seq(p, seq):
    """Coerce an id iterable to a CondNSeq on p."""
    return seq if isinstance(seq, CondNSeq) else CondNSeq(p, tuple(seq))


def _strictly_below(p, a, b):
    return a != b and p.leq(a, b)


def satisfies_condN(p, seq):
    """Both zig-zag conditions: alternation and the cross non-comparabilities."""
    seq = as_seq(p, seq)
    ys, xs, t = seq.ys, seq.xs, seq.t
    for i in range(t):
        if not _strictly_below(p, xs[i], ys[i]):
            return False
        if i and not _strictly_below(p, xs[i - 1], ys[i]):
            return False
    for i in range(t):
        for j in range(i + 2, t + 1):
            if p.leq(xs[j - 1], ys[i]):
                return False
    return True


def q_value(p, m, zigzag):
    """Alternating quasi-distance sum along w_0 <= z_0 >= w_1 <= ... <= z_l."""
    zigzag = tuple(zigzag)
    if len(zigzag) < 2 or len(zigzag) % 2:
        raise ValueError("zig-zag needs pairs (w_0, z_0, ..., w_l, z_l)")
    ws, zs = zigzag[0::2], zigzag[1::2]
    total = 0
    for i, (w, z) in enumerate(zip(ws, zs)):
        total += qdist(p, m, w, z)
        if i:
            total -= qdist(p, m, w, zs[i - 1])
    return total


def _pair_fails(p, m, zig, i, j):
    """True when x_i <= y_j in zig and the zig-zag x_i .. y_j does not beat
    the shortcut strictly: qdist(x_i, y_j) >= its q-value."""
    xi, yj = zig[2 * i], zig[2 * j + 1]
    return p.leq(xi, yj) and qdist(p, m, xi, yj) >= q_value(p, m, zig[2 * i : 2 * j + 2])


def is_q_reduced(p, m, seq):
    """Every comparable bookended pair beats its shortcut strictly.

    The empty sequence is reduced by convention.  Bookends make the pairs
    (0, j) and (i, t) always applicable since the bottom and the top
    compare with everything.
    """
    seq = as_seq(p, seq)
    if not satisfies_condN(p, seq):
        raise ValueError("sequence violates condition N")
    zig = seq.zigzag()
    t = seq.t
    return not any(_pair_fails(p, m, zig, i, j) for j in range(1, t + 1) for i in range(j))


@_kept
def enumerate_N(p, eps):
    """All q^(eps)-reduced zig-zag sequences, by length then lexicographically.

    Computed once per poset and sign; the poset keeps the result.

    An iterative depth-first search over prefixes (y_0, x_1, ..., y_{k-1}, x_k).
    The zig-zag conditions are checked as each element is placed: a y lies
    strictly above the element before it and an x strictly below its y and
    below none of y_0 .. y_{k-1}, read off the chain table.  A stack entry
    carries heads[i], i < k: the q-value of the zig-zag x_i .. x_k without
    its last term.  The pair (x_i, y) of a new y_k = y then has the q-value
    heads[i] + q(x_k, y), so testing it is O(1).  A new y_k is dropped at
    once when such a pair fails: it involves only x_i .. y_k, so every
    extension fails it too.  Placing x_{k+1} = x adds q(x_k, y) - q(x, y)
    to every head, and that shift is the head of x_k.  The pairs ending at
    the top bookend change as the sequence grows, so they are the only ones
    a prefix is tested on before it is kept.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    idx = p.index
    # q[a][b] = qdist(p, eps, a, b) for every b >= a in P+
    col = 0 if eps < 0 else 1
    q = {a: {b: eps * c[col] for b, c in row.items()} for a, row in p._chains.items()}
    # ups[z]: elements of P strictly above z; downs[y]: the same relation
    # inverted, without the bottom (it cannot appear in a sequence)
    ups = {z: sorted(q[z].keys() - {z, TOP}, key=idx.__getitem__) for z in p.elements}
    downs = {y: [] for y in p.elements}
    for x in p.elements[1:]:
        for y in ups[x]:
            downs[y].append(x)
    floor = float("-inf")
    reduced = []
    # (items, x_k, (x_0, ..., x_{k-1}), heads) with x_0 the bottom
    stack = [((), p.bottom, (), ())]
    while stack:
        items, last, xs, heads = stack.pop()
        q_last = q[last]
        # the pair (x_i, top) fails when q(x_i, top) >= its zig-zag's q-value
        to_top = q_last[TOP]
        if all(q[x][TOP] < h + to_top for x, h in zip(xs, heads)):
            reduced.append(CondNSeq(p, items))
        ys = ups[last]
        for x, h in zip(xs, heads):
            q_x = q[x]
            ys = [y for y in ys if q_x.get(y, floor) < h + q_last[y]]
        placed = items[0::2]
        xs += (last,)
        for y in ys:
            step = q_last[y]
            for x in downs[y]:
                q_x = q[x]
                if not any(y_i in q_x for y_i in placed):
                    shift = step - q_x[y]
                    heads_x = tuple(h + shift for h in heads) + (shift,)
                    stack.append((items + (y, x), x, xs, heads_x))
    reduced.sort(key=lambda s: (s.t, tuple(idx[z] for z in s.items)))
    return tuple(reduced)


def mu(p, n, seq):
    """Tail q-values on the bookended sequence elements, as a dict; mu(top) = 0.

    mu(x_i) is the q-value of the tail zig-zag (x_i, y_i, ..., x_t, top)
    and mu(y_i) = mu(x_i) - qdist(n, x_i, y_i).
    """
    seq = as_seq(p, seq)
    if not is_q_reduced(p, n, seq):
        raise ValueError("sequence is not reduced for this parameter")
    pairs = seq.pairs()
    t = seq.t
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    mu_x = [0] * (t + 1)
    mu_x[t] = qdist(p, n, xs[t], TOP)
    for i in range(t - 1, -1, -1):
        mu_x[i] = qdist(p, n, xs[i], ys[i]) - qdist(p, n, xs[i + 1], ys[i]) + mu_x[i + 1]
    out = {}
    for i in range(t + 1):
        out[xs[i]] = mu_x[i]
        out[ys[i]] = mu_x[i] - qdist(p, n, xs[i], ys[i])
    return out


def _nu_from_mu(p, n, seq, values, down):
    pairs = seq.pairs()
    if down:
        anchors = [y for _, y in pairs]
        vals = tuple(
            max(values[a] + qdist(p, n, z, a) for a in anchors if p.leq(z, a))
            for z in p.elements
        )
    else:
        anchors = [x for x, _ in pairs]
        vals = tuple(
            min(values[a] - qdist(p, n, a, z) for a in anchors if p.leq(a, z))
            for z in p.elements
        )
    return Labeling(p, vals)


def nu_down(p, n, seq):
    """The minimal element anchored below: max over y_j >= z of mu(y_j) + qdist(z, y_j)."""
    seq = as_seq(p, seq)
    return _nu_from_mu(p, n, seq, mu(p, n, seq), down=True)


def nu_up(p, n, seq):
    """The minimal element anchored above: min over x_i <= z of mu(x_i) - qdist(x_i, z)."""
    seq = as_seq(p, seq)
    return _nu_from_mu(p, n, seq, mu(p, n, seq), down=False)


def shifted_family(p, eps, seq, s):
    """(mu_s, nu_down_s, nu_up_s): the unit-shifted variants that sweep out F.

    mu_s lowers mu by one on the pairs with index below s; the two
    labelings replay the nu constructions from the shifted values.
    """
    seq = as_seq(p, seq)
    if not 0 <= s <= seq.t:
        raise ValueError("shift index out of range")
    shifted = mu(p, eps, seq)
    for i, (x, y) in enumerate(seq.pairs()):
        if i < s:
            shifted[x] -= 1
            shifted[y] -= 1
    down = _nu_from_mu(p, eps, seq, shifted, down=True)
    up = _nu_from_mu(p, eps, seq, shifted, down=False)
    return shifted, down, up


def witness_sequence(p, n, nu):
    """A reduced sequence whose bookended pairs are all tight on nu.

    Tightness means nu(x_i) - nu(y_i) = qdist(n, x_i, y_i) for every pair;
    such a sequence exists exactly when nu is minimal in T^(n).  Returns
    the first witness in canonical order, or raises when none exists.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    eps = 1 if n > 0 else -1
    for seq in enumerate_N(p, eps):
        if all(nu(x) - nu(y) == qdist(p, n, x, y) for x, y in seq.pairs()):
            return seq
    raise ValueError("no reduced sequence is tight on this labeling; it is not minimal")


def q0(p, n):
    """Degree of the distance-floor labeling: qdist(n, bottom, top)."""
    return qdist(p, n, p.bottom, TOP)


def q_max(p, n):
    """Largest generator degree: max q-value over the reduced sequences."""
    if n == 0:
        return 0
    eps = 1 if n > 0 else -1
    return max(q_value(p, n, s.zigzag()) for s in enumerate_N(p, eps))
