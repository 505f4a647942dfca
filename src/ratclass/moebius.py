"""Moebius transformations (a x + b)/(c x + d) over a finite field.

A transformation is stored as a projective matrix normalized so that its
first nonzero entry in row-major order is 1; with the nonzero-determinant
requirement this makes each group element a unique value, so sets of
them deduplicate correctly.  The module also provides the two-sided pair
action (B, A) . R = B(R(A^{-1}(x))) on rational expressions, cross-ratios
of four projective points, and the order-6 group S acting on cross-ratio
values by lam -> 1/lam and lam -> 1 - lam.  The action computes on
integer element codes with the field's code arithmetic and makes each
output coefficient an element once.
"""

from __future__ import annotations

from .ffield import Fel, check_desk_scale
from .poly import Poly, _mk
from .ratexpr import INF, RatExpr, _normalized, proj_key


def _coerce(ctx, v):
    if isinstance(v, Fel):
        if v.ctx is not ctx:
            raise TypeError("entry from a different field")
        return v
    if isinstance(v, int):
        return ctx.scalar(v)
    raise TypeError("matrix entries must be field elements or ints")


class Moebius:
    """One element of PGL_2(F), acting on P^1 as (a x + b)/(c x + d)."""

    __slots__ = ("ctx", "a", "b", "c", "d")

    def __init__(self, ctx, a, b, c, d):
        a = _coerce(ctx, a)
        b = _coerce(ctx, b)
        c = _coerce(ctx, c)
        d = _coerce(ctx, d)
        if (a * d - b * c).key == 0:
            raise ValueError("zero determinant")
        for lead in (a, b, c):
            if lead.key:
                break
        else:
            lead = d
        if lead.key != 1:
            inv = lead.inverse()
            a, b, c, d = a * inv, b * inv, c * inv, d * inv
        self.ctx = ctx
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @property
    def key(self):
        return (self.a.key, self.b.key, self.c.key, self.d.key)

    def __call__(self, P):
        """The induced map on P^1."""
        if P is INF:
            if self.c.key == 0:
                return INF
            return self.a / self.c
        nv = self.a * P + self.b
        dv = self.c * P + self.d
        if dv.key:
            return nv / dv
        return INF

    def compose(self, other):
        """self after other, by matrix product."""
        if other.ctx is not self.ctx:
            raise TypeError("composition across different fields")
        return Moebius(self.ctx,
                       self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def inverse(self):
        return Moebius(self.ctx, self.d, -self.b, -self.c, self.a)

    def as_ratexpr(self):
        return RatExpr(Poly(self.ctx, (self.b, self.a)),
                       Poly(self.ctx, (self.d, self.c)))

    def descend(self, emb):
        """The same transformation over emb.src, or None if any entry
        lies outside the embedded subfield."""
        try:
            return Moebius(emb.src, emb.preimage(self.a),
                           emb.preimage(self.b), emb.preimage(self.c),
                           emb.preimage(self.d))
        except ValueError:
            return None

    def __eq__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        return self.ctx is other.ctx and self.key == other.key

    def __hash__(self):
        return hash((self.ctx.uid, self.key))

    def __str__(self):
        return str(self.as_ratexpr())

    def __repr__(self):
        return "Moebius(%s, %s)" % (self.ctx.name, self)


def identity(ctx):
    return Moebius(ctx, 1, 0, 0, 1)


def three_point_map(a, b, c):
    """The unique transformation sending inf, 0, 1 to a, b, c.

    For finite points this is ( a(b-c)x + b(c-a) ) / ( (b-c)x + (c-a) );
    an infinite argument replaces the matrix by its coefficient of that
    argument, which is the natural projective degeneration.
    """
    pts = (a, b, c)
    if len({proj_key(P) for P in pts}) < 3:
        raise ValueError("three_point_map needs distinct points")
    ctx = next(P.ctx for P in pts if P is not INF)
    if a is INF:
        return Moebius(ctx, c - b, b, 0, 1)
    if b is INF:
        return Moebius(ctx, a, c - a, 1, 0)
    if c is INF:
        return Moebius(ctx, a, -b, 1, -1)
    return Moebius(ctx, a * (b - c), b * (c - a), b - c, c - a)


def map_triple(src, dst):
    """A transformation sending the triple src onto the triple dst."""
    return three_point_map(*dst).compose(three_point_map(*src).inverse())


class PairAction:
    """A pair (B, A) acting on expressions by R -> B(R(A^{-1}(x)))."""

    __slots__ = ("B", "A")

    def __init__(self, B, A):
        if B.ctx is not A.ctx:
            raise TypeError("pair over different fields")
        self.B = B
        self.A = A

    @property
    def ctx(self):
        return self.B.ctx

    def compose(self, other):
        return PairAction(self.B.compose(other.B), self.A.compose(other.A))

    def inverse(self):
        return PairAction(self.B.inverse(), self.A.inverse())

    def __eq__(self, other):
        if not isinstance(other, PairAction):
            return NotImplemented
        return self.B == other.B and self.A == other.A

    def __hash__(self):
        return hash((self.B, self.A))

    def __repr__(self):
        return "PairAction(B=%s, A=%s)" % (self.B, self.A)


def pair_identity(ctx):
    return PairAction(identity(ctx), identity(ctx))


def _substitute(R, a, b, c, d):
    """Coefficient codes of the numerator and denominator of
    R((ax+b)/(cx+d)), a, b, c, d given as codes, homogenized at weight
    r = deg R: each side is sum_i f_i (ax+b)^i (cx+d)^(r-i).

    Each side is evaluated by Horner's rule in ax+b, with the powers of
    cx+d built once for both; the sums of products run on the field's
    lazy code operations.
    """
    add, scale, reduce = R.ctx.lazy
    r = R.degree
    dpow = [[1]]
    for _ in range(r):
        dpow.append(_times_linear(dpow[-1], d, c, add, scale))
    out = []
    for f in R.key:
        f = f + (0,) * (r + 1 - len(f))
        h = [f[r]]
        for i in range(r - 1, -1, -1):
            h = _times_linear(h, b, a, add, scale)
            if f[i]:
                h = list(map(add, h, scale(f[i], dpow[r - i])))
        out.append(list(map(reduce, h)) if reduce is not None else h)
    return out


def _times_linear(f, b, a, add, scale):
    """The codes of f times a x + b."""
    return list(map(add, scale(b, f + [0]), scale(a, [0] + f)))


def _fold(B, num, den):
    """(B.a num + B.b den) / (B.c num + B.d den) with a monic denominator."""
    return _from_key(B.ctx, _fold_key(B.ctx, B.key, num, den))


def _fold_key(ctx, codes, num, den):
    """The key of _fold for a B given by the codes of (a, b, c, d).

    num and den are code lists of a coprime pair that is not constant;
    an invertible B keeps the pair coprime, so only the leading
    coefficient of the denominator is divided out, and any scalar
    multiple of B's codes gives the same key.
    """
    add, scale, reduce = ctx.lazy
    ba, bb, bc, bd = codes
    width = max(len(num), len(den))
    num = list(num) + [0] * (width - len(num))
    den = list(den) + [0] * (width - len(den))
    n2 = list(map(add, scale(ba, num), scale(bb, den)))
    d2 = list(map(add, scale(bc, num), scale(bd, den)))
    if reduce is not None:
        n2 = list(map(reduce, n2))
        d2 = list(map(reduce, d2))
    return _monic_key(ctx, n2, d2)


def _monic_over(ctx, num, den):
    """The expression of a coprime pair of code lists, with the
    denominator made monic and no gcd taken."""
    return _from_key(ctx, _monic_key(ctx, num, den))


def _monic_key(ctx, num, den):
    """The key of _monic_over: both code lists trimmed, then divided by
    the denominator's leading coefficient."""
    num = _trimmed(num)
    den = _trimmed(den)
    lc = den[-1]
    if lc != 1:
        inv = ctx.inv(lc)
        num = ctx.scale(inv, num)
        den = ctx.scale(inv, den)
    return tuple(num), tuple(den)


def _from_key(ctx, key):
    """The expression with the normalized key (num codes, den codes);
    each coefficient is made an element once, here."""
    wrap = ctx._by_key
    num, den = key
    return _normalized(_mk(ctx, map(wrap, num)), _mk(ctx, map(wrap, den)),
                       key)


def _trimmed(codes):
    """A code list without its trailing zeros."""
    while not codes[-1]:
        codes = codes[:-1]
    return codes


def post(B, S):
    """B composed after the expression S, that is B(S(x))."""
    return _fold(B, *S.key)


def solve_post(S, T):
    """The B with B(S(x)) = T(x), or None when there is none.

    B(S) = T holds exactly when T's numerator and denominator lie in
    the pencil spanned by S's, so B is read off as their coordinates
    in that pencil: T_num = a S_num + b S_den and T_den = c S_num +
    d S_den, solved by Cramer's rule on the first pair of coefficient
    positions where S_num and S_den are independent, then checked at
    every position.  The action of B on a nonconstant S is free, so the
    B found is the only one.
    """
    r = S.degree
    if r < 1 or T.degree != r:
        return None
    sn, sd, tn, td = ([f.coeff(k) for k in range(r + 1)]
                      for f in (S.num, S.den, T.num, T.den))
    # a coprime nonconstant pair is independent, so some minor is nonzero
    i, j = next((i, j) for i in range(r) for j in range(i + 1, r + 1)
                if (sn[i] * sd[j] - sn[j] * sd[i]).key)
    inv = (sn[i] * sd[j] - sn[j] * sd[i]).inverse()
    a = (tn[i] * sd[j] - tn[j] * sd[i]) * inv
    b = (sn[i] * tn[j] - sn[j] * tn[i]) * inv
    c = (td[i] * sd[j] - td[j] * sd[i]) * inv
    d = (sn[i] * td[j] - sn[j] * td[i]) * inv
    for k in range(r + 1):
        if (tn[k] != a * sn[k] + b * sd[k]
                or td[k] != c * sn[k] + d * sd[k]):
            return None
    B = Moebius(S.ctx, a, b, c, d)
    return B if post(B, S) == T else None


def precompose(R, M):
    """R composed with M, that is R(M(x)); coprime as in act."""
    return _monic_over(R.ctx, *_substitute(R, *M.key))


def act(pair, R):
    """The pair action (B, A) . R = B(R(A^{-1}(x))), normalized.

    A^{-1} is (d, -b, -c, a) up to a scale, which the monic
    denominator absorbs, so no inverse is normalized.  No gcd is needed
    either: R's numerator and denominator homogenize to coprime forms of
    weight deg R, an invertible change of variables keeps forms coprime,
    and so does the invertible combination that B applies afterwards.
    """
    if R.degree < 1:
        raise ValueError("the action is defined on nonconstant expressions")
    if pair.ctx is not R.ctx:
        raise TypeError("pair and expression over different fields")
    return _fold(pair.B, *_substitute(R, *_inverse_key(pair.A)))


def _inverse_key(A):
    """Codes of (d, -b, -c, a), the inverse of A up to a scale."""
    neg = A.ctx.neg
    return A.d.key, neg(A.b.key), neg(A.c.key), A.a.key


def enumerate_pgl2(ctx):
    """All q^3 - q group elements, each exactly once, as _pgl2 orders them."""
    return list(_pgl2(ctx))


def _pgl2(ctx):
    """All q^3 - q group elements, lazily, for scans that may stop early.

    Normalized representatives have first row (1, b) or (0, 1); the
    (1, b) block runs first, ordered by the codes of (b, c, d), then the
    (0, 1) block ordered by (c, d).
    """
    check_desk_scale(ctx.q ** 3 - ctx.q, "elements of PGL_2(%s)" % ctx.name)
    els = list(ctx)
    for b in els:
        for c in els:
            bc = b * c
            for d in els:
                if d != bc:
                    yield Moebius(ctx, ctx.one, b, c, d)
    zero = ctx.zero
    for c in els:
        if c.key:
            for d in els:
                yield Moebius(ctx, zero, ctx.one, c, d)


def pair_scan(R, T):
    """Every pair (B, A) with act((B, A), R) = T, by A in enumerate_pgl2
    order.

    R(A^{-1}(x)) is substituted as in act but with no B folded in, and
    B is read off its pencil by solve_post; the action of B is free, so
    each A gives at most one pair.  Raises ValueError when the group is
    too large to enumerate.
    """
    for A in _pgl2(R.ctx):
        S = _monic_over(R.ctx, *_substitute(R, *_inverse_key(A)))
        B = solve_post(S, T)
        if B is not None:
            yield PairAction(B, A)


def cross_ratio(x1, x2, x3, x4):
    """The cross-ratio (x1-x3)(x2-x4) / ( (x2-x3)(x1-x4) ).

    An infinite entry clears the two factors containing it.  The inputs
    must be pairwise distinct, so the value never lands in {0, 1, inf}.
    """
    pts = (x1, x2, x3, x4)
    if len({proj_key(P) for P in pts}) < 4:
        raise ValueError("cross-ratio needs distinct points")
    ctx = next(P.ctx for P in pts if P is not INF)
    num = ctx.one
    den = ctx.one
    if x1 is not INF and x3 is not INF:
        num = num * (x1 - x3)
    if x2 is not INF and x4 is not INF:
        num = num * (x2 - x4)
    if x2 is not INF and x3 is not INF:
        den = den * (x2 - x3)
    if x1 is not INF and x4 is not INF:
        den = den * (x1 - x4)
    return num / den


def s_group_maps(ctx):
    """The six maps of S as transformations of the cross-ratio line:
    lam, 1/lam, 1-lam, lam/(lam-1), 1/(1-lam), (lam-1)/lam."""
    return (
        Moebius(ctx, 1, 0, 0, 1),
        Moebius(ctx, 0, 1, 1, 0),
        Moebius(ctx, -1, 1, 0, 1),
        Moebius(ctx, 1, 0, 1, -1),
        Moebius(ctx, 0, 1, -1, 1),
        Moebius(ctx, 1, -1, 1, 0),
    )


def s_orbit(lam, ctx=None):
    """The S-orbit of a cross-ratio value (a set of points of P^1)."""
    if ctx is None:
        ctx = lam.ctx
    return {M(lam) for M in s_group_maps(ctx)}


def s_orbit_min(lam, ctx=None):
    """The least orbit member: inf first, then by element code."""
    return min(s_orbit(lam, ctx), key=proj_key)

