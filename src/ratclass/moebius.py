"""Moebius transformations (a x + b)/(c x + d) over a finite field.

A transformation is stored as a projective matrix normalized so that its
first nonzero entry in row-major order is 1; with the nonzero-determinant
requirement this makes each group element a unique value, so sets of
them deduplicate correctly.  The module also provides the two-sided pair
action (B, A) . R = B(R(A^{-1}(x))) on rational expressions, cross-ratios
of four projective points, and the order-6 group S acting on cross-ratio
values by lam -> 1/lam and lam -> 1 - lam.  The action computes on
integer element codes with the field's code arithmetic and makes each
output coefficient an element once.  So does the scan of PGL_2 for the
pairs carrying one expression onto another (pair_scan): it walks the
group as code tuples, builds the powers of each denominator form once
for all the maps that share it, solves for B on codes (_solve_post_key,
the step solve_post wraps) and makes elements only for the pairs it
finds.
"""

from __future__ import annotations

import itertools

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

    The composition of the two code steps: the powers of the
    denominator form c x + d (_powers), then Horner's rule in a x + b
    over them (_horner).  A scan that meets one c x + d for many a x + b
    builds its powers once and calls _horner alone.
    """
    return _horner(R, a, b, _powers(R.ctx, R.degree, c, d))


def _powers(ctx, r, c, d):
    """The codes of (c x + d)^k for k = 0..r, unreduced as the field's
    lazy operations leave them."""
    add, scale, _ = ctx.lazy
    dpow = [[1]]
    for _ in range(r):
        dpow.append(_times_linear(dpow[-1], d, c, add, scale))
    return dpow


def _horner(R, a, b, dpow):
    """The codes of the numerator and denominator of R homogenized at
    weight r = deg R in a x + b and the form whose powers dpow holds
    (_powers, k = 0..r): each side by Horner's rule in a x + b, the
    sums of products on the field's lazy code operations, reduced once
    at the end.  Each side has r + 1 codes."""
    add, scale, reduce = R.ctx.lazy
    r = len(dpow) - 1
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
    in that pencil by _solve_post_key, on element codes; the B it
    returns is made a Moebius here and checked to compose onto T.  The
    action of B on a nonconstant S is free, so the B found is the only
    one.  S and T over different fields raise TypeError; a constant S
    or a T of another degree gives None.
    """
    ctx = S.ctx
    if T.ctx is not ctx:
        raise TypeError("expressions over different fields")
    r = S.degree
    if r < 1 or T.degree != r:
        return None
    codes = _solve_post_key(ctx, _padded(S.key, r), _padded(T.key, r), r)
    if codes is None:
        return None
    B = Moebius(ctx, *map(ctx._by_key, codes))
    return B if post(B, S) == T else None


def _solve_post_key(ctx, s, t, r):
    """The codes (a, b, c, d) of the B with B(S) = T, or None.

    s and t are the (num, den) code lists of S and T, both padded to
    r + 1 coefficients.  T_num = a S_num + b S_den and T_den = c S_num
    + d S_den are solved by Cramer's rule on the first pair of
    coefficient positions where S_num and S_den are independent, then
    checked at every position.
    """
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    sn, sd = s
    tn, td = t
    # a coprime nonconstant pair is independent, so some minor is nonzero
    for i, j in itertools.combinations(range(r + 1), 2):
        det = sub(mul(sn[i], sd[j]), mul(sn[j], sd[i]))
        if det:
            break
    inv = ctx.inv(det)
    a = mul(sub(mul(tn[i], sd[j]), mul(tn[j], sd[i])), inv)
    b = mul(sub(mul(sn[i], tn[j]), mul(sn[j], tn[i])), inv)
    c = mul(sub(mul(td[i], sd[j]), mul(td[j], sd[i])), inv)
    d = mul(sub(mul(sn[i], td[j]), mul(sn[j], td[i])), inv)
    for k in range(r + 1):
        if (tn[k] != add(mul(a, sn[k]), mul(b, sd[k]))
                or td[k] != add(mul(c, sn[k]), mul(d, sd[k]))):
            return None
    return a, b, c, d


def _padded(key, r):
    """The (num, den) code lists of a key, padded to r + 1 codes."""
    return tuple(list(w) + [0] * (r + 1 - len(w)) for w in key)


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
    """All q^3 - q group elements, lazily, in _pgl2_keys order."""
    wrap = ctx._by_key
    return (Moebius(ctx, *map(wrap, key)) for key in _pgl2_keys(ctx))


def _pgl2_keys(ctx):
    """The keys of all q^3 - q group elements, lazily, for scans that
    may stop early; raises ValueError at once when the group is too
    large to enumerate.

    Normalized representatives have first row (1, b) or (0, 1); the
    (1, b) block runs first, ordered by the codes of (b, c, d), then the
    (0, 1) block ordered by (c, d).
    """
    check_desk_scale(ctx.q ** 3 - ctx.q, "elements of PGL_2(%s)" % ctx.name)
    codes = range(ctx.q)
    mul = ctx.mul
    return itertools.chain(
        ((1, b, c, d) for b in codes for c in codes
         for bc in (mul(b, c),) for d in codes if d != bc),
        ((0, 1, c, d) for c in codes[1:] for d in codes))


def pair_scan(R, T):
    """Every pair (B, A) with act((B, A), R) = T, by A in enumerate_pgl2
    order.

    The scan runs on element codes (_inverse_walk): for each A,
    R(A^{-1}(x)) is substituted as in act but with no B folded in, and
    with the powers of the denominator form built once per c.  B is
    read off the pencil of the raw substituted codes by _solve_post_key
    against T's codes; they need no monic step, since a common scale of
    S's pair only scales B.  The action of B is free, so each A gives at
    most one pair.  Only for an A that matches is S normalized, B taken
    from solve_post with its re-check, and A made a Moebius.  Raises
    ValueError when the group is too large to enumerate, before
    anything else, then TypeError for expressions over different
    fields; an R and a T of different degrees give no pair.
    """
    ctx = R.ctx
    keys = _pgl2_keys(ctx)
    if T.ctx is not ctx:
        raise TypeError("expressions over different fields")
    r = R.degree
    if r < 1 or T.degree != r:
        return
    t = _padded(T.key, r)
    for key, s in _inverse_walk(R, keys):
        if _solve_post_key(ctx, s, t, r) is not None:
            B = solve_post(_monic_over(ctx, *s), T)
            yield PairAction(B, Moebius(ctx, *map(ctx._by_key, key)))


def _inverse_walk(R, keys):
    """(key, codes of R(A^{-1}(x))) for the A given by each key in turn.

    A^{-1} is (d, -b, -c, a) up to a scale, as in act, and the codes
    are _substitute's, r + 1 per side and not normalized.  The powers
    of the denominator form -c x + a depend on (c, a) alone, so they
    are built once for each (c, a): 2q - 1 times over _pgl2_keys, whose
    normalized keys have a in {0, 1}.
    """
    ctx = R.ctx
    r = R.degree
    neg = ctx.neg
    powers = {}
    for key in keys:
        a, b, c, d = key
        dpow = powers.get((c, a))
        if dpow is None:
            dpow = powers[c, a] = _powers(ctx, r, neg(c), a)
        yield key, _horner(R, d, neg(b), dpow)


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
    """The S-orbit of a cross-ratio value (a set of points of P^1); the
    field is lam's, and ctx names it for the point at infinity."""
    if ctx is None:
        if lam is INF:
            raise ValueError("the point at infinity needs ctx")
        ctx = lam.ctx
    return {M(lam) for M in s_group_maps(ctx)}


def s_orbit_min(lam, ctx=None):
    """The least orbit member: inf first, then by element code."""
    return min(s_orbit(lam, ctx), key=proj_key)

