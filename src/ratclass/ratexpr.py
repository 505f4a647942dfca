"""Rational expressions g(x)/h(x) over a finite field, in lowest terms.

Every expression is normalized on construction: numerator and
denominator are made coprime and the denominator monic, so equal maps
have identical coefficient tuples and expressions can be hashed,
compared and sorted.  Evaluation is projective, with INF standing for
the point at infinity of P^1.  An expression is a value, not an
algebra: arithmetic is written as text for parse.parse_expression, and
composition with Moebius maps is moebius.act, post and precompose.
"""

from __future__ import annotations

from .ffield import check_desk_scale
from .poly import Poly, _mk, _trim, divmod_poly, gcd_monic, map_coeffs


class _Inf:
    """The point at infinity; a singleton."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Inf()


def proj_key(P):
    """Sort key on P^1: infinity first, then elements in code order."""
    if P is INF:
        return (0, 0)
    return (1, P.key)


def proj_points(ctx):
    """All points of P^1(F_q) in canonical order: inf, then the field."""
    yield INF
    yield from ctx


def proj_str(P):
    return "inf" if P is INF else str(P)


class RatExpr:
    """A rational expression in lowest terms with monic denominator."""

    __slots__ = ("ctx", "num", "den", "_key")

    def __init__(self, num, den):
        if num.ctx is not den.ctx:
            raise TypeError("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        g = gcd_monic(num, den)
        if (g.degree or 0) > 0:
            num = divmod_poly(num, g)[0]
            den = divmod_poly(den, g)[0]
        lc = den.coeffs[-1]
        if lc.key != 1:
            inv = lc.inverse()
            num = num * inv
            den = den * inv
        self.ctx = num.ctx
        self.num = num
        self.den = den
        self._key = None

    @property
    def key(self):
        k = self._key
        if k is None:
            k = (self.num.coeff_keys, self.den.coeff_keys)
            self._key = k
        return k

    @property
    def degree(self):
        """max(deg num, deg den); the constant zero map has degree 0."""
        nd = self.num.degree
        if nd is None:
            return self.den.degree
        return max(nd, self.den.degree)

    def __call__(self, P):
        """Projective evaluation at P in the coefficient field or at INF."""
        if P is INF:
            nd = self.num.degree
            dd = self.den.degree
            if nd is None:
                return self.ctx.zero
            if nd > dd:
                return INF
            if nd < dd:
                return self.ctx.zero
            return self.num.coeffs[-1]
        nv = self.num(P)
        dv = self.den(P)
        if dv.key:
            return nv / dv
        if nv.key:
            return INF
        raise AssertionError("common root survived normalization")

    def fiber(self, Q):
        """The fiber polynomial over Q: num - Q den, or den for Q = INF.
        Its roots are the finite preimages of Q, each of multiplicity
        its index."""
        return self.den if Q is INF else self.num - self.den * Q

    def lift(self, emb):
        """The same expression over the extension reached by emb.

        An embedding keeps numerator and denominator coprime and the
        denominator monic, so the lift needs no normalizing.
        """
        return _normalized(map_coeffs(self.num, emb),
                           map_coeffs(self.den, emb))

    def __eq__(self, other):
        if not isinstance(other, RatExpr):
            return NotImplemented
        return self.ctx is other.ctx and self.key == other.key

    def __hash__(self):
        return hash((self.ctx.uid, self.key))

    def __str__(self):
        ns = str(self.num)
        if self.den.degree == 0:
            return ns
        ds = str(self.den)
        if "+" in ns:
            ns = "(%s)" % ns
        if "+" in ds:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "RatExpr(%s, %s)" % (self.ctx.name, self)


def _normalized(num, den, key=None):
    """RatExpr from a coprime pair with monic den, trusted as is; key,
    when given, is the pair's coefficient codes."""
    rx = RatExpr.__new__(RatExpr)
    rx.ctx = num.ctx
    rx.num = num
    rx.den = den
    rx._key = key
    return rx


def expr(ctx, num_coeffs, den_coeffs=(1,)):
    """Expression from little-endian coefficient lists (ints or elements)."""
    return RatExpr(Poly(ctx, num_coeffs), Poly(ctx, den_coeffs))


def count_expressions(ctx, r):
    """Number of rational expressions of degree exactly r >= 1."""
    if r < 1:
        raise ValueError("degree must be at least 1")
    q = ctx.q
    return q ** (2 * r - 1) * (q * q - 1)


def _poly_from_code(ctx, code, width, top=None):
    els = ctx.elements
    q = ctx.q
    cs = []
    for _ in range(width):
        k = code % q
        cs.append(els[k] if els is not None else ctx.from_key(k))
        code //= q
    if top is not None:
        cs.append(top)
    return _mk(ctx, _trim(cs))


def enumerate_expressions(ctx, r):
    """All expressions of degree exactly r, in a fixed documented order.

    Denominators are monic and run by (degree, coefficient code);
    numerators run by coefficient code, restricted to exact degree r
    while the denominator degree is below r.  Every expression of
    degree r appears exactly once, already in lowest terms.
    """
    _check_scale(ctx, r)
    return _enumerate_expressions(ctx, r)


def _check_scale(ctx, r):
    """count_expressions(ctx, r), the bound on every walk over the
    expressions of degree r: ScaleLimitError beyond the desk-scale
    bound."""
    return check_desk_scale(count_expressions(ctx, r),
                            "expressions of degree %d over %s"
                            % (r, ctx.name))


def _enumerate_expressions(ctx, r):
    q = ctx.q
    one = ctx.one
    for dd in range(r + 1):
        for dk in range(q ** dd):
            den = _poly_from_code(ctx, dk, dd, top=one)
            if dd == r:
                lo, hi = 1, q ** (r + 1)
            else:
                lo, hi = q ** r, q ** (r + 1)
            for nk in range(lo, hi):
                num = _poly_from_code(ctx, nk, r + 1)
                if gcd_monic(num, den).degree == 0:
                    yield _normalized(num, den)
