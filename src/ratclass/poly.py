"""Dense univariate polynomials over one finite field.

Coefficients are stored little-endian with trailing zeros trimmed, so
the zero polynomial is the empty tuple and its degree is None (a
distinguished marker, deliberately not -1).

The package's one polynomial arithmetic on field elements lives here:
_add, _mul (None standing for 1) and _pow (c^e x^(ke) for a monomial)
on coefficient lists, with no sum that starts from zero.  Poly's +, *
and ** run them on tuples, and parse on unreduced fractions.

irreducible_factors factors over the coefficient field by squarefree,
distinct-degree and seeded equal-degree (Cantor-Zassenhaus) splitting,
and root_of_irreducible realizes one root of an irreducible factor in
an extension where it splits (quadratic formula for degree 2, splitting
off the smaller half beyond); its conjugates are its Frobenius images.
roots returns the linear factors as roots with their multiplicities,
sorted by element code.  Nothing here scans a field.
"""

from __future__ import annotations

import random

from .ffield import Fel, _artin_schreier_root, frobenius, sqrt

# seed for the equal-degree splitting walk; results do not depend on
# it, only the internal branching order does
SPLIT_SEED = 0


class Poly:
    """Polynomial over a fixed field context; immutable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = ctx.scalar(c)
            elif c.ctx is not ctx:
                raise TypeError("coefficient of %s in a polynomial over %s" %
                                (c.ctx.name, ctx.name))
            cs.append(c)
        self.ctx = ctx
        self.coeffs = tuple(_trim(cs))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        """Coefficient of x^i (zero beyond the stored width)."""
        return self.coeffs[i] if i < len(self.coeffs) else self.ctx.zero

    def __call__(self, a):
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise TypeError("polynomials over different fields")
            return other
        if isinstance(other, (int, Fel)):
            return Poly(self.ctx, (other,))
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _mk(self.ctx, _add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return _mk(self.ctx, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fel)):
            c = other if isinstance(other, Fel) else self.ctx.scalar(other)
            if c.key == 0:
                return _mk(self.ctx, ())
            return _mk(self.ctx, tuple(a * c for a in self.coeffs))
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _mk(self.ctx, _mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fel)):
            c = other if isinstance(other, Fel) else self.ctx.scalar(other)
            return self * c.inverse()
        return NotImplemented

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return _mk(self.ctx, _pow(self.coeffs, e, self.ctx))

    def derivative(self):
        cs = [i * c for i, c in enumerate(self.coeffs)][1:]
        return _mk(self.ctx, _trim(cs))

    def monic(self):
        if self.is_zero or self.coeffs[-1].key == 1:
            return self
        return self * self.coeffs[-1].inverse()

    @property
    def coeff_keys(self):
        return tuple(c.key for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeff_keys == other.coeff_keys

    def __hash__(self):
        return hash((self.ctx.uid, self.coeff_keys))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.key == 0:
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
                continue
            var = "x" if i == 1 else "x^%d" % i
            if c.key == 1:
                parts.append(var)
            elif "+" in cs:
                parts.append("(%s)%s" % (cs, var))
            else:
                parts.append(cs + var)
        return "+".join(parts)

    def __repr__(self):
        return "Poly(%s, %s)" % (self.ctx.name, self)


def _mk(ctx, coeffs):
    p = Poly.__new__(Poly)
    p.ctx = ctx
    p.coeffs = tuple(coeffs)
    return p


def _trim(cs):
    n = len(cs)
    while n and cs[n - 1].key == 0:
        n -= 1
    return cs[:n]


def _add(a, b):
    """Sum of trimmed coefficient lists, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(a)
    for i, c in enumerate(b):
        if c.key:
            d = out[i]
            out[i] = d + c if d.key else c
    return _trim(out)


def _mul(a, b):
    """Product of trimmed coefficient lists, None standing for 1; the
    product of two leading coefficients is nonzero, so it needs no trim."""
    if a is None or b is None:
        return b if a is None else a
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c.key:
            for j, d in enumerate(b):
                if d.key:
                    o = out[i + j]
                    out[i + j] = c * d if o is None else o + c * d
    zero = a[0].ctx.zero
    return [zero if o is None else o for o in out]


def _pow(a, e, ctx):
    """a^e for a trimmed coefficient list a."""
    if e == 0:
        return [ctx.one]
    k = len(a) - 1
    if not any(c.key for c in a[:k]):
        # c x^k, and the empty list (zero) for k = -1
        return [ctx.zero] * (k * e) + [c ** e for c in a[k:]]
    out = a
    for bit in bin(e)[3:]:
        out = _mul(out, out)
        if bit == "1":
            out = _mul(out, a)
    return out


def poly_x(ctx):
    """The polynomial x."""
    return _mk(ctx, (ctx.zero, ctx.one))


def divmod_poly(f, g):
    """Quotient and remainder of f by a nonzero g."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    ctx = f.ctx
    if f.degree is None or f.degree < g.degree:
        return _mk(ctx, ()), f
    inv = g.coeffs[-1].inverse()
    rem = list(f.coeffs)
    dg = g.degree
    qcs = [ctx.zero] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c.key == 0:
            continue
        c = c * inv
        qcs[i - dg] = c
        for j in range(dg + 1):
            rem[i - dg + j] = rem[i - dg + j] - c * g.coeffs[j]
    return _mk(ctx, _trim(qcs)), _mk(ctx, _trim(rem[:dg]))


def gcd_monic(f, g):
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    while not g.is_zero:
        f, g = g, divmod_poly(f, g)[1]
    return f.monic()


def map_coeffs(f, emb):
    """Push a polynomial through a field embedding."""
    return _mk(emb.dst, _trim([emb(c) for c in f.coeffs]))


def pth_root(f):
    """The p-th root of a polynomial with zero derivative."""
    ctx = f.ctx
    p = ctx.p
    cs = []
    for i, c in enumerate(f.coeffs):
        if i % p:
            if c.key:
                raise ValueError("polynomial is not a p-th power")
        else:
            cs.append(frobenius(c, ctx.n - 1))
    return _mk(ctx, _trim(cs))


def radical(f):
    """Product of the distinct monic irreducible factors of f."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no radical")
    f = f.monic()
    if f.degree == 0:
        return f
    d = f.derivative()
    if d.is_zero:
        return radical(pth_root(f))
    g = gcd_monic(f, d)
    if g.degree == 0:
        return f
    s = divmod_poly(f, g)[0]
    rg = radical(g)
    return s * divmod_poly(rg, gcd_monic(rg, s))[0]


def _pow_mod(base, e, mod):
    """base^e reduced mod mod, left to right: every multiplication is by
    base itself, which costs little when base is linear."""
    result = divmod_poly(_mk(base.ctx, (base.ctx.one,)), mod)[1]
    base = divmod_poly(base, mod)[1]
    for bit in bin(e)[2:]:
        result = divmod_poly(result * result, mod)[1]
        if bit == "1":
            result = divmod_poly(result * base, mod)[1]
    return result


def _distinct_degree_split(v):
    """Distinct-degree split of a squarefree monic polynomial.

    Returns (d, g) pairs in ascending d, g the product of the degree-d
    irreducible factors of v.
    """
    ctx = v.ctx
    x = poly_x(ctx)
    out = []
    h = divmod_poly(x, v)[1]
    d = 0
    while v.degree:
        d += 1
        if 2 * d > v.degree:
            out.append((v.degree, v))
            break
        h = _pow_mod(h, ctx.q, v)
        g = gcd_monic(v, h - x)
        if g.degree:
            out.append((d, g))
            v = divmod_poly(v, g)[0]
            if v.degree == 0:
                break
            h = divmod_poly(h, v)[1]
    return out


def factor_degree_pattern(f):
    """Degrees of the monic irreducible factors of f, with multiplicity.

    Returns a sorted list of (degree, count) pairs; count totals the
    multiplicities of all irreducible factors of that degree, so that
    sum(d * count) equals deg f.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no factor pattern")
    counts = {}
    for m, s in _squarefree_split(f):
        for d, g in _distinct_degree_split(s):
            counts[d] = counts.get(d, 0) + m * g.degree // d
    return sorted(counts.items())


def _synthetic_div(f, a):
    """f = (x - a) q + r by Horner; returns (q, r)."""
    ctx = f.ctx
    qcs = [ctx.zero] * (len(f.coeffs) - 1)
    acc = ctx.zero
    for i in range(len(f.coeffs) - 1, 0, -1):
        acc = acc * a + f.coeffs[i]
        qcs[i - 1] = acc
    r = acc * a + f.coeffs[0]
    return _mk(ctx, _trim(qcs)), r


def _multiplicity(f, a):
    m = 0
    while True:
        q, r = _synthetic_div(f, a)
        if r.key:
            return m
        m += 1
        f = q
        if f.degree == 0:
            return m


def roots(f):
    """All roots of f in its own field, as (root, multiplicity) pairs
    sorted by element code: the linear irreducible factors of f."""
    if f.is_zero:
        raise ValueError("every element is a root of the zero polynomial")
    return sorted(((-u.coeffs[0], m) for u, m in irreducible_factors(f)
                   if u.degree == 1), key=lambda am: am[0].key)


def roots_in(f, emb):
    """Roots of f in the extension field reached by emb."""
    return roots(map_coeffs(f, emb))


def _splitter(u, rng, d):
    """A polynomial whose gcd with u has a fair chance of being proper.

    u is monic, squarefree, of degree above d and a product of
    irreducible factors of degree d over its field F_Q.  h is drawn at
    random: for d = 1 the linear x + c (c x with c nonzero in
    characteristic 2), beyond that any h of degree below deg u.  Odd Q:
    h^((Q^d-1)/2) - 1, which sorts the factors by the square class of h
    at their roots.  Characteristic 2: the trace h + h^2 + ... +
    h^(2^(nd-1)).  Both are reduced mod u.
    """
    ctx = u.ctx
    if d > 1:
        cs = [ctx.from_key(rng.randrange(ctx.q)) for _ in range(u.degree)]
        h = _mk(ctx, _trim(cs))
        if h.is_zero:
            return h
    elif ctx.p == 2:
        h = _mk(ctx, (ctx.zero, ctx.from_key(rng.randrange(1, ctx.q))))
    else:
        h = _mk(ctx, (ctx.from_key(rng.randrange(ctx.q)), ctx.one))
    if ctx.p == 2:
        acc = cur = divmod_poly(h, u)[1]
        for _ in range(ctx.n * d - 1):
            cur = divmod_poly(cur * cur, u)[1]
            acc = acc + cur
        return acc
    return _pow_mod(h, (ctx.q ** d - 1) // 2, u) - ctx.one


def _equal_degree_split(g, d, rng):
    """The monic irreducible factors of g, a squarefree monic product
    of irreducibles of degree d (Cantor-Zassenhaus)."""
    out = []
    stack = [g]
    while stack:
        u = stack.pop()
        if u.degree == d:
            out.append(u)
            continue
        w = _splitter(u, rng, d)
        h = gcd_monic(u, w)
        if 0 < (h.degree or 0) < u.degree:
            stack.append(h)
            stack.append(divmod_poly(u, h)[0])
        else:
            stack.append(u)
    return out


def _squarefree_split(f):
    """(m, s) pairs: s is the product of the monic irreducible factors
    of f of multiplicity exactly m, for every m with s nonconstant."""
    f = f.monic()
    r = radical(f)
    if r.degree == f.degree:
        return [(1, f)] if f.degree else []
    out = []
    m = 1
    while f.degree:
        f = divmod_poly(f, r)[0]
        r2 = radical(f)
        s = divmod_poly(r, r2)[0]
        if s.degree:
            out.append((m, s))
        r = r2
        m += 1
    return out


def irreducible_factors(f):
    """The monic irreducible factors of a nonzero f over its field.

    Returns (factor, multiplicity) pairs sorted by factor degree, then
    coefficient codes.  Squarefree, distinct-degree and equal-degree
    splitting; nothing scans the field.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no factorization")
    rng = random.Random(SPLIT_SEED)
    out = []
    for m, s in _squarefree_split(f):
        for d, g in _distinct_degree_split(s):
            out.extend((u, m) for u in _equal_degree_split(g, d, rng))
    out.sort(key=lambda um: (um[0].degree, um[0].coeff_keys))
    return out


def root_of_irreducible(u, emb):
    """One root of the monic irreducible u in the extension reached by
    emb, whose degree over u's field must be a multiple of u.degree.

    Its conjugates are the images under x -> x^q.  Quadratics use the
    quadratic formula (an Artin-Schreier root in characteristic 2);
    larger degrees split u over the extension, keeping the smaller
    half, until a quadratic or a linear factor is left.
    """
    f = map_coeffs(u, emb)
    if f.degree > 2:
        rng = random.Random(SPLIT_SEED)
        while f.degree > 2:
            h = gcd_monic(f, _splitter(f, rng, 1))
            if 0 < (h.degree or 0) < f.degree:
                rest = divmod_poly(f, h)[0]
                f = h if h.degree <= rest.degree else rest
    if f.degree == 2:
        return _quadratic_root(f)
    return -f.coeffs[0]


def _quadratic_root(f):
    """One root of a monic separable quadratic that splits in its field."""
    c, b = f.coeffs[0], f.coeffs[1]
    ctx = f.ctx
    if ctx.p == 2:
        # x = b y turns x^2 + b x + c into y^2 + y + c / b^2
        return b * _artin_schreier_root(c / (b * b))
    return (sqrt(b * b - 4 * c) - b) / 2
