"""Arithmetic in finite fields F_q, q = p^n, with reproducible conventions.

Every choice made here is a pure function of (p, n), so independent runs
agree on all canonical data built downstream:

* elements are coefficient vectors over F_p in the power basis of a fixed
  defining polynomial, and they order as the integers sum(a_i * p^i);
* the defining polynomial of F_{p^n} is the first monic irreducible found
  when those integer codes are scanned upward;
* the embedding F_{p^a} -> F_{p^b} factors [b:a] into primes in ascending
  order and sends each generator to the least root of its defining
  polynomial at every step, so embeddings along nested ascending towers
  compose consistently; that root comes from linear algebra over F_p and
  a split over the smaller field, never over the larger one;
* square roots return the lesser of the two candidates, and the
  distinguished constants sigma (least nonsquare, or least element of
  absolute trace 1 in characteristic 2), theta (least noncube) and tau
  (least root of the canonical quadratic over sigma) are all "least" in
  the same element order.

An element is its field and its code, nothing more, and the field
computes on codes (FieldCtx).  Prime fields add and multiply mod p.
Fields with at most 2^13 elements intern every element and keep
discrete-log tables; their proper extensions multiply through them,
and in odd characteristic add through Zech logarithms.  In
characteristic 2 codes are bit vectors, so every extension adds by
XOR.  Beyond the tables each operation packs its operands into the
kernel `_Packed`, computes there and reads the code back; the same
kernel builds every field (the Rabin scan for its
defining polynomial, its least primitive element and the walk that
fills its tables).  The bound of 2^24 applies to the fields worked
over, which the CLI checks.  The constructor also builds F_{p^n} when
p^(n/k) is within it for some k <= 4 dividing n, so the extensions of
degree at most 4 that ramification points and four-point invariants
live in exist over every field within the bound, all without tables.
Any other field raises ScaleLimitError, as every other check of that
bound does.
"""

from __future__ import annotations

import functools
import itertools
import operator

DESK_SCALE_BOUND = 1 << 24
INTERN_BOUND = 1 << 13

_uids = itertools.count()


class ScaleLimitError(ValueError):
    """A computation refused because its size exceeds DESK_SCALE_BOUND."""


def check_desk_scale(size, what):
    """size, unless it exceeds DESK_SCALE_BOUND: then ScaleLimitError
    naming the bound, with what naming the objects counted (as in
    "expressions of degree 3 over F_11")."""
    if size > DESK_SCALE_BOUND:
        raise _scale_error(size, what)
    return size


def _scale_error(size, what):
    return ScaleLimitError("%s %s exceed the limit %d, the desk-scale bound"
                           % (size, what, DESK_SCALE_BOUND))


# 2^_BOUND_BITS is the bound, so |p| >= 2 puts p^n beyond it once
# n > _BOUND_BITS
_BOUND_BITS = DESK_SCALE_BOUND.bit_length() - 1


def check_power_scale(p, n, what):
    """check_desk_scale(p ** n, what), with a power that is beyond the
    bound for its exponent alone refused before it is computed."""
    if abs(p) >= 2 and n > _BOUND_BITS:
        raise _scale_error("%d^%d" % (p, n), what)
    return check_desk_scale(p ** n, what)


def _is_prime(m):
    return m >= 2 and _prime_factors(m) == [m]


def _prime_factors(m):
    """Sorted distinct prime factors of m >= 1."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


# Packed-integer arithmetic in F_p[t]/(f): the Rabin test of each
# candidate defining polynomial, the least primitive element, the exp/log
# walk, and element arithmetic in fields beyond the tables.  A polynomial
# packs coefficient i into bits [i w, (i + 1) w) of one integer, so an
# integer product multiplies polynomials.  The slots are wide enough that
# a product and its Barrett reduction mod f (two more products) never
# carry, nor does x + (p - 1) y, a difference, so each slot is reduced
# mod p once, at the end.

class _Packed:
    """F_p[t]/(f) for a monic f of degree n on packed integers."""

    def __init__(self, p, f):
        n = len(f) - 1
        self.p, self.n, self.q = p, n, p ** n
        w = self.w = (2 * n ** 3 * (p - 1) ** 4).bit_length()
        self.mask = (1 << w) - 1
        self.ones = ((1 << n * w) - 1) // self.mask
        self.negf = 0
        for c in reversed(f):
            self.negf = (self.negf << w) | (-c % p)
        # mu = x^(2n) div f, by long division
        rem, self.mu = 1 << 2 * n * w, 0
        for s in range(n * w, -1, -w):
            c = ((rem >> (n * w + s)) & self.mask) % p
            self.mu |= c << s
            rem += (c * self.negf) << s

    def pack(self, k):
        """The packed residue of the element with code k."""
        v, s = 0, 0
        while k:
            k, d = divmod(k, self.p)
            v |= d << s
            s += self.w
        return v

    def code(self, v):
        """The element code of the low n slots of v, reduced mod p."""
        k = 0
        for s in range((self.n - 1) * self.w, -1, -self.w):
            k = k * self.p + ((v >> s) & self.mask) % self.p
        return k

    def reduce(self, v):
        """The low n slots of v, each reduced mod p."""
        return v & self.ones if self.p == 2 else self.pack(self.code(v))

    def product(self, x, y):
        """x y mod f with its low n slots not yet reduced mod p."""
        v = x * y
        nw = self.n * self.w
        return v + (((v >> nw) * self.mu) >> nw) * self.negf

    def mul(self, x, y):
        return self.reduce(self.product(x, y))

    def pow(self, x, e):
        out = 1
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, x)
        return out

    def is_irreducible(self):
        """Rabin's test for f."""
        p, n, q = self.p, self.n, self.q
        t = self.mul(1, 1 << self.w)  # t mod f, a constant when n = 1
        if self.pow(t, q) != t:
            return False
        # then f is squarefree and the degrees of its factors divide n,
        # so gcd(u, f) = 1 exactly when u^(q-1) = 1
        for ell in _prime_factors(n):
            u = self.reduce(self.pow(t, p ** (n // ell)) + (p - 1) * t)
            if self.pow(u, q - 1) != 1:
                return False
        return True

    def primitive(self):
        """Code of the least generator of the multiplicative group."""
        q = self.q
        fac = _prime_factors(q - 1)
        for k in range(1, q):
            v = self.pack(k)
            if all(self.pow(v, (q - 1) // ell) != 1 for ell in fac):
                return k
        raise AssertionError("no primitive element in F_%d" % q)

    def powers(self, c):
        """The codes of c^0, c^1, ..., c^(q-2).

        Multiplying by c is F_p-linear, so one table per chunk of digits
        holds the images of all chunk values: a step adds one lookup per
        chunk and reduces once.  In characteristic 2 codes are bit
        vectors, so the tables hold codes and a step adds them by XOR.
        """
        p, size = self.p, 1
        while p ** (size + 1) <= 256:
            size += 1
        radix, tabs, img = p ** size, [], self.pack(c)
        for lo in range(0, self.n, size):
            tab = [0]
            for _ in range(min(size, self.n - lo)):
                tab = [u + d * img for d in range(p) for u in tab]
                img = self.mul(img, 1 << self.w)
            tabs.append([self.code(u) for u in tab] if p == 2 else tab)
        k = 1
        for _ in range(self.q - 1):
            yield k
            v = 0
            if p == 2:
                for tab in tabs:
                    k, r = divmod(k, radix)
                    v ^= tab[r]
                k = v
            else:
                for tab in tabs:
                    k, r = divmod(k, radix)
                    v += tab[r]
                k = self.code(v)


@functools.lru_cache(maxsize=None)
def _defining_poly(p, n):
    """First monic irreducible of degree n over F_p in code order.

    Code k encodes the non-leading coefficients little-endian in base p,
    so the scan respects the same element order used everywhere else.
    """
    for k in range(p ** n):
        f = [k // p ** i % p for i in range(n)] + [1]
        if _Packed(p, f).is_irreducible():
            return tuple(f)
    raise AssertionError("no irreducible of degree %d over F_%d" % (n, p))


class Fel:
    """One field element: its field and its integer code.

    The code sum(rep[i] * p^i) of the coefficient vector rep over F_p in
    the power basis is the element's whole state: elements compare, sort
    and hash by it, and rep decodes it on demand.  Arithmetic coerces
    Python ints on either side (they reduce mod p); elements of two
    different fields never mix, embeddings are always explicit.
    """

    __slots__ = ("ctx", "key")

    def __init__(self, ctx, key):
        self.ctx = ctx
        self.key = key

    @property
    def rep(self):
        """Coefficient vector over F_p in the power basis."""
        p, k = self.ctx.p, self.key
        return tuple(k // p ** i % p for i in range(self.ctx.n))

    # -- construction helpers live on FieldCtx; dunders only here --

    def _lift(self, other):
        if type(other) is Fel:
            if other.ctx is not self.ctx:
                raise TypeError("elements of %s and %s do not mix" %
                                (self.ctx.name, other.ctx.name))
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other):
        ctx = self.ctx
        if type(other) is not Fel or other.ctx is not ctx:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return ctx._by_key(ctx.add(self.key, other.key))

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        if type(other) is not Fel or other.ctx is not ctx:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return ctx._by_key(ctx.sub(self.key, other.key))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        ctx = self.ctx
        return ctx._by_key(ctx.neg(self.key))

    def __mul__(self, other):
        ctx = self.ctx
        if type(other) is not Fel or other.ctx is not ctx:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return ctx._by_key(ctx.mul(self.key, other.key))

    __rmul__ = __mul__

    def inverse(self):
        ctx = self.ctx
        if self.key == 0:
            raise ZeroDivisionError("inverse of 0 in " + ctx.name)
        return ctx._by_key(ctx.inv(self.key))

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        ctx = self.ctx
        if self.key == 0:
            if e == 0:
                return ctx.one
            if e < 0:
                raise ZeroDivisionError("0 to a negative power in " + ctx.name)
            return self
        return ctx._by_key(ctx.pow(self.key, e % (ctx.q - 1)))

    def __eq__(self, other):
        if type(other) is Fel:
            return self.ctx is other.ctx and self.key == other.key
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.uid, self.key))

    def _cmp_ready(self, other):
        if type(other) is not Fel or other.ctx is not self.ctx:
            raise TypeError("order is defined within a single field")
        return other

    def __lt__(self, other):
        return self.key < self._cmp_ready(other).key

    def __le__(self, other):
        return self.key <= self._cmp_ready(other).key

    def __gt__(self, other):
        return self.key > self._cmp_ready(other).key

    def __ge__(self, other):
        return self.key >= self._cmp_ready(other).key

    def __bool__(self):
        return self.key != 0

    def __str__(self):
        ctx = self.ctx
        if ctx.n == 1:
            return str(self.key)
        rep = self.rep
        parts = []
        for i in range(ctx.n - 1, -1, -1):
            c = rep[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else "t^%d" % i
                parts.append(var if c == 1 else str(c) + var)
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return "%s:%s" % (self.ctx.name, self)


class FieldCtx:
    """The field F_q with its canonical defining polynomial.

    Construct through field_create, which caches one context per (p, n);
    context identity is object identity.  Iterating a context yields all
    q elements in ascending code order.

    Arithmetic on integer codes lives here, chosen once for the kind of
    field, and Fel's operators call it: add, sub, neg and mul take and
    return codes, as do inv of a nonzero code and pow of a nonzero code
    to an exponent in [0, q - 1).  Prime fields add and multiply mod p.
    In characteristic 2 codes add by XOR.  Extensions with tables
    multiply through discrete logarithms, and in odd characteristic
    they add through Zech logarithms.  Every field with tables inverts
    and raises to powers through them.  Whatever is left runs on the
    packed kernel, apart from inverses and powers in prime fields,
    which Python's pow computes.  scale(c, xs) is the list of c x for
    the codes x in xs.  lazy is (add, scale, reduce) for sums of
    products: in a prime field they are integer operations and reduce
    takes their result mod p once at the end; elsewhere they are the
    operations above and reduce is None.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.q = p ** n
        self.defining = _defining_poly(p, n)
        self.name = "F_%d" % self.q
        self.uid = next(_uids)
        self.elements = None
        self._exp = None
        self._log = None
        self._zech = None
        self._primitive = None
        self._kernel = _Packed(p, self.defining)
        if self.q <= INTERN_BOUND:
            self._intern()
            self._by_key = self.elements.__getitem__
        else:
            self._by_key = functools.partial(Fel, self)
            self.zero = Fel(self, 0)
            self.one = Fel(self, 1)
        self._code_ops()
        self.gen = self.from_key(p) if n > 1 else None

    def _intern(self):
        els = [Fel(self, k) for k in range(self.q)]
        self.elements = els
        self.zero = els[0]
        self.one = els[1]
        q = self.q
        kernel = self._kernel
        prim = kernel.primitive()
        exp = [0] * (q - 1)
        log = [0] * q
        for i, key in enumerate(kernel.powers(prim)):
            # the int objects of the element codes serve as table
            # entries, so each table costs one pointer per element
            exp[i] = els[key].key
            log[key] = els[i].key
        self._exp = exp
        self._log = log
        self._primitive = els[prim]
        if self.n > 1 and self.p != 2:
            # Zech logarithms: g^zech[k] = 1 + g^k (-1 when 1 + g^k = 0),
            # so a + b = a (1 + b/a) costs table lookups, not vector sums
            p = self.p
            zech = [-1] * (q - 1)
            for k, key in enumerate(exp):
                plus_one = key + 1 if key % p != p - 1 else key + 1 - p
                if plus_one:
                    zech[k] = log[plus_one]
            self._zech = zech

    def _code_ops(self):
        p, q, m = self.p, self.q, self.q - 1
        exp, log, kernel = self._exp, self._log, self._kernel
        pack, code, product = kernel.pack, kernel.code, kernel.product
        # logarithms below 2m index the q - 1 powers as they are:
        # exp[e - m] wraps round to exp[e] when e < m
        if exp is not None:
            self.inv = lambda a: exp[-log[a]]
            self.pow = lambda a, e: exp[log[a] * e % m]
        elif self.n == 1:
            self.inv = lambda a: pow(a, -1, p)
            self.pow = lambda a, e: pow(a, e, p)
        else:
            self.inv = lambda a: code(kernel.pow(pack(a), q - 2))
            self.pow = lambda a, e: code(kernel.pow(pack(a), e))
        if self.n == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.scale = lambda c, xs: [c * x % p for x in xs]
            self.lazy = (operator.add, lambda c, xs: [c * x for x in xs],
                         p.__rmod__)
            return
        if exp is not None:
            def mul(a, b):
                return exp[log[a] + log[b] - m] if a and b else 0

            def scale(c, xs):
                if not c:
                    return [0] * len(xs)
                lc = log[c] - m
                return [exp[lc + log[x]] if x else 0 for x in xs]
        else:
            def mul(a, b):
                return code(product(pack(a), pack(b)))

            def scale(c, xs):
                pc = pack(c)
                return [code(product(pc, pack(x))) for x in xs]
        if p == 2:
            add = sub = operator.xor
            neg = operator.pos
        elif exp is not None:
            zech, half = self._zech, m // 2

            def neg(a):
                # -1 is g^(m/2)
                return exp[log[a] + half - m] if a else 0

            def add(a, b):
                if not a:
                    return b
                if not b:
                    return a
                la = log[a]
                z = zech[log[b] - la]
                return exp[la + z - m] if z >= 0 else 0

            def sub(a, b):
                return add(a, neg(b))
        else:
            def add(a, b):
                return code(pack(a) + pack(b))

            def sub(a, b):
                return code(pack(a) + (p - 1) * pack(b))

            def neg(a):
                return code((p - 1) * pack(a))
        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.scale = scale
        self.lazy = (add, scale, None)

    @property
    def primitive(self):
        """Least generator of the multiplicative group."""
        if self._primitive is None:
            self._primitive = self.from_key(self._kernel.primitive())
        return self._primitive

    def scalar(self, m):
        """The constant m, reduced mod p."""
        return self._by_key(m % self.p)

    def from_key(self, k):
        """The element whose integer code is k, 0 <= k < q."""
        if not 0 <= k < self.q:
            raise ValueError("code %d out of range for %s" % (k, self.name))
        return self._by_key(k)

    def make(self, coeffs):
        """The element with the given coefficient vector over F_p."""
        if len(coeffs) > self.n:
            raise ValueError("too many coefficients for " + self.name)
        key = 0
        for c in reversed(coeffs):
            key = key * self.p + c % self.p
        return self._by_key(key)

    def __iter__(self):
        if self.elements is not None:
            return iter(self.elements)
        return (self._by_key(k) for k in range(self.q))

    def __len__(self):
        return self.q

    def __repr__(self):
        return self.name


def field_create(p, n=1):
    """The field with p^n elements; cached, so contexts are singletons."""
    return _field_create(p, n)


@functools.lru_cache(maxsize=None)
def _field_create(p, n):
    if not isinstance(p, int) or p < 2:
        raise ValueError("%r is not prime" % (p,))
    if not isinstance(n, int) or n < 1:
        raise ValueError("extension degree must be a positive integer")
    # the bound is on the base of the largest extension of degree <= 4;
    # no base fits it once p or p^(n/4) does not, and that is decided
    # before p^n is computed or p is tested for primality
    what = "elements of F_%d^%d" % (p, n)
    if p > DESK_SCALE_BOUND or n > 4 * _BOUND_BITS:
        raise _scale_error("%d^%d" % (p, n), what)
    top = max(d for d in (1, 2, 3, 4) if n % d == 0)
    if p ** (n // top) > DESK_SCALE_BOUND:
        check_desk_scale(p ** n, what)
    if not _is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    return FieldCtx(p, n)


def frobenius(a, k=1):
    """a raised to the p^k power."""
    return a ** (a.ctx.p ** k)


def trace_absolute(a):
    """Absolute trace down to F_p, returned as a constant of a's field."""
    acc = a
    cur = a
    for _ in range(a.ctx.n - 1):
        cur = frobenius(cur)
        acc = acc + cur
    return acc


def degree_over(a, base):
    """Degree of a over the subfield base: least e with a^(base.q^e) = a."""
    ctx = a.ctx
    if ctx.p != base.p or ctx.n % base.n:
        raise ValueError("%s is not an extension of %s" % (ctx.name, base.name))
    bound = ctx.n // base.n
    cur = a
    for e in range(1, bound + 1):
        cur = cur ** base.q
        if cur == a:
            return e
    raise AssertionError("degree scan failed for %r over %s" % (a, base.name))


def is_square(a):
    if a.ctx.p == 2 or a.key == 0:
        return True
    return (a ** ((a.ctx.q - 1) // 2)).key == 1


def sqrt(a):
    """The canonical square root: lesser of the two candidates.

    In characteristic 2 the root is unique.  Raises ValueError on a
    nonsquare.
    """
    ctx = a.ctx
    if ctx.p == 2:
        return a ** (ctx.q // 2)
    if a.key == 0:
        return a
    if not is_square(a):
        raise ValueError("%r is not a square" % (a,))
    q = ctx.q
    m = q - 1
    s = 0
    while m % 2 == 0:
        m //= 2
        s += 1
    c = canonical_sigma(ctx) ** m
    r = a ** ((m + 1) // 2)
    t = a ** m
    while t.key != 1:
        i = 0
        tt = t
        while tt.key != 1:
            tt = tt * tt
            i += 1
        b = c ** (1 << (s - i - 1))
        r = r * b
        c = b * b
        t = t * c
        s = i
    return min(r, -r)


@functools.lru_cache(maxsize=None)
def canonical_sigma(ctx):
    """Least nonsquare, or in characteristic 2 the least element of
    absolute trace 1."""
    if ctx.p == 2:
        # the trace is F_2-linear and codes are power-basis coordinates:
        # if t^j is the first basis power of trace 1, every code below
        # 2^j sums lesser powers and has trace 0, so t^j is the least
        for j in range(ctx.n):
            a = ctx.from_key(1 << j)
            if trace_absolute(a).key == 1:
                return a
        raise AssertionError("no trace-one element in " + ctx.name)
    for a in ctx:
        if a.key and not is_square(a):
            return a
    raise AssertionError("no nonsquare in " + ctx.name)


@functools.lru_cache(maxsize=None)
def canonical_theta(ctx):
    """Least noncube.  Defined only when 3 divides q - 1."""
    if (ctx.q - 1) % 3:
        raise ValueError("every element of %s is a cube" % ctx.name)
    e = (ctx.q - 1) // 3
    for a in ctx:
        if a.key and (a ** e).key != 1:
            return a
    raise AssertionError("no noncube in " + ctx.name)


@functools.lru_cache(maxsize=None)
def canonical_tau(ctx):
    """Canonical generator of the quadratic extension over sigma.

    Odd characteristic: the least root of z^2 = sigma in F_{q^2}, so
    tau^q = -tau.  Characteristic 2: the least root of z^2 + z = sigma,
    so tau^q = tau + 1.  Either way tau * tau^q lands back on sigma up
    to the sign conventions used downstream.
    """
    ext = field_create(ctx.p, 2 * ctx.n)
    s = embed(ctx, ext)(canonical_sigma(ctx))
    if ctx.p == 2:
        return _artin_schreier_root(s)
    return sqrt(s)


def _artin_schreier_root(c):
    """Least z with z^2 + z = c (characteristic 2); ValueError if Tr(c) = 1."""
    ctx = c.ctx
    if ctx.p != 2:
        raise ValueError("characteristic 2 only")
    z, rest = 0, c.key
    for lead, img, pre in _artin_schreier_basis(ctx):
        if rest & lead:
            rest ^= img
            z ^= pre
    if rest:
        raise ValueError("%r has absolute trace 1, no root exists" % (c,))
    return ctx.from_key(z & ~1)  # the lesser of z and z + 1


@functools.lru_cache(maxsize=None)
def _artin_schreier_basis(ctx):
    """Echelon basis of the image of z -> z^2 + z, the trace-0 hyperplane,
    on codes as bit vectors: (lead bit, image, preimage), leads falling."""
    basis = []
    for i in range(ctx.n):
        b = ctx.from_key(1 << i)
        img, pre = (b * b + b).key, 1 << i
        for lead, bimg, bpre in basis:
            if img & lead:
                img ^= bimg
                pre ^= bpre
        if img:
            basis.append((1 << img.bit_length() - 1, img, pre))
            basis.sort(reverse=True)
    return tuple(basis)


def _solve_mod_p(cols, target, p):
    """One solution x of sum x_j cols[j] = target over F_p, else None."""
    rows = len(target)
    ncols = len(cols)
    m = [[cols[j][i] for j in range(ncols)] + [target[i] % p]
         for i in range(rows)]
    piv = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[r])]
        piv.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][ncols]:
            return None
    x = [0] * ncols
    for i, c in enumerate(piv):
        x[c] = m[i][ncols]
    return x


class Embedding:
    """Field inclusion determined by the image of the source generator.

    The images of the source's power basis are kept packed in the
    destination's kernel, so an image is one F_p-linear combination of
    them, reduced once.
    """

    __slots__ = ("src", "dst", "image_of_generator", "_pows", "_packed")

    def __init__(self, src, dst, image):
        self.src = src
        self.dst = dst
        self.image_of_generator = image
        pows = [dst.one]
        for _ in range(src.n - 1):
            pows.append(pows[-1] * image)
        self._pows = pows
        self._packed = [dst._kernel.pack(w.key) for w in pows]

    def __call__(self, a):
        if a.ctx is not self.src:
            raise TypeError("element of %s given to an embedding of %s" %
                            (a.ctx.name, self.src.name))
        if self.src.n == 1:
            return self.dst.scalar(a.key)
        v = 0
        for c, w in zip(a.rep, self._packed):
            if c:
                v += c * w
        return self.dst._by_key(self.dst._kernel.code(v))

    def preimage(self, b):
        """The source element mapping to b; ValueError if b is outside
        the image subfield."""
        if b.ctx is not self.dst:
            raise TypeError("element of %s given to an embedding into %s" %
                            (b.ctx.name, self.dst.name))
        cols = [list(w.rep) for w in self._pows]
        sol = _solve_mod_p(cols, list(b.rep), self.dst.p)
        if sol is None:
            raise ValueError("%r is not in the image of %s" %
                             (b, self.src.name))
        a = self.src.make(sol)
        if self(a) != b:
            raise ValueError("%r is not in the image of %s" %
                             (b, self.src.name))
        return a

    def __repr__(self):
        return "Embedding(%s -> %s)" % (self.src.name, self.dst.name)


def _least_root_of_subfield_poly(coeffs, dst):
    """Least root in dst of the defining polynomial f (integer
    coefficients) of src = F_{p^m}, 2 <= m | dst.n, split over src only.

    A linear solve reads off the minimal polynomial mu over F_p of beta,
    a generator of the units of the subfield of order p^m in dst; a root
    rho of mu is split off in src.  rho -> beta extends to an
    isomorphism, so writing src's generator as h(rho), h over F_p of
    degree below m (a second linear solve), gives the root r = h(beta)
    of f, and f's roots are r's conjugates r^(p^i).  beta is
    g^((Q-1)/(p^m-1)) for the least g for which that has order p^m - 1;
    the least conjugate does not depend on the choice.
    """
    from . import poly as _poly
    p, m = dst.p, len(coeffs) - 1
    src, base = field_create(p, m), field_create(p)
    order = src.q - 1
    fac = _prime_factors(order)
    for g in range(2, dst.q):
        beta = dst.from_key(g) ** ((dst.q - 1) // order)
        if all((beta ** (order // ell)).key != 1 for ell in fac):
            break
    pows = [dst.one]
    for _ in range(m):
        pows.append(pows[-1] * beta)
    mu = _solve_mod_p([list(w.rep) for w in pows[:m]],
                      [-c for c in pows[m].rep], p) + [1]
    rho = _poly.root_of_irreducible(_poly.Poly(base, mu), embed(base, src))
    rho_pows = [src.one]
    for _ in range(m - 1):
        rho_pows.append(rho_pows[-1] * rho)
    coords = _solve_mod_p([list(w.rep) for w in rho_pows], list(src.gen.rep),
                          p)
    k = dst._kernel
    r = dst._by_key(k.code(sum(c * k.pack(w.key)
                               for c, w in zip(coords, pows))))
    if _poly.Poly(dst, coeffs)(r):
        raise AssertionError("no root of %r in %s" % (coeffs, dst.name))
    conjugates = [r]
    for _ in range(m - 1):
        conjugates.append(frobenius(conjugates[-1]))
    return min(conjugates)


@functools.lru_cache(maxsize=None)
def embed(src, dst):
    """The canonical embedding src -> dst (src.n must divide dst.n).

    [dst:src] is factored into primes in ascending order; each step maps
    the current generator to the least root of its defining polynomial
    one floor up.  Chains built this way nest: whenever the ascending
    factorizations concatenate, embed(a, c) equals embed(b, c) composed
    with embed(a, b), and the 2-2 towers used downstream always do.
    A prime field has no generator to map and embeds through its
    constants alone, so it takes no steps.
    """
    if src.p != dst.p:
        raise ValueError("different characteristics %d and %d" % (src.p, dst.p))
    if dst.n % src.n:
        raise ValueError("%s does not embed in %s" % (src.name, dst.name))
    if src.n == 1:
        return Embedding(src, dst, dst.one)
    if src is dst:
        return Embedding(src, dst, dst.gen)
    m = dst.n // src.n
    steps = []
    for ell in _prime_factors(m):
        while m % ell == 0:
            steps.append(ell)
            m //= ell
    cur = src
    image = src.gen
    for ell in steps:
        nxt = field_create(src.p, cur.n * ell)
        root = _least_root_of_subfield_poly(cur.defining, nxt)
        image = Embedding(cur, nxt, root)(image)
        cur = nxt
    return Embedding(src, dst, image)


def extend(ctx, m):
    """The degree-m extension of ctx together with the embedding into it."""
    if m < 1:
        raise ValueError("extension degree must be at least 1")
    top = field_create(ctx.p, ctx.n * m)
    return top, embed(ctx, top)
