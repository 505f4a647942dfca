"""Classification of quadratic and cubic expressions over F_q.

Two expressions R and R2 are equivalent when some pair of Moebius
transformations satisfies B(R(A^{-1}(x))) = R2(x).  This module names
the class of a given quadratic or cubic expression, produces the
canonical representative of that class, and constructs an exact
witnessing pair.  The paper's list of named classes is one table,
CLASS_TABLE, one row per class tag; CASES, the parameter names of a
label, canonical_rep, the profile lookup in classify and the class
sizes that orbits.verify_statement checks all read it.  Classes with at
most three ramification points have one canonical representative per
characteristic; cubics with four ramification points are named by
cross-ratio invariants instead, read off the resolvent cubic of the
Wronskian without computing a point, and carry no witness.

Witness construction mirrors the structure of each class: a source-side
transformation A aligns distinguished points (ramification points,
further preimages of branch values) with those of the canonical form,
both read off by one rule (_distinguished), so the form's points are
never written down by hand; the target-side transformation B is then
read off the pencil: B
exists exactly when the target's numerator and denominator are linear
combinations of those of R(A(x)), and its matrix holds their
coordinates (moebius.solve_post).  One loop, _align, tries the
candidate alignments of a class in a fixed order and completes the
first that admits a B.  The further preimage of a double point's branch
value comes from algebra, not from a search: _fiber_mate divides the
double root out of the fiber polynomial and reads the mate off the
linear cofactor.  Conjugate ramification points are aligned over
F_{q^2}, and the alignment maps are checked to be Frobenius-stable
rather than assumed, so they descend to F_q.

The single wild points, x^3 + x and x^3 + sigma x in characteristic 3,
and (x^3 + theta^k)/x and (x^2 + 1)/x in characteristic 2, share one
reduction (_wild_reduction): A0 sends infinity to the wild point, and
for the cubics of characteristic 2 also 0 to its fiber mate, and B0
sends the branch value to infinity.  One translation and two scalings
(_wild_pair) then carry the result onto the canonical form; the
characteristic-2 cubic scaling is a cube root, taken by an exponent or,
when 9 divides q - 1, as the least root that poly.roots finds.  The
quadratic reduces onto x^2 + x instead, and so does its canonical form,
by the same rule, so the witness is the first pair followed by the
inverse of the second.
"""

from __future__ import annotations

import collections
import functools
import math
import weakref

from .ffield import (canonical_sigma, canonical_theta, embed, extend,
                     is_square, sqrt)
from .moebius import (Moebius, PairAction, act, cross_ratio, identity,
                      map_triple, pair_identity, pair_scan, post, precompose,
                      solve_post, three_point_map)
from .poly import (Poly, _distinct_degree_split, _synthetic_div,
                   irreducible_factors, poly_x, root_of_irreducible, roots)
from .ramify import (RamProfile, _profile, ramification_profile,
                     wronskian)
from .ratexpr import INF, RatExpr, expr, proj_key, proj_points, proj_str


# The paper's classification, one row per class tag, FourPoint last.  A
# row holds the tag and the degree; the values of min(p, 5) at which the
# class exists; the sorted names of its parameters; its canonical form,
# a function of (sigma, v) that gives the numerator and denominator
# coefficients, v being theta^k for Cubic2_iv, the parameter c or b for
# Cubic2_v / Cubic2_vi and None otherwise; when the ramification profile
# alone names the class, its indices and whether the points are a
# conjugate pair (an inseparable class has no points); and, as functions
# of q, the order of the stabilizer of the form in PGL_2 x PGL_2 and the
# number of classes with the tag.
_Row = collections.namedtuple(
    "_Row", "tag degree chars form profile stab count params",
    defaults=(lambda q: 1, ()))

CLASS_TABLE = {row.tag: row for row in (
    _Row("Quad_X2", 2, (3, 5), lambda s, v: ((0, 0, 1), (1,)),
         ((2, 2), False), lambda q: 2 * (q - 1)),
    _Row("Quad_TwoPointTwist", 2, (3, 5), lambda s, v: ((s, 0, 1), (0, 2)),
         ((2, 2), True), lambda q: 2 * (q + 1)),
    _Row("Quad_X2_Insep", 2, (2,), lambda s, v: ((0, 0, 1), (1,)),
         ((), False), lambda q: q ** 3 - q),
    _Row("Quad_SepChar2", 2, (2,), lambda s, v: ((1, 0, 1), (0, 1)),
         None, lambda q: q),
    _Row("Cubic_X3", 3, (5,), lambda s, v: ((0, 0, 0, 1), (1,)),
         ((3, 3), False), lambda q: 2 * (q - 1)),
    _Row("Cubic_TwoPointTwist", 3, (5,),
         lambda s, v: ((0, 3 * s, 0, 1), (s, 0, 3)),
         ((3, 3), True), lambda q: 2 * (q + 1)),
    _Row("Cubic_Dickson", 3, (5,), lambda s, v: ((0, -3, 0, 1), (1,)),
         ((2, 2, 3), False), lambda q: 2),
    _Row("Cubic_DicksonTwist", 3, (5,),
         lambda s, v: ((0, -3 * s, 0, 1), (1,)),
         ((2, 2, 3), True), lambda q: 2),
    _Row("Cubic3_X3_Insep", 3, (3,), lambda s, v: ((0, 0, 0, 1), (1,)),
         ((), False), lambda q: q ** 3 - q),
    _Row("Cubic3_X3X2", 3, (3,), lambda s, v: ((0, 0, 1, 1), (1,)),
         ((2, 3), False), lambda q: 1),
    _Row("Cubic3_X3X", 3, (3,), lambda s, v: ((0, 1, 0, 1), (1,)),
         None, lambda q: 2 * q),
    _Row("Cubic3_X3SigmaX", 3, (3,), lambda s, v: ((0, s, 0, 1), (1,)),
         None, lambda q: 2 * q),
    _Row("Cubic2_i", 3, (2,), lambda s, v: ((0, 0, 0, 1), (1,)),
         ((3, 3), False), lambda q: 2 * (q - 1)),
    _Row("Cubic2_ii", 3, (2,), lambda s, v: ((s, s, 0, 1), (s + 1, 1, 1)),
         ((3, 3), True), lambda q: 2 * (q + 1)),
    _Row("Cubic2_iii", 3, (2,), lambda s, v: ((0, 0, 1, 1), (1,)),
         ((2, 3), False), lambda q: 1),
    # one class per cubic residue class of theta^k
    _Row("Cubic2_iv", 3, (2,), lambda s, v: ((v, 0, 0, 1), (0, 1)),
         None, lambda q: math.gcd(3, q - 1), lambda q: math.gcd(3, q - 1),
         ("k",)),
    _Row("Cubic2_v", 3, (2,), lambda s, v: ((v, 0, 0, 1), (v, 1)),
         None, lambda q: 2, lambda q: q - 2, ("c",)),
    _Row("Cubic2_vi", 3, (2,),
         lambda s, v: (((v + 1) * s, s, v, 1), (v + 1 + s, 1, 1)),
         None, lambda q: 2, lambda q: q - 2, ("b",)),
    _Row("FourPoint", 3, (3, 5), None, None, None, None,
         ("lambda", "mu", "mu_alt", "pattern")),
)}

CASES = tuple(CLASS_TABLE)


_LABELS = weakref.WeakValueDictionary()


class ClassLabel:
    """A named equivalence class together with its parameters.

    case is one of the tags in CASES, a row of CLASS_TABLE, and the
    row names the parameters the case takes.  params carries whatever
    distinguishes classes sharing a tag: the theta-power k for
    Cubic2_iv, the field parameter c or b for Cubic2_v / Cubic2_vi, and
    for FourPoint the invariants lambda, mu, mu_alt and the pattern of
    defining degrees.  Every other case takes no parameters, and
    ValueError is raised when the names given are not exactly the ones
    the case takes.  Labels compare and hash by tag and parameters.
    Labels are immutable and interned: equal labels alive at the same
    time are one object, and labels share their case's tuple of
    parameter names, so results kept in bulk cost little memory.
    """

    __slots__ = ("case", "_names", "_values", "__weakref__")

    def __new__(cls, case, params=None):
        if case not in CASES:
            raise ValueError("unknown class tag %r" % (case,))
        items = sorted((params or {}).items())
        names = CLASS_TABLE[case].params
        given = tuple(k for k, _ in items)
        if given != names:
            raise ValueError("class %s takes parameters (%s), not (%s)"
                             % (case, ", ".join(names), ", ".join(given)))
        values = tuple(v for _, v in items)
        key = (case, names, values)
        label = _LABELS.get(key)
        if label is None:
            label = super().__new__(cls)
            label.case = case
            label._names = names
            label._values = values
            _LABELS[key] = label
        return label

    @property
    def params(self):
        """The (name, value) pairs, sorted by name."""
        return tuple(zip(self._names, self._values))

    def param(self, name):
        for k, v in zip(self._names, self._values):
            if k == name:
                return v
        raise KeyError(name)

    def __eq__(self, other):
        if not isinstance(other, ClassLabel):
            return NotImplemented
        return (self.case == other.case and self._names == other._names
                and self._values == other._values)

    def __hash__(self):
        return hash((self.case, self._names, self._values))

    def __repr__(self):
        inner = "".join(", %s=%r" % kv for kv in self.params)
        return "ClassLabel(%r%s)" % (self.case, inner)


class Witness:
    """An exact equivalence pair: act(pair, source) equals target.

    The defining equation is re-checked on construction, so a Witness
    in hand is always sound.
    """

    __slots__ = ("pair", "source", "target")

    def __init__(self, pair, source, target):
        if act(pair, source) != target:
            raise ValueError("pair does not map the source onto the target")
        self.pair = pair
        self.source = source
        self.target = target

    @property
    def B(self):
        return self.pair.B

    @property
    def A(self):
        return self.pair.A

    def __repr__(self):
        return "Witness(%r)" % (self.pair,)


@functools.lru_cache(maxsize=None)
def canonical_rep(label, ctx):
    """The canonical representative of a class over ctx.

    Evaluates the form of the label's CLASS_TABLE row at the canonical
    sigma and theta of the field.  FourPoint labels have no canonical
    representative and raise ValueError, as does a label that does not
    fit the characteristic of ctx, a k outside {0, 1, 2} or a nonzero k
    where 3 does not divide q - 1, and a c or b in F_2 or outside ctx.
    Cached per (label, field), so every witness onto one class shares
    its target.
    """
    row = CLASS_TABLE[label.case]
    if row.form is None:
        raise ValueError("four-point classes have no canonical representative")

    def need(cond):
        if not cond:
            raise ValueError("label %s does not fit %s" % (row.tag, ctx.name))

    need(min(ctx.p, 5) in row.chars)
    v = label._values[0] if label._values else None
    if row.params == ("k",):
        need(v in (0, 1, 2) and (v == 0 or (ctx.q - 1) % 3 == 0))
        v = ctx.one if v == 0 else canonical_theta(ctx) ** v
    elif v is not None:
        need(v.ctx is ctx and v * v != v)
    return expr(ctx, *row.form(canonical_sigma(ctx), v))


def family_Rc(c):
    """The one-parameter cubic family member for the ambient field.

    Characteristic at least 5: (x^3+(c-2)x^2) / ((2c-1)x-c), c not 0, 1.
    Characteristic 3: (x^3+(c+1)x^2) / (-(c+1)x-c), c outside F_3.
    Characteristic 2: (x^3+cx^2) / (x+1), c outside F_2.
    """
    ctx = c.ctx
    one = ctx.one
    if ctx.p >= 5:
        if c.key in (0, 1):
            raise ValueError("degenerate parameter %s" % c)
        two = ctx.scalar(2)
        return expr(ctx, (ctx.zero, ctx.zero, c - two, one),
                    (-c, two * c - one))
    if ctx.p == 3:
        if c ** 3 == c:
            raise ValueError("parameter %s lies in the prime field" % c)
        return expr(ctx, (ctx.zero, ctx.zero, c + one, one),
                    (-c, -(c + one)))
    if c * c == c:
        raise ValueError("parameter %s lies in F_2" % c)
    return expr(ctx, (ctx.zero, ctx.zero, c, one), (1, 1))


def lambda_mu_of_c(c):
    """The ramification and branch cross-ratios of the cubic family.

    lambda = -c(c-2)/(2c-1) and mu = -c(c-2)^3/(2c-1)^3, evaluated
    projectively (c = 1/2 yields the infinite degeneration).  Defined
    away from characteristics 2 and 3 and from c in {0, 1}.
    """
    ctx = c.ctx
    if ctx.p < 5:
        raise ValueError("defined away from characteristics 2 and 3")
    if c.key in (0, 1):
        raise ValueError("degenerate parameter %s" % c)
    x = poly_x(ctx)
    lam = RatExpr(-x * (x - 2), 2 * x - 1)
    mu = RatExpr(-x * (x - 2) ** 3, (2 * x - 1) ** 3)
    return lam(c), mu(c)


def lambda_mu_relation(lam, mu):
    """Whether mu^2 - 2 lam mu (2 lam^2 - 3 lam + 2) + lam^4 vanishes.

    The pair of cross-ratios of a four-point cubic always satisfies
    this.  Requires odd characteristic and nondegenerate lam; an
    infinite mu never satisfies the relation (the mu^2 coefficient is a
    unit).
    """
    if lam is INF:
        raise ValueError("degenerate lambda")
    ctx = lam.ctx
    if ctx.p == 2:
        raise ValueError("defined away from characteristic 2")
    if lam.key in (0, 1):
        raise ValueError("degenerate lambda")
    if mu is INF:
        return False
    two = ctx.scalar(2)
    three = ctx.scalar(3)
    val = mu * mu - two * lam * mu * (two * lam * lam - three * lam + two) \
        + lam ** 4
    return val.key == 0


# ---------------------------------------------------------------------------
# witness machinery


def _align(R, T, triples, em=None):
    """The first alignment that completes to a pair onto T.

    Each (src, dst) triple of points gives A0 = map_triple(src, dst),
    descended through em when one is given (a triple whose map does not
    descend is skipped); B is then read off the pencil of R(A0(x)) by
    solve_post.  Candidates are tried in the order given, and
    AssertionError is raised when none completes.
    """
    for src, dst in triples:
        A0 = map_triple(src, dst)
        if em is not None:
            A0 = A0.descend(em)
            if A0 is None:
                continue
        B = solve_post(precompose(R, A0), T)
        if B is not None:
            return PairAction(B, A0.inverse())
    raise AssertionError("no alignment onto %s completes for %s" % (T, R))


def _fiber_mate(R, pt):
    """The other preimage of pt.branch under the cubic R, for a point pt
    of index 2, in the field of pt.

    The fiber polynomial R.fiber(Q) has P as a double root, so dividing
    (x - P)^2 out leaves a cofactor of degree at most one: its root is
    the mate, and a constant cofactor puts the mate at infinity.  At
    P = infinity the fiber polynomial drops two degrees and is already
    linear.
    """
    if pt.defining_degree > 1:
        R = R.lift(extend(R.ctx, pt.defining_degree)[1])
    P, Q = pt.point, pt.branch
    fiber = R.fiber(Q)
    if P is not INF:
        for _ in range(2):
            fiber, rem = _synthetic_div(fiber, P)
            if rem.key:
                raise AssertionError("%r is not a double point of %s"
                                     % (P, R))
    if fiber.degree == 0:
        return INF
    return -fiber.coeffs[0] / fiber.coeffs[1]


def _first_points(ctx, avoid, count):
    """The first count projective points outside avoid, in fixed order."""
    keys = {proj_key(P) for P in avoid}
    out = []
    for P in proj_points(ctx):
        if proj_key(P) not in keys:
            out.append(P)
            if len(out) == count:
                return out
    raise AssertionError("projective line exhausted")


def _embed_point(P, em):
    return INF if P is INF else em(P)


def _distinguished(R, prof):
    """R's candidate triples of distinguished points, in the order they
    are tried.

    Two points of equal index come in both orders, followed by a third
    point: the index-3 point if there is one (embedded into F_{q^2} for
    a conjugate pair), else infinity for a conjugate pair, else the
    first other point of P^1.  The (2, 3) profile of characteristics 2
    and 3 gives the single triple (p3, p2, mate of p2), and the two
    double points a, b of a characteristic-2 cubic give (a, mate of a,
    b), then (b, mate of b, a).
    """
    pts = prof.points
    if prof.indices == (2, 3):
        p2, p3 = sorted(pts, key=lambda pt: pt.index)
        return [(p3.point, p2.point, _fiber_mate(R, p2))]
    if R.degree == 3 and prof.indices == (2, 2):
        (a, ma), (b, mb) = ((pt.point, _fiber_mate(R, pt)) for pt in pts)
        return [(a, ma, b), (b, mb, a)]
    low = prof.indices[0]
    s, t = (pt.point for pt in pts if pt.index == low)
    rest = [pt.point for pt in pts if pt.index != low]
    if pts[-1].defining_degree > 1:
        w = _embed_point(rest[0], extend(R.ctx, 2)[1]) if rest else INF
    else:
        w = rest[0] if rest else _first_points(R.ctx, (s, t), 1)[0]
    return [(s, t, w), (t, s, w)]


@functools.lru_cache(maxsize=None)
def _canonical_triple(label, ctx):
    """The first candidate triple of label's canonical form: where a
    witness sends the candidates _distinguished reads off the input.
    Cached per (label, field) like canonical_rep."""
    T = canonical_rep(label, ctx)
    return _distinguished(T, ramification_profile(T))[0]


def _witness_power_insep(R, r):
    """Witness for an inseparable R, which equals N(x^r) coefficientwise."""
    ctx = R.ctx
    for f in (R.num, R.den):
        if any(f.coeff(i).key for i in range(1, r)):
            raise AssertionError("inseparable expression with odd support")
    N = Moebius(ctx, R.num.coeff(r), R.num.coeff(0),
                R.den.coeff(r), R.den.coeff(0))
    return PairAction(N.inverse(), identity(ctx))


def _wild_reduction(R, pt, second=None):
    """Move R's single wild point pt and its branch value to infinity.

    Returns (A0, B0, C0) with C0 = B0(R(A0(x))): A0 sends infinity to
    pt, 0 to second (the first other point when none is given) and 1 to
    the first point left, and B0 sends pt's branch value to infinity.
    With second the fiber mate of a characteristic-2 double point, C0 has
    its poles at infinity and 0, else at infinity only.
    """
    ctx = R.ctx
    P, Q = pt.point, pt.branch
    poles = 0 if second is None else 1
    if second is None:
        second = _first_points(ctx, (P,), 1)[0]
    A0 = three_point_map(P, second, _first_points(ctx, (P, second), 1)[0])
    B0 = three_point_map(Q, *_first_points(ctx, (Q,), 2)).inverse()
    C0 = post(B0, precompose(R, A0))
    # the only finite pole can be second's image 0: the denominator is x^poles
    if C0.den.degree != poles or any(c.key for c in C0.den.coeffs[:-1]):
        raise AssertionError("pole alignment failed for %s" % R)
    return A0, B0, C0


def _wild_pair(A0, B0, t, shift, s):
    """The pair (t (x + shift) o B0, (A0 o s x)^-1) that finishes a wild
    witness from _wild_reduction."""
    ctx = t.ctx
    B = Moebius(ctx, t, t * shift, ctx.zero, ctx.one).compose(B0)
    A = A0.compose(Moebius(ctx, s, ctx.zero, ctx.zero, ctx.one))
    return PairAction(B, A.inverse())


def _witness_char3_wild(R, prof):
    """Witness onto x^3 + x or x^3 + sigma x (single wild point, char 3).

    Returns (case, pair); the case depends on whether the linear
    coefficient of the reduced polynomial is a square times the cubic
    one.
    """
    ctx = R.ctx
    A0, B0, C0 = _wild_reduction(R, prof.points[0])
    d, cc, a2, a = (C0.num.coeff(i) for i in range(4))
    if not (a.key and cc.key) or a2.key:
        raise AssertionError("unexpected normal form %s" % C0)
    ratio = cc / a
    if is_square(ratio):
        case, e = "Cubic3_X3X", ctx.one
    else:
        case, e = "Cubic3_X3SigmaX", canonical_sigma(ctx)
    s = sqrt(ratio / e)
    return case, _wild_pair(A0, B0, ctx.one / (a * s ** 3), -d, s)


def _cube_root(v):
    """Some y with y^3 = v; ValueError if v is not a cube.

    Cubing is a bijection when 3 does not divide q - 1, and a
    three-to-one map onto the cubes when it does; an exponent inverts it
    unless 9 divides q - 1.  Then the three roots differ by the cube
    roots of unity, and the least by element code is taken from
    poly.roots of y^3 - v.
    """
    ctx = v.ctx
    if v.key == 0:
        return v
    m = ctx.q - 1
    if m % 3:
        return v ** pow(3, -1, m)
    if (v ** (m // 3)).key != 1:
        raise ValueError("%r is not a cube" % (v,))
    if m % 9:
        return v ** pow(3, -1, m // 3)
    return roots(Poly(ctx, (-v, ctx.zero, ctx.zero, ctx.one)))[0][0]


def _witness_char2_iv(R, prof):
    """Witness onto (x^3 + theta^k)/x (single wild point, char 2).

    Returns (k, pair).  k is the power of the canonical noncube that
    represents the cubic residue class of the reduced constant term.
    """
    ctx = R.ctx
    pt = prof.points[0]
    A0, B0, C0 = _wild_reduction(R, pt, _fiber_mate(R, pt))
    a0, a1, a2, a3 = (C0.num.coeff(i) for i in range(4))
    if not (a3.key and a0.key) or a2.key:
        raise AssertionError("unexpected normal form %s" % C0)
    c = a0 / a3
    k = 0
    if (ctx.q - 1) % 3 == 0:
        omega = canonical_theta(ctx) ** ((ctx.q - 1) // 3)
        chi = c ** ((ctx.q - 1) // 3)
        if chi == omega:
            k = 1
        elif chi == omega * omega:
            k = 2
        elif chi.key != 1:
            raise AssertionError("cubic character out of range")
    theta_k = ctx.one if k == 0 else canonical_theta(ctx) ** k
    s = _cube_root(c / theta_k)
    return k, _wild_pair(A0, B0, ctx.one / (a3 * s * s), a1, s)


def _sep_char2_pair(R, pt):
    """The pair onto x^2 + x of a separable quadratic R in characteristic
    2, whose single wild point is pt; R's witness onto (x^2+1)/x is this
    pair followed by _canonical_sep_char2_pair.

    _wild_reduction leaves c2 x^2 + c1 x + c0, where c1 != 0 as R is
    separable; the shift by c0 and the scalings x -> (c1/c2) x and
    y -> (c2/c1^2) y carry it onto x^2 + x.
    """
    A0, B0, C0 = _wild_reduction(R, pt)
    c0, c1, c2 = (C0.num.coeff(i) for i in range(3))
    if not c1.key:
        raise AssertionError("unexpected normal form %s" % C0)
    return _wild_pair(A0, B0, c2 / (c1 * c1), c0, c1 / c2)


@functools.lru_cache(maxsize=None)
def _canonical_sep_char2_pair(ctx):
    """The inverse of _sep_char2_pair for (x^2+1)/x, read off the
    canonical form by the same rule.  Cached per field like
    canonical_rep."""
    T = canonical_rep(ClassLabel("Quad_SepChar2"), ctx)
    return _sep_char2_pair(T, ramification_profile(T).points[0]).inverse()


def _char2_double_label(triples, em):
    """The Cubic2_v or Cubic2_vi label of a cubic with two double points
    a, b (characteristic 2), from the cross-ratio rho of a, its fiber
    mate, b and its mate, as _distinguished lists them.

    Rational points give c = rho / (1 + rho).  For a conjugate pair rho
    is Galois-stable, and its base-field value gives b with rho =
    1/(b+1)^2.
    """
    (a, ma, b), (_, mb, _) = triples
    rho = cross_ratio(a, ma, b, mb)
    if em is None:
        case, name, v = "Cubic2_v", "c", rho / (rho.ctx.one + rho)
    else:
        rho = em.preimage(rho)
        case, name, v = "Cubic2_vi", "b", rho.ctx.one + sqrt(rho.ctx.one / rho)
    if v * v == v:
        raise AssertionError("degenerate fiber cross-ratio")
    return ClassLabel(case, {name: v})


# ---------------------------------------------------------------------------
# four-point invariants


# the degree of the field holding the resolvent's roots, by the Galois
# pattern of the ramification points: the order of Frobenius acting on
# the three pairings {12|34}, {13|24}, {14|23} through S_4 -> S_3
_RESOLVENT_DEGREE = {(1, 1, 1, 1): 1, (2, 2): 1, (1, 1, 2): 2, (4,): 2,
                     (1, 3): 3}


def _has_four_points(ctx, W, factors):
    """Whether a separable cubic over ctx with Wronskian W, whose
    irreducible factors are given, has four ramification points: odd
    characteristic, and W squarefree of degree 4, or of degree 3 with
    the fourth point at infinity.  (A simple root of W has index 2, and
    a wild point of characteristic 3 is a root of order at least 3.)"""
    return ctx.p != 2 and W.degree >= 3 and all(m == 1 for _, m in factors)


def _mod_quadratic(coeffs, e1, e0):
    """(u, v) with f = u x + v modulo x^2 + e1 x + e0, for f given by its
    coefficients, by Horner's rule."""
    u = v = e1.ctx.zero
    for c in reversed(coeffs):
        # (u x + v) x + c, where x^2 = -e1 x - e0
        u, v = v - u * e1, c - u * e0
    return u, v


def _pair_values(num, den, e1, e0):
    """(alpha, b + b', b b') for the roots r, r' of x^2 + e1 x + e0 and
    their finite values b, b' under num/den.

    num/den is alpha x + beta modulo the quadratic, so b - b' =
    alpha (r - r'); everything is read off the quadratic's
    coefficients, in their field.
    """
    g1, g0 = _mod_quadratic(num, e1, e0)
    h1, h0 = _mod_quadratic(den, e1, e0)
    # h(r) h(r'), nonzero as neither root is a pole
    inv = (h0 * h0 - h0 * h1 * e1 + h1 * h1 * e0).inverse()
    alpha = (g1 * h0 - g0 * h1) * inv
    beta = (g0 * (h0 - h1 * e1) + g1 * h1 * e0) * inv
    return (alpha, 2 * beta - alpha * e1,
            alpha * alpha * e0 - alpha * beta * e1 + beta * beta)


def _ferrari(a, b, c, d, theta):
    """The factors x^2 + u x + p of x^4 + a x^3 + b x^2 + c x + d whose
    constant terms sum to theta, a root of the resolvent, as two (u, p)
    pairs; both factors must lie over the field of theta.

    p, p' are the roots of z^2 - theta z + d, and u + u' = a with
    u p' + u' p = c; when p = p' the u are the roots of
    z^2 - a z + (b - theta) instead.
    """
    half = (theta.ctx.p + 1) // 2
    disc = theta * theta - 4 * d
    if disc.key:
        p1 = (theta + sqrt(disc)) * half
        p2 = theta - p1
        u1 = (c - a * p1) / (p2 - p1)
    else:
        p1 = p2 = theta * half
        u1 = (a + sqrt(a * a - 4 * (b - theta))) * half
    return (u1, p1), (a - u1, p2)


def _four_point_label(R, W, factors):
    """The FourPoint label of a cubic R with four ramification points,
    from its Wronskian W and W's irreducible factors (see
    _has_four_points).

    Fixed Moebius maps move infinity off the ramification points and
    off their branch values, which changes no cross-ratio; only rational
    points can sit at infinity or map there, and after the first move W
    is recomputed and factored again.  Then W = x^4 + a x^3 +
    b x^2 + c x + d has roots r1..r4, and the pairing sums
    theta_{12|34} = r1 r2 + r3 r4, theta_{13|24} and theta_{14|23} are
    the roots of the resolvent y^3 - b y^2 + (ac - 4d) y -
    (a^2 d - 4bd + c^2), all in F_{q^k}, k <= 3 (_RESOLVENT_DEGREE).
    With q13 = (x - r1)(x - r3) and q24 = (x - r2)(x - r4) over F_{q^k},
    the cross-ratio of r1, r2, r3, r4 is (theta_12 - theta_14) /
    (theta_12 - theta_13), and with R = alpha x + beta modulo each
    quadratic (_pair_values) the branch values b_i give
    theta'_12 - theta'_14 = alpha_13 alpha_24 (theta_12 - theta_14),
    theta'_12 + theta'_14 = (b1 + b3)(b2 + b4) and theta'_13 = b1 b3 +
    b2 b4, hence their cross-ratio in the same point order.  When W
    splits into quadratics over F_q they come from its factors; else
    (patterns (4) and (1, 3)) from the resolvent root theta_13 in F_q,
    resp. F_{q^3}, by Ferrari's method.  Nothing is split over the field
    F_{q^m} of the points: the pair is embedded there and the least of
    its six images under the cross-ratio symmetry group is kept.
    """
    ctx = R.ctx
    factors = [u for u, _ in factors]
    at_inf = W.degree == 3
    pattern = tuple(sorted([u.degree for u in factors] + [1] * at_inf))
    # W splits into two quadratics over F_q for (1, 1, 1, 1), (1, 1, 2)
    # and (2, 2)
    split = pattern[-1] <= 2
    rational = [INF] * at_inf + [-u.coeffs[0] for u in factors
                                 if u.degree == 1]
    branches = [R(P) for P in rational]
    if at_inf:
        # A(x) = w + 1/x sends 0 to infinity and infinity to a point w
        # that is not ramified
        w = _first_points(ctx, rational, 1)[0]
        R = precompose(R, Moebius(ctx, w, ctx.one, ctx.one, ctx.zero))
        W = wronskian(R)
        factors = [u for u, _ in irreducible_factors(W)]
    if INF in branches:
        v = _first_points(ctx, branches, 1)[0]
        R = post(Moebius(ctx, ctx.zero, ctx.one, ctx.one, -v), R)
    d, c, b, a = W.monic().coeffs[:4]
    k = _RESOLVENT_DEGREE[pattern]
    ctxk, emk = extend(ctx, k)
    num, den = R.num.coeffs, R.den.coeffs
    if split:
        cut = len(factors) - 1 if factors[-1].degree == 2 else 2
        q13, q24 = (functools.reduce(Poly.__mul__, part)
                    for part in (factors[:cut], factors[cut:]))
        pairs = [(q.coeffs[1], q.coeffs[0]) for q in (q13, q24)]
        theta = q13.coeffs[0] + q24.coeffs[0]
    else:
        resolvent = Poly(ctx, (-(a * a * d - 4 * b * d + c * c),
                               a * c - 4 * d, -b, ctx.one))
        if k == 2:
            # pattern (4): theta_13 is the resolvent's one root in F_q
            resolvent = _distinct_degree_split(resolvent)[0][1]
        theta = root_of_irreducible(resolvent, emk)
        a, b, c, d = (emk(v) for v in (a, b, c, d))
        pairs = _ferrari(a, b, c, d, theta)
        num, den = ([emk(v) for v in f] for f in (num, den))
    # theta is theta_13; theta_12 and theta_14 have sum s and product t
    (al13, sum13, prod13), (al24, sum24, prod24) = (
        _pair_values(num, den, e1, e0) for e1, e0 in pairs)
    s = b - theta
    vals = (theta, s, a * c - 4 * d - theta * s, al13 * al24,
            sum13 * sum24, prod13 + prod24)
    if theta.ctx is not ctxk:
        vals = [emk(v) for v in vals]
    theta, s, t, al, sums, prods = vals
    # naming theta_12 = (s + delta) / 2 fixes which root of q24 is r2
    delta = sqrt(s * s - 4 * t)
    lam = 2 * delta / (s + delta - 2 * theta)
    diff = al * delta  # theta'_12 - theta'_14
    mu = 2 * diff / (sums + diff - 2 * prods)
    if not lambda_mu_relation(lam, mu):
        raise AssertionError("cross-ratio pair violates the branch relation")
    # the images under s_group_maps: x, 1/x, 1 - x, x/(x - 1), 1/(1 - x)
    # and (x - 1)/x, from two inverses per value; its six divisions
    # took a fifth of a pattern (4) label beyond the tables
    orbit = []
    for x in (lam, mu):
        inv, inv1 = x.inverse(), (1 - x).inverse()
        orbit.append((x, inv, 1 - x, -x * inv1, inv1, 1 - inv))
    orbit = list(zip(*orbit))
    ctxm = extend(ctx, math.lcm(*pattern))[0]
    if ctxm is not ctxk:
        em = embed(ctxk, ctxm)
        orbit = [(em(x), em(y)) for x, y in orbit]
    lam, mu = min(orbit, key=lambda xy: (xy[0].key, xy[1].key))
    # mu_alt = lam^4 / mu, the other root of the branch relation, is
    # 2 lam (2 lam^2 - 3 lam + 2) - mu by Vieta, with no inverse
    mu_alt = 2 * lam * (2 * lam * lam - 3 * lam + 2) - mu
    return ClassLabel("FourPoint", {
        "lambda": lam, "mu": mu, "mu_alt": mu_alt, "pattern": pattern,
    })


def four_point_invariants(R):
    """The FourPoint label of a cubic with four ramification points.

    lambda is the cross-ratio of the four ramification points inside
    their compositum field F_{q^m}, mu the cross-ratio of the branch
    values in the same point order, reported at the joint minimum over
    the size-6 cross-ratio symmetry group (so the label does not depend
    on any ordering choice).  mu_alt = lambda^4 / mu is the other root
    of the branch relation, and pattern lists the degrees of the closed
    points carrying the ramification.  Equivalent expressions get equal
    labels.  Both cross-ratios come from the resolvent cubic of the
    Wronskian (_four_point_label), without splitting over F_{q^m}.
    """
    if R.degree != 3:
        raise ValueError("four-point invariants need a cubic")
    W = wronskian(R)
    if W.is_zero:
        raise ValueError("inseparable cubic has no four-point invariants")
    factors = irreducible_factors(W)
    if not _has_four_points(R.ctx, W, factors):
        raise ValueError("expression does not have four ramification points")
    return _four_point_label(R, W, factors)


# ---------------------------------------------------------------------------
# classification


# the labels that the ramification profile alone names, by degree,
# min(p, 5), indices and whether the points are a conjugate pair
_BY_PROFILE = {(row.degree, c, *row.profile): ClassLabel(row.tag)
               for row in CLASS_TABLE.values() if row.profile
               for c in row.chars}


def classify(R):
    """Classify a quadratic or cubic expression: returns (label, witness).

    An inseparable expression (p = deg R) is N(x^p) for a Moebius N.
    Cubics with four ramification points, recognized from the factored
    Wronskian, get a FourPoint label built from cross-ratio invariants
    and no witness; every other class is read off the ramification
    profile, by one lookup (_BY_PROFILE, built from CLASS_TABLE) where
    the profile alone names the class.  The single wild points of
    characteristics 2 and 3, the separable characteristic-2 quadratic
    among them, are moved to infinity and scaled (_wild_reduction,
    _wild_pair); every other class aligns R's distinguished points
    (_distinguished) with those of its canonical form
    (_canonical_triple), over F_{q^2} when they are conjugate.  Each
    witness maps R onto canonical_rep(label, R.ctx) and is verified
    exactly.
    """
    return _classify(R)[:2]


def _classify(R):
    """classify's (label, witness), then what a caller that reports the
    profile needs: the irreducible factors of R's Wronskian (None for an
    inseparable R) and R's profile (None for a FourPoint label, which is
    read off the factors alone)."""
    r = R.degree
    if r not in (2, 3):
        raise ValueError("can only classify quadratic and cubic expressions")
    ctx = R.ctx
    p = ctx.p
    W = wronskian(R)
    if W.is_zero:  # inseparable, so p = r
        label = _BY_PROFILE[r, p, (), False]
        witness = Witness(_witness_power_insep(R, r), R,
                          canonical_rep(label, ctx))
        return label, witness, None, RamProfile(False)
    factors = irreducible_factors(W)
    if r == 3 and _has_four_points(ctx, W, factors):
        return _four_point_label(R, W, factors), None, factors, None
    prof = _profile(R, factors)
    idx = prof.indices
    if r == 2 and p == 2:
        label = ClassLabel("Quad_SepChar2")
        pair = _canonical_sep_char2_pair(ctx).compose(
            _sep_char2_pair(R, prof.points[0]))
    elif idx == (3,):
        case, pair = _witness_char3_wild(R, prof)
        label = ClassLabel(case)
    elif idx == (2,):
        k, pair = _witness_char2_iv(R, prof)
        label = ClassLabel("Cubic2_iv", {"k": k})
    else:
        conj = prof.points[-1].defining_degree > 1
        em = extend(ctx, 2)[1] if conj else None
        triples = _distinguished(R, prof)
        if r == 3 and idx == (2, 2):
            label = _char2_double_label(triples, em)
        else:
            label = _BY_PROFILE.get((r, min(p, 5), idx, conj))
            if label is None:
                raise AssertionError("impossible profile %s" % (idx,))
        src = _canonical_triple(label, ctx)
        pair = _align(R, canonical_rep(label, ctx),
                      ((src, dst) for dst in triples), em)
    return label, Witness(pair, R, canonical_rep(label, ctx)), factors, prof


def are_equivalent(R, R2):
    """A pair with act(pair, R) = R2, or None when they are inequivalent.

    The first pair of moebius.pair_scan: for each source map A, B is
    read off the pencil of R(A^{-1}(x)) by one linear solve over the
    base field, on element codes, so the scan is linear in the size of
    the Moebius group and builds elements only for the pair it returns.
    Raises ValueError when the group is too large to enumerate.
    """
    if R.ctx is not R2.ctx:
        raise ValueError("expressions live over different fields")
    if R.degree != R2.degree:
        raise ValueError("expressions have different degrees")
    if R == R2:
        return pair_identity(R.ctx)
    return next(pair_scan(R, R2), None)


def label_json(label, ctx, witness=None):
    """A JSON-ready dict describing a classification result."""
    params = {}
    if label.case != "FourPoint":
        for k, v in label.params:
            params[k] = v if isinstance(v, int) else str(v)
    out = {
        "case": label.case,
        "params": params,
        "sigma": str(canonical_sigma(ctx)),
    }
    if label.case == "Cubic2_iv" and label.param("k") and (ctx.q - 1) % 3 == 0:
        out["theta"] = str(canonical_theta(ctx))
    if witness is not None:
        out["witness"] = {"B": str(witness.B), "A": str(witness.A)}
    if label.case == "FourPoint":
        out["invariants"] = {
            "lambda": proj_str(label.param("lambda")),
            "mu": proj_str(label.param("mu")),
            "mu_alt": proj_str(label.param("mu_alt")),
            "pattern": list(label.param("pattern")),
        }
    return out
