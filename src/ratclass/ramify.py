"""Ramification data of quadratic and cubic expressions over F_q.

Finite ramification points are exactly the roots of the wronskian
numerator W = g'h - gh' (in every characteristic: at an unramified
point W has vanishing order e - 1 = 0, at a tame point e - 1 >= 1, at a
wild point >= e).  ramification_profile factors W over F_q
(poly.irreducible_factors), realizes one root of each irreducible
factor of degree d in F_{q^d} (poly.root_of_irreducible) and takes its
other d - 1 roots by x -> x^q; no field is scanned.

Which path computes the index:

* p > deg R, so no index reaches p and every point is tame: a root of
  multiplicity m in W has index m + 1, and infinity has index
  2 deg R - 1 - deg W; both are read off the factorization of W.
* p <= deg R (p = 2 or 3), where a point may be wild: ram_index, the
  multiplicity of the point in the fiber polynomial R.fiber(R(P)) (its
  degree drop at infinity), once per closed point (conjugate points
  share their index).

hurwitz_check recomputes every index with ram_index on both paths.
"""

from __future__ import annotations

from .ffield import extend
from .poly import _multiplicity, irreducible_factors, root_of_irreducible
from .ratexpr import INF, proj_key


class RamPoint:
    """One geometric ramification point with its index and branch value.

    point and branch live in F_{q^d} for the exact degree d of the point
    over the coefficient field (d = 1 for the point at infinity).
    """

    __slots__ = ("point", "index", "branch", "defining_degree")

    def __init__(self, point, index, branch, defining_degree):
        self.point = point
        self.index = index
        self.branch = branch
        self.defining_degree = defining_degree

    def sort_key(self):
        return (self.defining_degree, proj_key(self.point))

    def __eq__(self, other):
        if not isinstance(other, RamPoint):
            return NotImplemented
        return (proj_key(self.point) == proj_key(other.point)
                and self.index == other.index
                and proj_key(self.branch) == proj_key(other.branch)
                and self.defining_degree == other.defining_degree)

    def __repr__(self):
        return "RamPoint(%s, index %d, branch %s, degree %d)" % (
            "inf" if self.point is INF else self.point,
            self.index,
            "inf" if self.branch is INF else self.branch,
            self.defining_degree)


class RamProfile:
    """All ramification points of an expression, or the inseparable tag.

    For a separable expression, points are sorted by (field degree,
    infinity first, element code) and indices is the sorted multiset of
    their indices.  An inseparable expression gets the distinguished
    everywhere-ramified profile: separable False, no listed points.
    """

    __slots__ = ("separable", "points", "indices")

    def __init__(self, separable, points=()):
        self.separable = separable
        self.points = tuple(sorted(points, key=RamPoint.sort_key))
        self.indices = tuple(sorted(p.index for p in self.points))

    def to_records(self):
        out = []
        for p in self.points:
            out.append({
                "point": "inf" if p.point is INF else str(p.point),
                "field_degree": p.defining_degree,
                "index": p.index,
                "branch_point": "inf" if p.branch is INF else str(p.branch),
            })
        return out

    def __repr__(self):
        if not self.separable:
            return "RamProfile(inseparable)"
        return "RamProfile(%s)" % (list(self.points),)


def wronskian(R):
    """The numerator g'h - gh' of the derivative of R = g/h."""
    return R.num.derivative() * R.den - R.num * R.den.derivative()


def is_separable(R):
    """Whether R defines a separable covering (nonzero derivative)."""
    if R.degree < 1:
        raise ValueError("separability concerns nonconstant expressions")
    return not wronskian(R).is_zero


def ram_index(R, P):
    """The local index e_R(P): the order of R - R(P) at P, read off the
    fiber polynomial f = R.fiber(R(P)).  At a finite P it is the
    multiplicity of P as a root of f, by repeated synthetic division; at
    infinity it is the degree drop deg R - deg f, whether R(P) is finite
    or not.  Returns 1 at unramified points.
    """
    fiber = R.fiber(R(P))
    if P is INF:
        return R.degree - fiber.degree
    return _multiplicity(fiber, P)


def ramification_profile(R):
    """All geometric ramification points of a quadratic or cubic.

    Points are realized in F_{q^d} for the exact degree d at which they
    live (d <= 4); each carries its index and branch value.  Inseparable
    input yields the distinguished everywhere-ramified profile.
    """
    if R.degree not in (2, 3):
        raise ValueError("degree %d out of scope" % R.degree)
    W = wronskian(R)
    if W.is_zero:
        return RamProfile(False)
    return _profile(R, irreducible_factors(W))


def _profile(R, factors):
    """The profile of a separable quadratic or cubic R from the
    irreducible factors of its Wronskian, for a caller that has them."""
    ctx = R.ctx
    # an index is at most deg R, so for p > deg R every point is tame
    # and ord_P W = e - 1
    tame = ctx.p > R.degree
    points = []
    if tame:
        e = 2 * R.degree - 1 - sum(u.degree * m for u, m in factors)
    else:
        e = ram_index(R, INF)
    if e >= 2:
        points.append(RamPoint(INF, e, R(INF), 1))
    lifts = {1: (None, R)}
    for u, m in factors:
        d = u.degree
        if d not in lifts:
            emb = extend(ctx, d)[1]
            lifts[d] = (emb, R.lift(emb))
        emb, lifted = lifts[d]
        root = -u.coeffs[0] if d == 1 else root_of_irreducible(u, emb)
        if tame:
            e = m + 1
        else:
            e = ram_index(lifted, root)
            if e < 2:
                raise AssertionError("wronskian root with index 1")
        branch = lifted(root)
        # the conjugates of a closed point share its index; their
        # branch values are the conjugates of its branch value
        for _ in range(d):
            points.append(RamPoint(root, e, branch, d))
            root = root ** ctx.q
            if branch is not INF:
                branch = branch ** ctx.q
    return RamProfile(True, points)


def hurwitz_check(R):
    """Compare 2 deg - 2 against the sum of (index - 1).

    Returns one of "holds_with_equality", "holds_strict", "violated".
    Every index of the profile is recomputed independently, as the
    vanishing order of R - R(P) at P (ram_index), and the equality
    criterion (no index divisible by the characteristic) must agree
    with the numeric comparison; either disagreement raises
    AssertionError.
    """
    prof = ramification_profile(R)
    if not prof.separable:
        raise ValueError("the inequality concerns separable expressions")
    ctx = R.ctx
    for pt in prof.points:
        d = pt.defining_degree
        lifted = R if d == 1 else R.lift(extend(ctx, d)[1])
        if ram_index(lifted, pt.point) != pt.index:
            raise AssertionError("profile index %d at %r disagrees with "
                                 "the vanishing order" % (pt.index, pt.point))
    lhs = 2 * R.degree - 2
    rhs = sum(e - 1 for e in prof.indices)
    if rhs > lhs:
        return "violated"
    tame = all(e % ctx.p for e in prof.indices)
    if tame != (rhs == lhs):
        raise AssertionError("equality criterion disagrees with the count")
    return "holds_with_equality" if rhs == lhs else "holds_strict"
