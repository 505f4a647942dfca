"""Orbit enumeration under the two-sided Moebius action, at desk scale.

The group PGL_2(F_q) x PGL_2(F_q) acts on degree-r expressions by
(B, A) . R = B(R(A^{-1}(x))).  This module enumerates orbits as unions
of post-orbits {B(R(A(x)))} over the source maps A, counts stabilizers,
partitions the full set of quadratics or cubics over a small field into
classes, and verifies the partition against closed-form counts.  A
post-orbit is the set of expressions of one pencil <num, den>, so the
partition walks the basepoint-free pencils once.  It classifies each
non-FourPoint pencil, checks its witness equation once on element codes
and counts its members, each built once on codes.  FourPoint labels can
merge classes, so a FourPoint pencil's class is taken as the set of
pencils its precompositions span, classified once through its seed and
skipped thereafter; its least member is read off each pencil's echelon
basis.  orbit_of, which lists an orbit's members, is the oracle for
those classes.
"""

from __future__ import annotations

import itertools

from .classify import CASES, canonical_rep, classify, label_json
from .ffield import check_desk_scale
from .moebius import (_fold_key, _inverse_walk, _monic_key, _monic_over,
                      _padded, _pgl2_keys, _substitute, _trimmed,
                      enumerate_pgl2, pair_scan, post, precompose)
from .poly import Poly, gcd_monic
from .ratexpr import (_check_scale, _normalized, count_expressions,
                      enumerate_expressions)

STATEMENTS = ("expr-count", "quad-counts", "char2-cubic-counts",
              "six-counts", "class-bound")


def _monic_of_degree(ctx, r):
    one = ctx.one
    for low in itertools.product(list(ctx), repeat=r):
        yield Poly(ctx, low + (one,))


def _pencils(ctx, r):
    """One expression f/g of each basepoint-free pencil of degree r.

    A pencil <num, den> of polynomials of degree <= r holds expressions
    of degree r exactly when it has a member of degree r and a coprime
    basis.  Its reduced echelon basis, with the columns read from x^r
    down, is then f monic of degree r and g monic of degree s < r whose
    x^s coefficient in f is zero; f/g is in lowest terms, and the pencil
    holds the q^3 - q expressions B(f/g), B in PGL_2.  There are
    q^(2r-2) such pencils.
    """
    els = list(ctx)
    zero, one = ctx.zero, ctx.one
    for s in range(r):
        for g in _monic_of_degree(ctx, s):
            for low in itertools.product(els, repeat=r - 1):
                f = Poly(ctx, low[:s] + (zero,) + low[s:] + (one,))
                if gcd_monic(f, g).degree == 0:
                    yield _normalized(f, g)


def coprime_pair_count(ctx, r, s):
    """Count ordered pairs of coprime monic polynomials of degrees (r, s).

    Counted by enumeration; the total always comes out to
    q^(r+s-1)(q-1).
    """
    if r < 1 or s < 1:
        raise ValueError("both degrees must be at least 1")
    check_desk_scale(ctx.q ** (r + s), "monic pairs of degrees (%d, %d) "
                     "over %s" % (r, s, ctx.name))
    seconds = list(_monic_of_degree(ctx, s))
    n = 0
    for f in _monic_of_degree(ctx, r):
        for g in seconds:
            if gcd_monic(f, g).degree == 0:
                n += 1
    return n


def orbit_of(R):
    """The full orbit of R as a set.

    The orbit is the union over A of the post-orbits {B(R(A(x)))}, so
    each source map costs one substitution, and a post-orbit is
    enumerated only for an R(A(x)) not already reached: the set is a
    union of whole post-orbits at every step.
    """
    ctx = R.ctx
    _check_scale(ctx, R.degree)
    group = enumerate_pgl2(ctx)
    seen = set()
    for A in group:
        S = precompose(R, A)
        if S not in seen:
            seen.update(post(B, S) for B in group)
    return seen


def stabilizer_order(R):
    """Number of pairs fixing R.

    For each source-side A the target side is forced: at most one B can
    satisfy B(R(A^{-1}(x))) = R, and moebius.pair_scan reads it off the
    pencil of R(A^{-1}(x)), so one Horner substitution over shared
    denominator powers and one linear solve on element codes per group
    element decide membership; elements are made only for the pairs
    counted.
    """
    return sum(1 for _ in pair_scan(R, R))


class OrbitReport:
    """The full class partition of degree-r expressions over one field.

    classes is a list of dicts with keys representative, size, label
    and stabilizer_order, ordered by label; sizes sum to total, and
    size times stabilizer order is always (q^3-q)^2.
    """

    __slots__ = ("q", "degree", "classes", "total")

    def __init__(self, q, degree, classes, total):
        self.q = q
        self.degree = degree
        self.classes = classes
        self.total = total

    @property
    def class_count(self):
        return len(self.classes)

    def sizes_by_case(self):
        out = {}
        for c in self.classes:
            out.setdefault(c["label"].case, []).append(c["size"])
        return {case: sorted(sizes) for case, sizes in out.items()}

    def to_json(self, ctx):
        rows = []
        for c in self.classes:
            row = label_json(c["label"], ctx)
            row["representative"] = str(c["representative"])
            row["size"] = c["size"]
            row["stabilizer_order"] = c["stabilizer_order"]
            rows.append(row)
        return {"q": self.q, "degree": self.degree, "total": self.total,
                "class_count": self.class_count, "classes": rows}

    def __repr__(self):
        return "OrbitReport(q=%d, degree %d, %d classes, %d expressions)" \
            % (self.q, self.degree, self.class_count, self.total)


def _param_sort_key(v):
    if isinstance(v, int):
        return (0, v, 0)
    if isinstance(v, tuple):
        return (2, 0, tuple(v))
    return (1, v.key, 0)


def _label_sort_key(label):
    return (CASES.index(label.case),
            tuple((k, _param_sort_key(v)) for k, v in label.params))


def _pencil_key(ctx, num, den, r):
    """The key of the _pencils representative of <num, den>, given as
    code lists of degree at most r: the reduced echelon basis with the
    columns read from x^r down."""
    sub, scale, inv = ctx.sub, ctx.scale, ctx.inv
    u, v = _padded((num, den), r)
    if not u[r]:
        u, v = v, u
    f = scale(inv(u[r]), u)
    g = _trimmed(list(map(sub, v, scale(v[r], f))))
    g = scale(inv(g[-1]), g)
    s = len(g) - 1
    f = list(map(sub, f, scale(f[s], g))) + f[s + 1:]
    return tuple(f), tuple(g)


def _least_member(ctx, r, key):
    """The least-key expression of the pencil of key, a degree-r
    expression's key, found without listing the pencil.

    Keys compare the numerator's codes from x^0 up first.  In the
    reduced echelon basis u1, u2 of the pencil with the columns read
    from x^0 up, pivots i < j scaled to 1, every vector off the line of
    u2 is nonzero at i, where u2 is zero, and b u2 holds b at j; so u2
    is the least numerator.  The denominators that go with it are the
    monic vectors of the other q lines, those of u1 + t u2.
    """
    add, sub, scale, inv = ctx.add, ctx.sub, ctx.scale, ctx.inv
    u, v = _padded(key, r)
    i = next(k for k in range(r + 1) if u[k] or v[k])
    if not u[i]:
        u, v = v, u
    u1 = scale(inv(u[i]), u)
    w = list(map(sub, v, scale(v[i], u1)))
    u2 = scale(inv(next(c for c in w if c)), w)
    best = None
    for t in range(ctx.q):
        den = _trimmed(list(map(add, u1, scale(t, u2))))
        den = scale(inv(den[-1]), den)
        if best is None or den < best:
            best = den
    return _monic_over(ctx, u2, best)


def all_classes(ctx, degree):
    """Partition every degree-2 or degree-3 expression into classes.

    Each expression is B(R) for exactly one pencil representative R
    (_pencils) and one B in PGL_2, and all of a pencil's members share
    R's class.  The pencils are walked once, and a pencil already
    walked is skipped.  A non-FourPoint pencil is classified and gets
    its witness onto the canonical representative T checked once: if
    (B0, A0) maps R onto T, then B0(R) = T(A0), compared on integer
    codes (moebius._fold_key), or AssertionError names the pencil.  The
    members are then E(B0(R)) = E(T(A0)) for E in PGL_2, all in T's
    class, and the class keeps only their count, q^3 - q.  That count
    already follows from the free post-action; building each member
    once on codes (no substitution, no element made) and requiring
    q^3 - q distinct keys, or AssertionError naming the pencil, is a
    check of the fold kernel, and it goes once partition memory is
    read at a fixed amount of work (ROADMAP item 1).

    FourPoint labels can merge classes, so a FourPoint pencil's class
    is its orbit under precomposition: the pencils of R(A(x)) over A,
    the same set as over A^{-1}, found by one walk of pair_scan's
    inverse substitutions (moebius._inverse_walk) and marked as walked,
    so each FourPoint class costs one classify.  Four distinct
    ramification points are a class invariant, so an orbit holds only
    FourPoint pencils; one that meets a walked pencil raises
    AssertionError naming its seed.  The class holds q^3 - q
    expressions per pencil and is represented by its least member, read
    off each pencil's echelon basis (_least_member).
    """
    if degree not in (2, 3):
        raise ValueError("class partitions cover degrees 2 and 3 only")
    total_expected = _check_scale(ctx, degree)
    group = list(_pgl2_keys(ctx))
    counts = {}
    orbits = {}
    walked = set()
    for R in _pencils(ctx, degree):
        if R.key in walked:
            continue
        label, witness = classify(R)
        if label.case == "FourPoint":
            # the pencil key is read off the codes of R(A^{-1}(x)) as they
            # are substituted: the echelon basis is the same for every scale
            orb = {_pencil_key(ctx, *codes, degree) for _, codes
                   in _inverse_walk(R, group)}
            if not walked.isdisjoint(orb):
                raise AssertionError("orbit of %s meets a walked pencil"
                                     % (R,))
            walked |= orb
            rep = min((_least_member(ctx, degree, k) for k in orb),
                      key=lambda S: S.key)
            orbits.setdefault(label, []).append((rep, len(orb) * len(group)))
            continue
        R0 = _fold_key(ctx, witness.B.key, *R.key)
        if R0 != _monic_key(ctx, *_substitute(witness.target,
                                               *witness.A.key)):
            raise AssertionError("pencil of %s fails its witness" % (R,))
        if len({_fold_key(ctx, e, *R0) for e in group}) != len(group):
            raise AssertionError("pencil of %s does not hold %d distinct "
                                 "members" % (R, len(group)))
        counts[label] = counts.get(label, 0) + len(group)
    group_sq = len(group) ** 2
    classes = []
    for label in sorted(counts.keys() | orbits.keys(), key=_label_sort_key):
        if label in counts:
            found = [(canonical_rep(label, ctx), counts[label])]
        else:
            found = sorted(orbits[label], key=lambda c: c[0].key)
        for rep, size in found:
            if group_sq % size:
                raise AssertionError(
                    "class size %d does not divide the group order" % size)
            classes.append({"representative": rep, "size": size,
                            "label": label,
                            "stabilizer_order": group_sq // size})
    total = sum(c["size"] for c in classes)
    if total != total_expected:
        raise AssertionError("classes sum to %d, expected %d"
                             % (total, total_expected))
    return OrbitReport(ctx.q, degree, classes, total)


def _expected_quad_sizes(q, p):
    group_sq = (q ** 3 - q) ** 2
    if p == 2:
        return sorted([q * (q * q - 1), q * (q * q - 1) ** 2])
    return sorted([group_sq // (2 * (q - 1)), group_sq // (2 * (q + 1))])


def _expected_char2_cubic(q):
    base = q * q * (q * q - 1) ** 2
    group_sq = (q ** 3 - q) ** 2
    expected = {
        "Cubic2_i": [group_sq // (2 * (q - 1))],
        "Cubic2_ii": [group_sq // (2 * (q + 1))],
        "Cubic2_iii": [base],
    }
    if (q - 1) % 3 == 0:
        expected["Cubic2_iv"] = [base // 3] * 3
    else:
        expected["Cubic2_iv"] = [base]
    if q > 2:
        expected["Cubic2_v"] = [base // 2] * (q - 2)
        expected["Cubic2_vi"] = [base // 2] * (q - 2)
    return expected


def verify_statement(ctx, statement):
    """Check one closed-form statement against enumeration.

    Returns (ok, details); details is a JSON-ready dict recording both
    the expected and the observed side.
    """
    q = ctx.q
    group_sq = (q ** 3 - q) ** 2
    if statement == "expr-count":
        details = {"statement": statement, "q": q, "degrees": {}}
        ok = True
        # the cubics outnumber the quadratics, so one check bounds both
        _check_scale(ctx, 3)
        for degree in (2, 3):
            formula = count_expressions(ctx, degree)
            observed = sum(1 for _ in enumerate_expressions(ctx, degree))
            # expressions of degree r are (q-1) copies of the monic
            # coprime pairs with max degree r; degree-0 partners are
            # the q^r pairs with one side constant
            pairs = 2 * q ** degree + coprime_pair_count(ctx, degree, degree)
            for s in range(1, degree):
                pairs += coprime_pair_count(ctx, degree, s)
                pairs += coprime_pair_count(ctx, s, degree)
            details["degrees"][str(degree)] = {
                "formula": formula, "enumerated": observed,
                "monic_pair_decomposition": pairs * (q - 1)}
            ok = ok and formula == observed == pairs * (q - 1)
        return ok, details
    if statement == "quad-counts":
        report = all_classes(ctx, 2)
        observed = sorted(c["size"] for c in report.classes)
        expected = _expected_quad_sizes(q, ctx.p)
        ok = observed == expected and report.class_count == 2
        return ok, {"statement": statement, "q": q,
                    "expected": expected, "observed": observed}
    if statement == "char2-cubic-counts":
        if ctx.p != 2:
            raise ValueError("statement needs characteristic 2")
        report = all_classes(ctx, 3)
        expected = _expected_char2_cubic(q)
        observed = report.sizes_by_case()
        ok = observed == expected
        return ok, {"statement": statement, "q": q,
                    "expected": expected, "observed": observed}
    if statement == "six-counts":
        if ctx.p < 5:
            raise ValueError("statement needs characteristic at least 5")
        report = all_classes(ctx, 3)
        expected = {
            "Cubic_X3": [group_sq // (2 * (q - 1))],
            "Cubic_TwoPointTwist": [group_sq // (2 * (q + 1))],
            "Cubic_Dickson": [group_sq // 2],
            "Cubic_DicksonTwist": [group_sq // 2],
        }
        observed = report.sizes_by_case()
        four = observed.pop("FourPoint", [])
        named_total = q * q * (q - 1) * (q + 1) * (q * q + q - 1)
        four_total = q * q * (q + 1) ** 2 * (q - 1) ** 3
        ok = (observed == expected
              and sum(v[0] for v in expected.values()) == named_total
              and sum(four) == four_total)
        return ok, {"statement": statement, "q": q,
                    "expected": expected, "observed": observed,
                    "four_point_total": {"formula": four_total,
                                         "observed": sum(four)}}
    if statement == "class-bound":
        report = all_classes(ctx, 3)
        bound = 6 * q - 2
        ok = report.class_count <= bound
        return ok, {"statement": statement, "q": q,
                    "bound": bound, "class_count": report.class_count}
    raise ValueError("unknown statement %r; know %s"
                     % (statement, ", ".join(STATEMENTS)))
