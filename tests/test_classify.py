import importlib
import itertools
import math
import random

import pytest

import ratclass.ffield as ff
import ratclass.moebius as mb
import ratclass.poly as pl
import ratclass.ramify as rm
import ratclass.ratexpr as rx
from ratclass.parse import parse_expression

# the package exports the classify function under the module's name,
# so bind the module itself explicitly
cl = importlib.import_module("ratclass.classify")

F2 = ff.field_create(2)
F3 = ff.field_create(3)
F4 = ff.field_create(2, 2)
F5 = ff.field_create(5)
F7 = ff.field_create(7)
F8 = ff.field_create(2, 3)
F9 = ff.field_create(3, 2)
F11 = ff.field_create(11)
F13 = ff.field_create(13)
F16 = ff.field_create(2, 4)
F64 = ff.field_create(2, 6)


def random_moebius(ctx, rng):
    while True:
        a, b, c, d = (ctx.from_key(rng.randrange(ctx.q)) for _ in range(4))
        if (a * d - b * c).key:
            return mb.Moebius(ctx, a, b, c, d)


def random_pair(ctx, rng):
    return mb.PairAction(random_moebius(ctx, rng), random_moebius(ctx, rng))


def random_exprs(ctx, degree, count, rng):
    out = []
    els = list(ctx)
    while len(out) < count:
        num = [rng.choice(els) for _ in range(degree + 1)]
        den = [rng.choice(els) for _ in range(degree)] + [ctx.zero]
        try:
            R = rx.expr(ctx, num, den)
        except ZeroDivisionError:
            continue
        if R.degree == degree:
            out.append(R)
    return out


def census(ctx, degree):
    counts = {}
    for R in rx.enumerate_expressions(ctx, degree):
        label = cl.classify(R)[0]
        counts[label] = counts.get(label, 0) + 1
    return counts


def test_class_label_basics():
    a = cl.ClassLabel("Cubic2_iv", {"k": 1})
    b = cl.ClassLabel("Cubic2_iv", {"k": 1})
    c = cl.ClassLabel("Cubic2_iv", {"k": 2})
    assert a == b and hash(a) == hash(b) and a != c
    assert a.param("k") == 1 and dict(a.params) == {"k": 1}
    with pytest.raises(KeyError):
        a.param("c")
    with pytest.raises(ValueError):
        cl.ClassLabel("NoSuchCase")
    assert "Cubic2_iv" in repr(a)


def test_class_label_rejects_parameters_its_case_does_not_take():
    t = F4.from_key(2)
    for case, params in (("Quad_X2", {"k": 1}), ("Cubic2_iv", {}),
                         ("Cubic2_iv", {"c": t}),
                         ("Cubic2_v", {"c": t, "k": 2}),
                         ("Cubic2_vi", {"c": t}), ("FourPoint", {}),
                         ("FourPoint", {"lambda": t, "mu": t})):
        with pytest.raises(ValueError, match="takes parameters"):
            cl.ClassLabel(case, params)
    assert cl.ClassLabel("Cubic2_vi", {"b": t}).params == (("b", t),)


def test_witness_checks_its_pair():
    R = rx.expr(F5, (3, 0, 1))
    T = rx.expr(F5, (0, 0, 1))
    good = mb.PairAction(mb.Moebius(F5, 1, -3, 0, 1), mb.identity(F5))
    w = cl.Witness(good, R, T)
    assert w.B is good.B and w.A is good.A
    bad = mb.PairAction(mb.identity(F5), mb.identity(F5))
    with pytest.raises(ValueError):
        cl.Witness(bad, R, T)


def test_canonical_reps_frozen():
    assert cl.canonical_rep(cl.ClassLabel("Quad_X2"), F5) == rx.expr(
        F5, (0, 0, 1))
    assert cl.canonical_rep(cl.ClassLabel("Quad_TwoPointTwist"), F5) == \
        rx.expr(F5, (2, 0, 1), (0, 2))
    assert cl.canonical_rep(cl.ClassLabel("Quad_SepChar2"), F2) == rx.expr(
        F2, (1, 0, 1), (0, 1))
    assert cl.canonical_rep(cl.ClassLabel("Cubic_Dickson"), F5) == rx.expr(
        F5, (0, 2, 0, 1))
    assert cl.canonical_rep(cl.ClassLabel("Cubic_DicksonTwist"), F5) == \
        rx.expr(F5, (0, 4, 0, 1))
    assert cl.canonical_rep(cl.ClassLabel("Cubic_TwoPointTwist"), F5) == \
        rx.expr(F5, (0, 1, 0, 1), (2, 0, 3))
    assert cl.canonical_rep(cl.ClassLabel("Cubic2_ii"), F2) == rx.expr(
        F2, (1, 1, 0, 1), (0, 1, 1))
    t = F4.from_key(2)
    assert cl.canonical_rep(cl.ClassLabel("Cubic2_v", {"c": t}), F4) == \
        rx.expr(F4, (t, F4.zero, F4.zero, F4.one), (t, F4.one))
    assert cl.canonical_rep(cl.ClassLabel("Cubic2_iv", {"k": 1}), F4) == \
        rx.expr(F4, (t, F4.zero, F4.zero, F4.one), (0, 1))
    assert cl.canonical_rep(cl.ClassLabel("Cubic3_X3SigmaX"), F3) == \
        rx.expr(F3, (0, 2, 0, 1))


def test_canonical_rep_rejects_wrong_field():
    with pytest.raises(ValueError):
        cl.canonical_rep(cl.ClassLabel("Cubic_X3"), F3)
    with pytest.raises(ValueError):
        cl.canonical_rep(cl.ClassLabel("Quad_X2"), F4)
    with pytest.raises(ValueError):
        cl.canonical_rep(cl.ClassLabel("Cubic2_i"), F7)
    with pytest.raises(ValueError):
        cl.canonical_rep(cl.ClassLabel("Cubic2_iv", {"k": 1}), F2)
    with pytest.raises(ValueError):
        cl.canonical_rep(cl.ClassLabel("Cubic2_v", {"c": F4.one}), F4)
    four = cl.ClassLabel("FourPoint", {"lambda": F5.scalar(3), "mu": rx.INF,
                                       "mu_alt": rx.INF, "pattern": (1, 3)})
    with pytest.raises(ValueError):
        cl.canonical_rep(four, F5)


def test_canonical_two_point_ramifies_at_conjugate_pair():
    for ctx, r in ((F5, 2), (F5, 3), (F7, 2), (F7, 3), (F9, 2), (F13, 3)):
        T = cl.canonical_two_point(r, True, ctx)
        prof = rm.ramification_profile(T)
        assert [p.defining_degree for p in prof.points] == [2, 2]
        tau = ff.canonical_tau(ctx)
        pts = {rx.proj_key(p.point) for p in prof.points}
        assert pts == {rx.proj_key(tau), rx.proj_key(-tau)}
    with pytest.raises(ValueError):
        cl.canonical_two_point(2, True, F2)
    with pytest.raises(ValueError):
        cl.canonical_two_point(3, True, F3)
    with pytest.raises(ValueError):
        cl.canonical_two_point(1, True, F5)
    assert cl.canonical_two_point(3, False, F5) == rx.expr(F5, (0, 0, 0, 1))


def test_family_rc_frozen():
    assert cl.family_Rc(F7.scalar(3)) == rx.expr(F7, (0, 0, 1, 1), (4, 5))
    assert cl.family_Rc(F7.scalar(4)) == rx.expr(F7, (0, 0, 3, 5))
    assert str(cl.family_Rc(F7.scalar(4))) == "5x^3+3x^2"
    t = F4.from_key(2)
    assert cl.family_Rc(t) == rx.expr(
        F4, (F4.zero, F4.zero, t, F4.one), (1, 1))
    u = F9.from_key(3)
    assert cl.family_Rc(u) == rx.expr(
        F9, (F9.zero, F9.zero, u + F9.one, F9.one),
        (-u, -(u + F9.one)))
    for bad in (F7.zero, F7.one):
        with pytest.raises(ValueError):
            cl.family_Rc(bad)
    for bad in (F9.scalar(2), F4.one):
        with pytest.raises(ValueError):
            cl.family_Rc(bad)


def test_lambda_mu_frozen_and_identities():
    lam, mu = cl.lambda_mu_of_c(F7.scalar(3))
    assert lam == F7.scalar(5) and mu == F7.scalar(3)
    assert cl.lambda_mu_of_c(F7.scalar(4)) == (rx.INF, rx.INF)
    assert cl.lambda_mu_relation(F7.scalar(5), F7.scalar(3))
    assert not cl.lambda_mu_relation(F7.scalar(2), F7.scalar(2))
    assert not cl.lambda_mu_relation(F7.scalar(5), rx.INF)
    # mu * c^2 = lambda^3 wherever both sides are finite
    for c in F11:
        if c.key in (0, 1) or (F11.scalar(2) * c - F11.one).key == 0:
            continue
        lam, mu = cl.lambda_mu_of_c(c)
        assert mu * c * c == lam ** 3
    with pytest.raises(ValueError):
        cl.lambda_mu_of_c(F3.from_key(2))
    with pytest.raises(ValueError):
        cl.lambda_mu_of_c(F7.one)
    with pytest.raises(ValueError):
        cl.lambda_mu_relation(F7.zero, F7.one)
    with pytest.raises(ValueError):
        cl.lambda_mu_relation(rx.INF, F7.one)
    with pytest.raises(ValueError):
        cl.lambda_mu_relation(F4.from_key(2), F4.one)


def test_lambda_sixth_root_forces_inverse_mu():
    # lambda^2 - lambda + 1 = 0 makes the relation collapse to mu = 1/lambda
    lam = F7.scalar(3)
    assert (lam * lam - lam + F7.one).key == 0
    assert cl.lambda_mu_relation(lam, lam ** -1)
    for mu in F7:
        if mu.key and cl.lambda_mu_relation(lam, mu):
            assert mu == lam ** -1


def test_lambda_of_c_s_equivariance():
    inv = mb.Moebius(F7, 0, 1, 1, 0)
    flip = mb.Moebius(F7, -1, 1, 0, 1)
    for c in F7:
        if c.key in (0, 1):
            continue
        lam = cl.lambda_mu_of_c(c)[0]
        lam_inv = cl.lambda_mu_of_c(c ** -1)[0]
        lam_flip = cl.lambda_mu_of_c(F7.one - c)[0]
        assert rx.proj_key(lam_inv) == rx.proj_key(inv(lam))
        assert rx.proj_key(lam_flip) == rx.proj_key(flip(lam))


def test_classify_quadratic_frozen_examples():
    label, w = cl.classify(rx.expr(F2, (0, 1, 1)))
    assert label == cl.ClassLabel("Quad_SepChar2")
    label, w = cl.classify(rx.expr(F5, (2, 0, 1), (0, 2)))
    assert label == cl.ClassLabel("Quad_TwoPointTwist")
    label, w = cl.classify(rx.expr(F5, (3, 0, 1)))
    assert label == cl.ClassLabel("Quad_X2")
    label, w = cl.classify(rx.expr(F2, (0, 0, 1)))
    assert label == cl.ClassLabel("Quad_X2_Insep")
    assert w.A == mb.identity(F2)


def test_classify_cubic_frozen_examples():
    label, w = cl.classify(rx.expr(F7, (1, 4, 0, 1), (0, 6, 1)))
    assert label == cl.ClassLabel("Cubic_X3")
    label, w = cl.classify(rx.expr(F3, (0, 2, 0, 1)))
    assert label == cl.ClassLabel("Cubic3_X3SigmaX")
    label, w = cl.classify(rx.expr(F3, (0, 1, 0, 1)))
    assert label == cl.ClassLabel("Cubic3_X3X")
    t = F4.from_key(2)
    label, w = cl.classify(rx.expr(
        F4, (t, F4.zero, F4.zero, F4.one), (0, 1)))
    assert label == cl.ClassLabel("Cubic2_iv", {"k": 1})
    label, w = cl.classify(rx.expr(F2, (1, 1, 0, 1), (0, 1, 1)))
    assert label == cl.ClassLabel("Cubic2_ii")
    label, w = cl.classify(rx.expr(F3, (0, 0, 0, 1)))
    assert label == cl.ClassLabel("Cubic3_X3_Insep")
    assert w.A == mb.identity(F3)
    with pytest.raises(ValueError):
        cl.classify(rx.expr(F5, (0, 1)))


def test_quadratic_census_small_fields():
    assert census(F2, 2) == {
        cl.ClassLabel("Quad_X2_Insep"): 6,
        cl.ClassLabel("Quad_SepChar2"): 18,
    }
    assert census(F3, 2) == {
        cl.ClassLabel("Quad_X2"): 144,
        cl.ClassLabel("Quad_TwoPointTwist"): 72,
    }
    assert census(F4, 2) == {
        cl.ClassLabel("Quad_X2_Insep"): 60,
        cl.ClassLabel("Quad_SepChar2"): 900,
    }


def test_cubic_census_f2():
    assert census(F2, 3) == {
        cl.ClassLabel("Cubic2_i"): 18,
        cl.ClassLabel("Cubic2_ii"): 6,
        cl.ClassLabel("Cubic2_iii"): 36,
        cl.ClassLabel("Cubic2_iv", {"k": 0}): 36,
    }


def test_cubic_census_f3():
    counts = census(F3, 3)
    named = {lab: n for lab, n in counts.items() if lab.case != "FourPoint"}
    assert named == {
        cl.ClassLabel("Cubic3_X3_Insep"): 24,
        cl.ClassLabel("Cubic3_X3X2"): 576,
        cl.ClassLabel("Cubic3_X3X"): 96,
        cl.ClassLabel("Cubic3_X3SigmaX"): 96,
    }
    four = {lab: n for lab, n in counts.items() if lab.case == "FourPoint"}
    assert sum(four.values()) == 1152
    by_pattern = {}
    for lab, n in four.items():
        pat = lab.param("pattern")
        by_pattern[pat] = by_pattern.get(pat, 0) + n
    assert by_pattern == {(1, 3): 576, (1, 1, 2): 288, (4,): 288}
    # each invariant bucket closes under the action (spot check)
    rng = random.Random(0)
    for R in random_exprs(F3, 3, 12, rng):
        lab, w = cl.classify(R)
        if lab.case != "FourPoint":
            continue
        moved = mb.act(random_pair(F3, rng), R)
        assert cl.classify(moved)[0] == lab


def test_equivalence_matches_labels_exhaustively_f2():
    exprs = list(rx.enumerate_expressions(F2, 3))
    labels = [cl.classify(R)[0] for R in exprs]
    for i, R in enumerate(exprs):
        for j in range(i, len(exprs)):
            pair = cl.are_equivalent(R, exprs[j])
            if labels[i] == labels[j]:
                assert pair is not None
                assert mb.act(pair, R) == exprs[j]
            else:
                assert pair is None


def test_equivalence_needs_extension_probes():
    # this expression collapses the rational line to a single value, so
    # no pair can be told from its values at F_2-points alone
    R = rx.expr(F2, (1, 1, 0, 1), (0, 1, 1))
    for P in rx.proj_points(F2):
        assert R(P) is rx.INF or R(P).key == 1
    pair = cl.are_equivalent(R, R)
    assert pair is not None and mb.act(pair, R) == R


def test_are_equivalent_frozen_negatives():
    assert cl.are_equivalent(rx.expr(F3, (0, 1, 0, 1)),
                             rx.expr(F3, (0, 2, 0, 1))) is None
    dickson = cl.canonical_rep(cl.ClassLabel("Cubic_Dickson"), F5)
    twist = cl.canonical_rep(cl.ClassLabel("Cubic_DicksonTwist"), F5)
    assert cl.are_equivalent(dickson, twist) is None
    with pytest.raises(ValueError):
        cl.are_equivalent(rx.expr(F2, (0, 0, 1)), rx.expr(F4, (0, 0, 1)))
    with pytest.raises(ValueError):
        cl.are_equivalent(rx.expr(F2, (0, 0, 1)), rx.expr(F2, (0, 0, 0, 1)))


def test_are_equivalent_finds_constructed_pairs():
    rng = random.Random(0)
    for ctx in (F2, F3, F4):
        for R in random_exprs(ctx, 3, 6, rng):
            moved = mb.act(random_pair(ctx, rng), R)
            pair = cl.are_equivalent(R, moved)
            assert pair is not None
            assert mb.act(pair, R) == moved


def test_witness_soundness_sampled():
    rng = random.Random(0)
    for ctx in (F3, F4, F5):
        for degree in (2, 3):
            for R in random_exprs(ctx, degree, 25, rng):
                label, w = cl.classify(R)
                if w is None:
                    assert label.case == "FourPoint"
                    continue
                assert mb.act(w.pair, R) == cl.canonical_rep(label, ctx)
                again, w2 = cl.classify(cl.canonical_rep(label, ctx))
                assert again == label


def test_four_point_invariants_frozen_family():
    lab = cl.four_point_invariants(cl.family_Rc(F7.scalar(3)))
    assert lab.case == "FourPoint"
    assert lab.param("lambda") == F7.scalar(3)
    assert lab.param("mu") == F7.scalar(5)
    assert lab.param("mu_alt") == F7.scalar(5)
    assert lab.param("pattern") == (1, 1, 1, 1)
    # the reported pair is the joint orbit minimum of the raw cross-ratios
    raw = cl.lambda_mu_of_c(F7.scalar(3))
    keys = []
    for M in mb.s_group_maps(F7):
        keys.append((rx.proj_key(M(raw[0])), rx.proj_key(M(raw[1]))))
    assert min(keys) == (rx.proj_key(lab.param("lambda")),
                         rx.proj_key(lab.param("mu")))
    with pytest.raises(ValueError):
        cl.four_point_invariants(rx.expr(F7, (0, 0, 0, 1)))
    with pytest.raises(ValueError):
        cl.four_point_invariants(rx.expr(F7, (0, 0, 1)))
    with pytest.raises(ValueError):
        cl.four_point_invariants(rx.expr(F3, (0, 0, 0, 1)))


def test_four_point_relation_empirical_char3():
    # the branch relation also holds in characteristic 3: on every
    # four-point cubic over F_3 and on seeded ones over F_9 and F_27,
    # both written out and through lambda_mu_relation; over F_3 every
    # label also matches the compositum oracle and stays the same under
    # a random pair
    def holds(label):
        lam, mu = label.param("lambda"), label.param("mu")
        ctxm = lam.ctx
        two, three = ctxm.scalar(2), ctxm.scalar(3)
        val = mu * mu - two * lam * mu * (two * lam * lam - three * lam + two) \
            + lam ** 4
        return val.key == 0 and cl.lambda_mu_relation(lam, mu)

    rng = random.Random(7)
    four = []
    for R in rx.enumerate_expressions(F3, 3):
        label = cl.classify(R)[0]
        if label.case == "FourPoint":
            assert label == compositum_label(R), str(R)
            assert cl.classify(mb.act(random_pair(F3, rng), R))[0] == label
            four.append(label)
    assert len(four) == 1152 and len(set(four)) == 3
    assert all(holds(label) for label in four)
    rng = random.Random(3)
    for ctx in (F9, ff.field_create(3, 3)):
        labels = [cl.classify(R)[0]
                  for R in random_exprs(ctx, 3, 120, rng)]
        four = [label for label in labels if label.case == "FourPoint"]
        assert len(four) >= 40
        assert all(holds(label) for label in four)


def compositum_label(R):
    """The FourPoint label of R with every ramification point split: the
    points and branch values of the ramification profile are embedded
    into the compositum F_{q^m} of their fields, both cross-ratios are
    taken there in one point order, and the pair is reported at its
    least image under the six maps of the cross-ratio symmetry group;
    the oracle for classify's resolvent path."""
    ctx = R.ctx
    prof = rm.ramification_profile(R)
    assert prof.indices == (2, 2, 2, 2)
    degs = [pt.defining_degree for pt in prof.points]
    ctxm = ff.extend(ctx, math.lcm(*degs))[0]
    pts, brs = [], []
    for pt in prof.points:
        em = ff.embed(ff.extend(ctx, pt.defining_degree)[0], ctxm)
        pts.append(rx.INF if pt.point is rx.INF else em(pt.point))
        brs.append(rx.INF if pt.branch is rx.INF else em(pt.branch))
    lam, mu = mb.cross_ratio(*pts), mb.cross_ratio(*brs)
    lam, mu = min(((M(lam), M(mu)) for M in mb.s_group_maps(ctxm)),
                  key=lambda lm: (rx.proj_key(lm[0]), rx.proj_key(lm[1])))
    pattern = []
    for d in sorted(set(degs)):
        pattern += [d] * (degs.count(d) // d)
    return cl.ClassLabel("FourPoint", {"lambda": lam, "mu": mu,
                                       "mu_alt": lam ** 4 / mu,
                                       "pattern": tuple(pattern)})


def four_point_shape(R):
    """(pattern, infinity shape) of a four-point cubic, from the
    factorization of its Wronskian: the shape says whether infinity is
    a ramification point and whether a ramification point maps to
    infinity, which only rational points can do."""
    W = rm.wronskian(R)
    factors = pl.irreducible_factors(W)
    at_inf = W.degree == 3
    pattern = tuple(sorted([u.degree for u, _ in factors] + [1] * at_inf))
    rational = [rx.INF] * at_inf + [-u.coeffs[0] for u, _ in factors
                                    if u.degree == 1]
    pole = any(R(P) is rx.INF for P in rational)
    return pattern, (at_inf, pole), rational


def is_four_point(R):
    """Whether R has four ramification points, each simple in W."""
    W = rm.wronskian(R)
    return (R.ctx.p != 2 and not W.is_zero and W.degree >= 3
            and all(m == 1 for _, m in pl.irreducible_factors(W)))


def sampled_four_point_cubics(ctx, per_shape, rng, patterns=None):
    """Seeded four-point cubics over ctx: up to per_shape of every
    pattern (or of those given) and every infinity shape it reaches.
    Each random cubic with a rational ramification point P also comes
    moved by fixed maps that send infinity to P, P's branch value to
    infinity, or both, which reaches the shapes random draws rarely
    hit."""
    found = {}
    for R in itertools.islice(random_cubics(ctx, rng), 4000):
        if not is_four_point(R):
            continue
        pattern, shape, rational = four_point_shape(R)
        if patterns is not None and pattern not in patterns:
            continue
        moved = [R]
        if rational:
            P = rational[-1]
            Q = R(P)
            A = mb.three_point_map(P, *other_points(ctx, P))
            B = mb.three_point_map(Q, *other_points(ctx, Q)).inverse()
            moved += [mb.precompose(R, A), mb.post(B, R),
                      mb.post(B, mb.precompose(R, A))]
        for S in moved:
            pattern, shape, _ = four_point_shape(S)
            bucket = found.setdefault((pattern, shape), [])
            if len(bucket) < per_shape:
                bucket.append(S)
        reachable = [(pat, shape) for pat in (patterns or FOUR_POINT_SHAPES)
                     for shape in FOUR_POINT_SHAPES[pat]]
        if all(len(found.get(key, ())) == per_shape for key in reachable):
            break
    return found


def other_points(ctx, P):
    """The first two points of P^1 other than P."""
    return [Q for Q in itertools.islice(rx.proj_points(ctx), 3)
            if rx.proj_key(Q) != rx.proj_key(P)][:2]


def random_cubics(ctx, rng):
    """Random cubics, numerator and denominator of degree up to 3."""
    while True:
        num, den = ([ctx.from_key(rng.randrange(ctx.q)) for _ in range(4)]
                    for _ in range(2))
        try:
            R = rx.expr(ctx, num, den)
        except ZeroDivisionError:
            continue
        if R.degree == 3:
            yield R


# the infinity shapes of each pattern: (1, 1, 2) needs F_q to hold the
# fourth point, and the patterns without a rational point reach only
# the finite shape
_SHAPES = [(False, False), (True, False), (False, True), (True, True)]
FOUR_POINT_SHAPES = {(1, 1, 1, 1): _SHAPES, (1, 1, 2): _SHAPES,
                     (1, 3): _SHAPES, (2, 2): _SHAPES[:1], (4,): _SHAPES[:1]}


def check_four_point(R, rng):
    label = cl.classify(R)[0]
    assert label == compositum_label(R), (R.ctx.name, str(R))
    assert cl.lambda_mu_relation(label.param("lambda"), label.param("mu"))
    assert cl.classify(mb.act(random_pair(R.ctx, rng), R))[0] == label
    return label


def test_four_point_labels_match_compositum_oracle_sampled():
    # every pattern and every infinity shape, over small and larger
    # fields of characteristic 3 and at least 5
    rng = random.Random(11)
    seen = set()
    for p, n, per_shape in ((5, 1, 4), (7, 1, 4), (3, 2, 4), (11, 1, 3),
                            (13, 1, 3), (3, 3, 3), (31, 1, 2), (3, 5, 1)):
        ctx = ff.field_create(p, n)
        # the four-point cubics over F_5 have the patterns (1, 3),
        # (1, 1, 2) and (4) only (all 75,000 cubics classified)
        patterns = [pat for pat in FOUR_POINT_SHAPES
                    if ctx.q != 5 or pat in ((1, 3), (1, 1, 2), (4,))]
        for key, exprs in sampled_four_point_cubics(ctx, per_shape, rng,
                                                    patterns).items():
            for R in exprs:
                assert check_four_point(R, rng).param("pattern") == key[0]
            seen.add(key)
    assert seen == {(pat, shape) for pat, shapes in FOUR_POINT_SHAPES.items()
                    for shape in shapes}


def test_pattern_4_labels_beyond_the_old_bound():
    # F_{q^4} exceeds 2^24 for q = 101 and 243: the oracle splits there,
    # and classify needs only F_{q^2} and an embedding
    rng = random.Random(13)
    for p, n in ((101, 1), (3, 5)):
        ctx = ff.field_create(p, n)
        assert ctx.q ** 4 > ff.DESK_SCALE_BOUND
        found = sampled_four_point_cubics(ctx, 3, rng, patterns=[(4,)])
        assert len(found[(4,), (False, False)]) == 3
        for R in found[(4,), (False, False)]:
            assert check_four_point(R, rng).param("lambda").ctx.q \
                == ctx.q ** 4


def test_family_orbit_equivalences_f7_f13():
    # all-rational four-point classes sit in the family; over F_7 the
    # valid parameters {3, 5} form one orbit of the cross-ratio action
    r3 = cl.family_Rc(F7.scalar(3))
    r5 = cl.family_Rc(F7.scalar(5))
    assert cl.four_point_invariants(r3) == cl.four_point_invariants(r5)
    pair = cl.are_equivalent(r3, r5)
    assert pair is not None and mb.act(pair, r3) == r5
    # over F_13 the parameters 3 and 5 share an orbit while 4 does not
    s3 = cl.family_Rc(F13.scalar(3))
    s4 = cl.family_Rc(F13.scalar(4))
    s5 = cl.family_Rc(F13.scalar(5))
    orbit3 = {v.key for v in mb.s_orbit(F13.scalar(3))}
    assert orbit3 == {3, 9, 11, 8, 6, 5}
    assert {v.key for v in mb.s_orbit(F13.scalar(4))} == {4, 10}
    assert cl.four_point_invariants(s3) != cl.four_point_invariants(s4)
    pair = cl.are_equivalent(s3, s5)
    assert pair is not None and mb.act(pair, s3) == s5
    assert cl.are_equivalent(s3, s4) is None


def test_all_rational_four_point_absent_over_f5():
    # every value of the family parameter degenerates over F_5, and no
    # four-point cubic there has four rational ramification points
    for c in F5:
        lam = None
        if c.key not in (0, 1):
            lam = cl.lambda_mu_of_c(c)[0]
        assert lam is None or lam is rx.INF or lam.key in (0, 1)
    rng = random.Random(1)
    for R in random_exprs(F5, 3, 40, rng):
        label = cl.classify(R)[0]
        if label.case == "FourPoint":
            assert label.param("pattern") != (1, 1, 1, 1)


def test_label_json_shapes():
    t = F4.from_key(2)
    label, w = cl.classify(rx.expr(
        F4, (t, F4.zero, F4.zero, F4.one), (0, 1)))
    out = cl.label_json(label, F4, w)
    assert out["case"] == "Cubic2_iv"
    assert out["params"] == {"k": 1}
    assert out["sigma"] == "t" and out["theta"] == "t"
    assert set(out["witness"]) == {"B", "A"}
    label = cl.four_point_invariants(cl.family_Rc(F7.scalar(3)))
    out = cl.label_json(label, F7)
    assert out["case"] == "FourPoint" and out["params"] == {}
    assert "witness" not in out
    assert out["invariants"]["lambda"] == "3"
    assert out["invariants"]["pattern"] == [1, 1, 1, 1]
    label, w = cl.classify(rx.expr(F5, (3, 0, 1)))
    out = cl.label_json(label, F5, w)
    assert out == {"case": "Quad_X2", "params": {}, "sigma": "2",
                   "witness": {"B": "x+2", "A": "x"}}


def test_cube_root_matches_scan():
    # 9 divides q - 1 for every field, where the root is the least of three
    for ctx in (ff.field_create(2, 6), ff.field_create(19),
                ff.field_create(2, 12)):
        least = {}
        for y in ctx:  # in code order, so the first root kept is the least
            least.setdefault((y ** 3).key, y)
        for k, y in least.items():
            assert cl._cube_root(ctx.from_key(k)) == y
        noncube = ff.canonical_theta(ctx)
        with pytest.raises(ValueError):
            cl._cube_root(noncube)
    # beyond the tables: seeded cubes, each root the least of three
    big = ff.field_create(2, 18)
    assert big.elements is None and (big.q - 1) % 9 == 0
    omega = ff.canonical_theta(big) ** ((big.q - 1) // 3)
    rng = random.Random(18)
    for _ in range(20):
        y = big.from_key(rng.randrange(1, big.q))
        v = y ** 3
        root = cl._cube_root(v)
        assert root ** 3 == v
        assert root == min((y, y * omega, y * omega * omega),
                           key=lambda z: z.key)


# (p, n), label, then R and the B and A of its witness, frozen: a change
# to the wild-point witnesses that moves any of them fails here
WILD_WITNESSES = [
    ((3, 3), "Cubic3_X3X", {},
     "((t^2+2)x^3+(2t^2+t+2)x^2+(t^2+t)x+2t^2+1)/(x^3+(t^2+t+2)x^2+(2t+1)x+"
     "t^2+1)",
     "((2t^2+t)x+2t+1)/(x+t^2+2t+2)",
     "2t^2/(x+t^2+2t+1)"),
    ((3, 3), "Cubic3_X3SigmaX", {},
     "((t^2+t)x^3+(t^2+t+1)x^2+tx+2t^2+1)/(x^3+2t^2+2t+1)",
     "(t^2+t+2)x+2t^2+2",
     "(t^2+2t)/(x+2t^2+2)"),
    ((2, 6), "Cubic2_iv", {"k": 0},
     "((t^5+t^4)x^3+(t^3+t^2+t)x^2+(t^5+t^4+t^3+t^2+t+1)x+t^5+t^4+"
     "t^2)/(x^3+(t^5+t^4)x^2+t^5x+t^5+t^2+1)",
     "((t^5+t^3+t^2+t)x+t^5+t^4+t^3)/(x+t^5+t^4+t^2+t+1)",
     "((t^5+t^4+t^3+t^2+1)x+t^4)/(x+t^5+t^4)"),
    ((2, 6), "Cubic2_iv", {"k": 1},
     "((t^4+t^3+t^2+t)x^3+(t^4+t^3+1)x^2+(t+1)x+t^3+t+1)/(x^3+(t^5+t^4+t^3+"
     "t^2)x^2+(t^5+t)x+t^5+t^4+t^3+t^2+t)",
     "((t^4+t^2+t+1)x+t^4)/(x+t^3+t^2+t+1)",
     "((t^5+t^3+t^2)x+t^4+t^2)/(x+t^3+t)"),
    ((2, 6), "Cubic2_iv", {"k": 2},
     "(t^3x^3+(t^5+t^2+1)x+t^5+t^4+t^3+t^2+1)/(x^3+(t^5+t+1)x+t^4+t^3+t^2+"
     "t+1)",
     "((t^4+t^3+t+1)x+t^5+t^4+t^3+t^2+t+1)/(x+t^3)",
     "(t^4+t^3+1)x"),
    ((2, 18), "Cubic2_iv", {"k": 1},
     "((t^15+t^14+t^11+t^9+t^6+t^3+t)x^3+(t^17+t^16+t^15+t^14+t^13+t^12+"
     "t^10+t^7+t^5+t^4+t^3)x^2+(t^17+t^16+t^14+t^4+t^3+t^2+t)x+t^17+t^15+"
     "t^13+t^12+t^11+t^10+t^9+t^8+t^3+t)/(x^3+(t^17+t^14+t^13+t^12+t^10+"
     "t^9+t^7+t^6+t^5+t^3+1)x^2+(t^17+t^14+t^13+t^9+t^3+t)x+t^16+t^15+t^13+"
     "t^12+t^11+t^10+t^9+t^8+t^7+t^6+t^5+t^4+t^3+t^2+t)",
     "((t^17+t^15+t^12+t^11+t^9+t^8+t^6+t^4+t+1)x+t^17+t^16+t^15+t^13+t^11+"
     "t^8+t^7+t^5+t^2+t)/(x+t^17+t^16+t^14+t^13+t^12+t^10+t^8+t^6+t^5+t^4+"
     "t^2+1)",
     "((t^17+t^15+t^14+t^10+t^6+t^5)x+t^17+t^16+t^13+t^12+t^7+t^6+t^5+t^4+"
     "t^3+t^2+t)/(x+t^15+t^14+t^13+t^11+t^9+t^7+t^6+t^5+t^4+t^2+t+1)"),
    ((2, 2), "Quad_SepChar2", {},
     "(tx^2+1)/(x+t+1)",
     "(t+1)x",
     "x+t+1"),
    ((2, 6), "Quad_SepChar2", {},
     "((t^5+t^4+t^3)x^2+(t^5+t^2+t+1)x+t^5+t^4+t^2)/(x^2+(t^5+t^3+t)x+t^5+"
     "t^4+t^3+t+1)",
     "((t^5+t+1)x+t^5)/(x+t^5+t^4+t^3)",
     "(t^5+t^4+t^3+t+1)x"),
    ((2, 20), "Quad_SepChar2", {},
     "((t^19+t^18+t^13+t^10+t^9+t^8+t^5+t^4+t^3+1)x^2+(t^17+t^14+t^13+t^12+"
     "t^10+t^8+t^5+t^4+t^3+t^2+1)x+t^19+t^18+t^13+t^12+t^11+t^8+t^7+t^3+"
     "t^2)/(x^2+(t^19+t^17+t^16+t^15+t^11+t^10+t^8+t^7+t^6+t^4+t^3)x+t^16+"
     "t^14+t^10+t^8+t^7+t^6+t^5+t^4+t^3+t^2)",
     "((t^18+t^17+t^16+t^14+t^13+t^11+t^10+t^5+t^4+t^2+t)x+t^19+t^14+t^9+"
     "t^8+t^4+t)/(x+t^19+t^18+t^13+t^10+t^9+t^8+t^5+t^4+t^3+1)",
     "(t^19+t^16+t^15+t^10+t^8+t^7+t^5+t^2+t+1)x+t^18+t^13+t^11+t^9+t^7+t^6+"
     "t^4+t^3+1"),
]



def test_wild_witnesses_frozen():
    # the single wild points of characteristics 3 and 2, the separable
    # characteristic-2 quadratic among them; over F_64 and F_{2^18} the
    # cube root is the least of three
    for (p, n), case, params, text, B, A in WILD_WITNESSES:
        ctx = ff.field_create(p, n)
        label, w = cl.classify(parse_expression(text, ctx))
        assert label == cl.ClassLabel(case, params)
        assert (str(w.B), str(w.A)) == (B, A)


def test_cubic2_iv_beyond_interned_fields():
    big = ff.field_create(2, 18)
    assert big.elements is None and (big.q - 1) % 9 == 0
    R = rx.expr(big, (1, 0, 0, 1), (0, 1))
    label, witness = cl.classify(R)
    assert label == cl.ClassLabel("Cubic2_iv", {"k": 0})
    assert witness.target == cl.canonical_rep(label, big)


def scan_mate(R, pt):
    """The fiber search the classifier used to run: the first point of
    P^1 over the field of pt, other than pt, where R takes pt's branch
    value."""
    top, lifted = R.ctx, R
    if pt.defining_degree > 1:
        top, em = ff.extend(R.ctx, pt.defining_degree)
        lifted = R.lift(em)
    return next(x for x in rx.proj_points(top)
                if rx.proj_key(lifted(x)) == rx.proj_key(pt.branch)
                and rx.proj_key(x) != rx.proj_key(pt.point))


def fiber_profile(R):
    """The ramification profile of a Cubic2_iv/v/vi cubic, else None."""
    if not rm.is_separable(R):
        return None
    prof = rm.ramification_profile(R)
    return prof if prof.indices in ((2,), (2, 2)) else None


def fiber_kind(prof):
    # the points of one Cubic2_iv/v/vi profile share their degree
    return prof.indices, prof.points[0].defining_degree


FIBER_KINDS = {((2,), 1), ((2, 2), 1), ((2, 2), 2)}


def sampled_fiber_cubics(ctx, quota, rng):
    """(R, profile) for seeded cubics, numerator and denominator of
    degree <= 3, quota of each Cubic2_iv/v/vi kind."""
    seen = dict.fromkeys(FIBER_KINDS, 0)
    while min(seen.values()) < quota:
        num, den = ([ctx.from_key(rng.randrange(ctx.q)) for _ in range(4)]
                    for _ in range(2))
        if all(c.key == 0 for c in den):
            continue
        R = rx.expr(ctx, num, den)
        prof = fiber_profile(R) if R.degree == 3 else None
        if prof and seen[fiber_kind(prof)] < quota:
            seen[fiber_kind(prof)] += 1
            yield R, prof


def test_fiber_mate_matches_scan_oracle():
    # every index-2 point of every Cubic2_iv/v/vi cubic over F_2 and
    # F_4, and of seeded samples of each kind over F_8, F_16 and F_64
    rng = random.Random(4)
    cases = [(R, fiber_profile(R)) for ctx in (F2, F4)
             for R in rx.enumerate_expressions(ctx, 3)]
    for ctx, quota in ((F8, 40), (F16, 20), (F64, 8)):
        cases += sampled_fiber_cubics(ctx, quota, rng)
    kinds = {}
    at_infinity = 0
    for R, prof in cases:
        if prof is None:
            continue
        kinds.setdefault(R.ctx.q, set()).add(fiber_kind(prof))
        for pt in prof.points:
            mate = cl._fiber_mate(R, pt)
            assert rx.proj_key(mate) == rx.proj_key(scan_mate(R, pt))
            at_infinity += mate is rx.INF
    # F_2 has only Cubic2_iv; every larger field meets all three kinds
    assert kinds == {2: {((2,), 1)}, 4: FIBER_KINDS, 8: FIBER_KINDS,
                     16: FIBER_KINDS, 64: FIBER_KINDS}
    assert at_infinity


def test_fiber_witnesses_in_large_fields():
    # Cubic2_vi needs F_{q^2}, which for F_{2^18} lies beyond the
    # desk-scale bound; iv and v still classify there
    rng = random.Random(18)
    for n in (8, 10, 18):
        ctx = ff.field_create(2, n)
        c = ctx.from_key(rng.randrange(2, ctx.q))
        labels = [cl.ClassLabel("Cubic2_iv", {"k": k}) for k in (0, 1, 2)]
        labels.append(cl.ClassLabel("Cubic2_v", {"c": c}))
        if n < 18:
            labels.append(cl.ClassLabel("Cubic2_vi", {"b": c}))
        for label in labels:
            T = cl.canonical_rep(label, ctx)
            R = mb.act(random_pair(ctx, rng), T)
            got, w = cl.classify(R)
            assert got == label and w.target == T
            moved = mb.act(random_pair(ctx, rng), R)
            assert cl.classify(moved)[0] == label


def test_align_raises_when_no_candidate_completes():
    # x^2 and the twisted two-point form are inequivalent over F_5, so
    # no alignment can be completed by a B
    R = rx.expr(F5, (0, 0, 1))
    T = cl.canonical_rep(cl.ClassLabel("Quad_TwoPointTwist"), F5)
    src = (rx.INF, F5.zero, F5.one)
    with pytest.raises(AssertionError, match="no alignment"):
        cl._align(R, T, [(src, (rx.INF, F5.zero, F5.one))])
    assert cl._align(R, R, [(src, src)]) == mb.pair_identity(F5)


def sampled_sep_quadratics(ctx, count, rng):
    """Seeded separable quadratics over a characteristic-2 field."""
    while count:
        num, den = ([ctx.from_key(rng.randrange(ctx.q)) for _ in range(3)]
                    for _ in range(2))
        if all(c.key == 0 for c in den):
            continue
        R = rx.expr(ctx, num, den)
        if R.degree == 2 and rm.is_separable(R):
            count -= 1
            yield R


def test_quad_sep_char2_beyond_a_fiber_table():
    # no field-sized loop is left on this path: from F_8 up to the
    # desk-scale bound a quadratic classifies in tens of milliseconds
    rng = random.Random(24)
    label = cl.ClassLabel("Quad_SepChar2")
    for n in (3, 4, 6, 14, 16, 20, 24):
        ctx = ff.field_create(2, n)
        T = cl.canonical_rep(label, ctx)
        for R in sampled_sep_quadratics(ctx, 3, rng):
            got, w = cl.classify(R)
            assert got == label and w.target == T
            moved = mb.act(random_pair(ctx, rng), R)
            assert cl.classify(moved)[0] == label


def hand_triples(label, ctx):
    """The canonical form's distinguished points as the per-class witness
    helpers once wrote them down by hand: the oracle for
    _canonical_triple."""
    case = label.case
    zero, one = ctx.zero, ctx.one
    if case in ("Quad_X2", "Cubic_X3", "Cubic2_i"):
        return (rx.INF, zero, one)
    if case in ("Cubic3_X3X2", "Cubic2_iii"):
        return (rx.INF, zero, -one)
    if case == "Cubic_Dickson":
        return (rx.INF, one, -one)
    if case == "Cubic2_v":
        return (rx.INF, label.param("c"), one)
    em = ff.extend(ctx, 2)[1]
    tau = ff.canonical_tau(ctx)
    tauc = ff.frobenius(tau, ctx.n)
    if case == "Cubic_DicksonTwist":
        return (tau, -tau, rx.INF)
    if case == "Cubic2_vi":
        return (tau, tau + em(label.param("b")), tauc)
    return (tau, tauc, rx.INF)


# the classes whose witness aligns distinguished points
ALIGNED = ("Quad_X2", "Quad_TwoPointTwist", "Cubic_X3",
           "Cubic_TwoPointTwist", "Cubic_Dickson", "Cubic_DicksonTwist",
           "Cubic3_X3X2", "Cubic2_i", "Cubic2_ii", "Cubic2_iii", "Cubic2_v",
           "Cubic2_vi")


def hand_witness(R):
    """(label, pair) as the per-class helpers built them: hand_triples
    for the form, the input's points listed per class, the char-2
    double-point parameter from its own cross-ratio, and the mate of a
    conjugate point by Frobenius.  None outside ALIGNED."""
    ctx, p = R.ctx, R.ctx.p
    if p == R.degree and not rm.is_separable(R):
        return None
    prof = rm.ramification_profile(R)
    idx, pts = prof.indices, prof.points
    conj = pts[-1].defining_degree > 1
    em = ff.extend(ctx, 2)[1] if conj else None
    at = lambda i: [pt.point for pt in pts if pt.index == i]
    if idx == (2, 3):
        case = "Cubic3_X3X2" if p == 3 else "Cubic2_iii"
        p2 = next(pt for pt in pts if pt.index == 2)
        dsts = [(at(3)[0], p2.point, cl._fiber_mate(R, p2))]
        label = cl.ClassLabel(case)
    elif idx == (2, 2, 3):
        (p3,), (t1, t2) = at(3), at(2)
        if conj:
            label = cl.ClassLabel("Cubic_DicksonTwist")
            p3 = cl._embed_point(p3, em)
            dsts = [(t1, t2, p3), (t2, t1, p3)]
        else:
            label = cl.ClassLabel("Cubic_Dickson")
            dsts = [(p3, t1, t2), (p3, t2, t1)]
    elif R.degree == 3 and p == 2 and idx == (2, 2):
        a, b = (pt.point for pt in pts)
        ma = cl._fiber_mate(R, pts[0])
        mb2 = ff.frobenius(ma, ctx.n) if conj else cl._fiber_mate(R, pts[1])
        rho = mb.cross_ratio(a, ma, b, mb2)
        if conj:
            label = cl.ClassLabel(
                "Cubic2_vi", {"b": ctx.one + ff.sqrt(ctx.one / em.preimage(rho))})
        else:
            label = cl.ClassLabel("Cubic2_v", {"c": rho / (ctx.one + rho)})
        dsts = [(a, ma, b), (b, mb2, a)]
    elif idx in ((2, 2), (3, 3)):
        names = {2: ("Quad_X2", "Quad_TwoPointTwist"),
                 3: ("Cubic2_i", "Cubic2_ii") if p == 2
                 else ("Cubic_X3", "Cubic_TwoPointTwist")}[R.degree]
        label = cl.ClassLabel(names[conj])
        s, t = (pt.point for pt in pts)
        w = rx.INF if conj else cl._first_points(ctx, (s, t), 1)[0]
        dsts = [(s, t, w), (t, s, w)]
    else:
        return None
    src = hand_triples(label, ctx)
    T = cl.canonical_rep(label, ctx)
    return label, cl._align(R, T, [(src, dst) for dst in dsts], em)


def aligned_labels(ctx, params):
    """Every label of ALIGNED that fits ctx, with up to params values of
    the Cubic2_v and Cubic2_vi parameters."""
    out = []
    for case in ALIGNED:
        if case in ("Cubic2_v", "Cubic2_vi"):
            name = "c" if case == "Cubic2_v" else "b"
            keys = sorted({2, ctx.q // 2, ctx.q - 1})[:params]
            out += [cl.ClassLabel(case, {name: ctx.from_key(k)})
                    for k in keys if 2 <= k < ctx.q]
        else:
            out.append(cl.ClassLabel(case))
    good = []
    for label in out:
        try:
            cl.canonical_rep(label, ctx)
        except ValueError:
            continue
        good.append(label)
    return good


def test_canonical_triples_match_hand_triples():
    fields = [ff.field_create(p, n) for p in (2, 3, 5, 7, 11, 13)
              for n in range(1, 9) if p ** n <= 256]
    fields += [ff.field_create(p) for p in (17, 19, 23, 29, 31, 37, 41, 43,
                                            47, 53, 59, 61, 67, 71, 73, 79,
                                            83, 89, 97, 101, 251)]
    seen = set()
    for ctx in fields:
        for label in aligned_labels(ctx, 3):
            want = hand_triples(label, ctx)
            if label.case == "Cubic_Dickson":
                # the helper listed the index-3 point first and the
                # input's points in the same rotation: the same maps
                want = want[1:] + want[:1]
            got = cl._canonical_triple(label, ctx)
            assert [rx.proj_key(P) for P in got] == \
                [rx.proj_key(P) for P in want], (label, ctx.name)
            assert {P.ctx.q for P in got if P is not rx.INF} == \
                {P.ctx.q for P in want if P is not rx.INF}
            seen.add(label.case)
    assert seen == set(ALIGNED)


def check_against_hand(R):
    label, w = cl.classify(R)
    old = hand_witness(R)
    assert (old is None) == (label.case not in ALIGNED), str(R)
    if old is not None:
        assert old[0] == label and old[1] == w.pair, (R.ctx.name, str(R))
    return label.case


def test_witnesses_match_hand_helpers_exhaustively():
    seen = set()
    for ctx in (F2, F3, F4):
        for degree in (2, 3):
            for R in rx.enumerate_expressions(ctx, degree):
                seen.add(check_against_hand(R))
    assert {"Quad_X2", "Quad_TwoPointTwist", "Cubic3_X3X2", "Cubic2_i",
            "Cubic2_ii", "Cubic2_iii", "Cubic2_v", "Cubic2_vi"} <= seen


def test_witnesses_match_hand_helpers_on_images():
    rng = random.Random(5)
    seen = set()
    for p, n in ((5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
                 (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4), (101, 1)):
        ctx = ff.field_create(p, n)
        for label in aligned_labels(ctx, 2):
            T = cl.canonical_rep(label, ctx)
            for _ in range(3):
                R = mb.act(random_pair(ctx, rng), T)
                assert check_against_hand(R) == label.case
                seen.add(label.case)
    assert seen == set(ALIGNED)
