import itertools
import random

import pytest

import ratclass.ffield as ff
import ratclass.poly as pp
import ratclass.ramify as rm
import ratclass.ratexpr as rx

F2 = ff.field_create(2)
F3 = ff.field_create(3)
F4 = ff.field_create(2, 2)
F5 = ff.field_create(5)
F7 = ff.field_create(7)


def oracle_index(R, P):
    # multiplicity of P inside the fiber over R(P), no coordinate moves
    ctx = R.ctx
    Q = R(P)
    if P is rx.INF:
        if Q is rx.INF:
            return R.num.degree - R.den.degree
        fib = R.num - Q * R.den
        drop = 0 if fib.is_zero else fib.degree
        return R.degree - drop
    fib = R.den if Q is rx.INF else R.num - Q * R.den
    lin = pp.Poly(ctx, (-P, ctx.one))
    m = 0
    while not fib.is_zero and fib(P).key == 0:
        fib = pp.divmod_poly(fib, lin)[0]
        m += 1
    return m


def taylor_shift(coeffs, P):
    # coefficients of g(x + P), by Horner's rule in x + P
    out = []
    for c in reversed(coeffs):
        out = [c] + out
        for i in range(len(out) - 1):
            out[i] = out[i] + P * out[i + 1]
    return out


def compose_index(R, P):
    # move P to 0 on the source: x -> x + P by a Taylor shift of num and
    # den, or x -> 1/x by reversing both at the common degree (neither
    # move can give them a common factor, so no gcd is taken); then the
    # index is the vanishing order at 0 of num - R(P) den, or of den
    # when R(P) is infinite
    zero = R.ctx.zero
    num, den = list(R.num.coeffs), list(R.den.coeffs)
    if P is rx.INF:
        num = (num + [zero] * (R.degree + 1 - len(num)))[::-1]
        den = (den + [zero] * (R.degree + 1 - len(den)))[::-1]
    else:
        num, den = taylor_shift(num, P), taylor_shift(den, P)
    if den[0].key:
        Q = num[0] / den[0]
        fib = [a - Q * b
               for a, b in itertools.zip_longest(num, den, fillvalue=zero)]
    else:
        fib = den
    return next(i for i, c in enumerate(fib) if c.key)


def oracle_profile(R, max_degree=4):
    # scan every point of exact degree d for d = 1 .. max_degree
    ctx = R.ctx
    found = []
    for d in range(1, max_degree + 1):
        if d == 1:
            lifted = R
            pts = rx.proj_points(ctx)
        else:
            top, emb = ff.extend(ctx, d)
            lifted = R.lift(emb)
            pts = (a for a in top if ff.degree_over(a, ctx) == d)
        for P in pts:
            e = oracle_index(lifted, P)
            if e >= 2:
                Q = lifted(P)
                found.append((d, rx.proj_key(P), e, rx.proj_key(Q)))
    return sorted(found)


def profile_tuples(prof):
    return sorted((p.defining_degree, rx.proj_key(p.point), p.index,
                   rx.proj_key(p.branch)) for p in prof.points)


def point_map(prof):
    return {rx.proj_str(p.point): (p.index, rx.proj_str(p.branch))
            for p in prof.points}


def test_separability():
    assert rm.is_separable(rx.expr(F5, (0, 0, 0, 1)))
    assert not rm.is_separable(rx.expr(F3, (0, 0, 0, 1)))
    assert not rm.is_separable(rx.expr(F2, (0, 0, 1)))
    assert rm.is_separable(rx.expr(F2, (0, 1, 1)))
    assert not rm.is_separable(rx.expr(F4, (1, 0, 1), (0, 0, 1)))
    with pytest.raises(ValueError):
        rm.is_separable(rx.expr(F5, (3,)))


def test_cube_map_profile():
    prof = rm.ramification_profile(rx.expr(F5, (0, 0, 0, 1)))
    assert prof.separable
    assert prof.indices == (3, 3)
    assert point_map(prof) == {"inf": (3, "inf"), "0": (3, "0")}
    assert rm.hurwitz_check(rx.expr(F5, (0, 0, 0, 1))) == "holds_with_equality"


def test_three_finite_points_profile():
    R = rx.expr(F7, (0, -3, 0, 1))
    prof = rm.ramification_profile(R)
    assert prof.indices == (2, 2, 3)
    assert point_map(prof) == {
        "inf": (3, "inf"), "1": (2, "5"), "6": (2, "2")}
    assert rm.hurwitz_check(R) == "holds_with_equality"
    # sorted: infinity leads the rational block
    assert prof.points[0].point is rx.INF


def test_four_point_cubic_profile():
    R = rx.expr(F7, (0, 0, 1, 1), (4, 5))
    prof = rm.ramification_profile(R)
    assert prof.indices == (2, 2, 2, 2)
    assert point_map(prof) == {
        "inf": (2, "inf"), "0": (2, "0"), "1": (2, "1"), "5": (2, "3")}
    assert rm.hurwitz_check(R) == "holds_with_equality"


def test_wild_single_point_profiles():
    R = rx.expr(F3, (0, 1, 0, 1))
    assert rm.wronskian(R).degree == 0
    prof = rm.ramification_profile(R)
    assert prof.indices == (3,)
    assert point_map(prof) == {"inf": (3, "inf")}
    assert rm.hurwitz_check(R) == "holds_strict"

    R = rx.expr(F2, (1, 0, 0, 1), (0, 1))
    prof = rm.ramification_profile(R)
    assert prof.indices == (2,)
    assert point_map(prof) == {"inf": (2, "inf")}
    assert rm.hurwitz_check(R) == "holds_strict"


def test_conjugate_pair_quadratic():
    sigma = ff.canonical_sigma(F5)
    R = rx.expr(F5, (sigma, 0, 1), (0, 2))
    prof = rm.ramification_profile(R)
    assert prof.indices == (2, 2)
    assert [p.defining_degree for p in prof.points] == [2, 2]
    # the two branch points are the ramification points themselves
    for p in prof.points:
        assert p.branch == p.point
        assert p.point * p.point == p.point.ctx.scalar(2)
    assert rm.hurwitz_check(R) == "holds_with_equality"


def test_rational_quadratic_and_wild_quadratic():
    prof = rm.ramification_profile(rx.expr(F5, (0, 0, 1)))
    assert prof.indices == (2, 2)
    assert point_map(prof) == {"inf": (2, "inf"), "0": (2, "0")}

    prof = rm.ramification_profile(rx.expr(F2, (0, 1, 1)))
    assert prof.indices == (2,)
    assert point_map(prof) == {"inf": (2, "inf")}


def test_inseparable_profile_and_guards():
    prof = rm.ramification_profile(rx.expr(F2, (0, 0, 1)))
    assert not prof.separable
    assert prof.points == () and prof.indices == ()
    with pytest.raises(ValueError):
        rm.hurwitz_check(rx.expr(F2, (0, 0, 1)))
    with pytest.raises(ValueError):
        rm.ramification_profile(rx.expr(F5, (0, 1)))
    with pytest.raises(ValueError):
        rm.ramification_profile(rx.expr(F5, (0, 1, 1, 0, 1)))


def test_index_matches_fiber_multiplicity():
    rng = random.Random(0)
    cases = []
    for R in rx.enumerate_expressions(F3, 2):
        cases.append(R)
    pool = list(rx.enumerate_expressions(F5, 3))
    cases.extend(rng.sample(pool, 60))
    for R in cases:
        for P in rx.proj_points(R.ctx):
            assert rm.ram_index(R, P) == oracle_index(R, P)


def test_ram_index_matches_compose_oracle():
    # every point of P^1(F_q) and every Wronskian root, for all
    # quadratics and cubics over F_2, F_3 and F_4
    for ctx in (F2, F3, F4):
        for degree in (2, 3):
            for R in rx.enumerate_expressions(ctx, degree):
                for P in rx.proj_points(ctx):
                    assert rm.ram_index(R, P) == compose_index(R, P)
                lifts = {}
                for pt in rm.ramification_profile(R).points:
                    d = pt.defining_degree
                    if d not in lifts:
                        lifts[d] = R.lift(ff.extend(ctx, d)[1])
                    e = compose_index(lifts[d], pt.point)
                    assert rm.ram_index(lifts[d], pt.point) == e == pt.index


def test_profile_matches_scan_oracle():
    for R in rx.enumerate_expressions(F2, 3):
        prof = rm.ramification_profile(R)
        if prof.separable:
            assert profile_tuples(prof) == oracle_profile(R)
    rng = random.Random(0)
    pool = list(rx.enumerate_expressions(F3, 3))
    for R in rng.sample(pool, 80):
        prof = rm.ramification_profile(R)
        if prof.separable:
            assert profile_tuples(prof) == oracle_profile(R)


def test_inequality_never_violated_and_patterns():
    small = {(2,), (2, 2), (3,), (2, 3), (3, 3), (2, 2, 3), (2, 2, 2, 2)}
    seen_ext = set()
    for ctx in (F2, F3):
        for r in (2, 3):
            for R in rx.enumerate_expressions(ctx, r):
                if not rm.is_separable(R):
                    continue
                assert rm.hurwitz_check(R) != "violated"
                prof = rm.ramification_profile(R)
                assert prof.indices in small
                seen_ext.update(p.defining_degree for p in prof.points)
    assert {1, 2, 3}.issubset(seen_ext)
    rng = random.Random(0)
    pool = list(rx.enumerate_expressions(F5, 3))
    tame = {(3, 3), (2, 2, 3), (2, 2, 2, 2)}
    for R in rng.sample(pool, 200):
        assert rm.hurwitz_check(R) in ("holds_with_equality", "holds_strict")
        prof = rm.ramification_profile(R)
        assert prof.indices in tame
        assert rm.hurwitz_check(R) == "holds_with_equality"


def test_profiles_are_frobenius_stable():
    rng = random.Random(0)
    pool = [R for R in rx.enumerate_expressions(F4, 3)]
    for R in rng.sample(pool, 40):
        if not rm.is_separable(R):
            continue
        prof = rm.ramification_profile(R)
        shape = set(profile_tuples(prof))
        for p in prof.points:
            if p.point is rx.INF:
                continue
            fr = p.point ** F4.q
            br = p.branch if p.branch is rx.INF else p.branch ** F4.q
            assert (p.defining_degree, rx.proj_key(fr), p.index,
                    rx.proj_key(br)) in shape


def random_expr(ctx, degree, rng):
    while True:
        num = [ctx.from_key(rng.randrange(ctx.q)) for _ in range(degree + 1)]
        den = [ctx.from_key(rng.randrange(ctx.q)) for _ in range(degree + 1)]
        if not any(c.key for c in den):
            continue
        R = rx.expr(ctx, num, den)
        if R.degree == degree:
            return R


def wronskian_shape(R):
    # how W factors over F_q: irreducible factor degrees, or the
    # repeated-factor and ramified-at-infinity cases
    W = rm.wronskian(R)
    if W.degree < 2 * R.degree - 2:
        return "inf"
    if pp.radical(W).degree < W.degree:
        return "repeated"
    return "+".join(str(d) for d, c in pp.factor_degree_pattern(W)
                    for _ in range(c))


CUBIC_SHAPES = ("1+1+1+1", "1+3", "2+2", "4", "1+1+2", "repeated", "inf")


def test_tame_profile_matches_oracle_on_f5_quadratics():
    # p > deg R: indices come from the Wronskian's factor multiplicities
    checked = 0
    for R in rx.enumerate_expressions(F5, 2):
        prof = rm.ramification_profile(R)
        assert prof.separable
        # the points of a quadratic are roots of W, of degree <= 2
        assert profile_tuples(prof) == oracle_profile(R, max_degree=2)
        checked += 1
    assert checked == 3000


def test_tame_profile_matches_oracle_on_every_cubic_shape():
    # no F_5 cubic has a 1+1+1+1 or 2+2 Wronskian, so F_7 completes
    # the set; up to three cubics of each shape per field
    rng = random.Random(0)
    picked = {}
    for ctx in (F5, F7):
        for _ in range(4000):
            R = random_expr(ctx, 3, rng)
            bucket = picked.setdefault((ctx.q, wronskian_shape(R)), [])
            if len(bucket) < 3:
                bucket.append(R)
    assert {shape for _, shape in picked} == set(CUBIC_SHAPES)
    for bucket in picked.values():
        for R in bucket:
            prof = rm.ramification_profile(R)
            assert profile_tuples(prof) == oracle_profile(R), str(R)


def test_hurwitz_check_refuses_a_wrong_index(monkeypatch):
    R = rx.expr(F7, (0, -3, 0, 1))
    prof = rm.ramification_profile(R)
    forged = [rm.RamPoint(p.point, p.index + (p.point is rx.INF),
                          p.branch, p.defining_degree) for p in prof.points]
    monkeypatch.setattr(rm, "ramification_profile",
                        lambda S: rm.RamProfile(True, forged))
    with pytest.raises(AssertionError):
        rm.hurwitz_check(R)
