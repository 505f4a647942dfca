import importlib
import itertools
import random

import pytest

from ratclass import ffield as ff
from ratclass import moebius as mb
from ratclass import orbits as ob
from ratclass import ratexpr as rx
from ratclass.ratexpr import INF

# the package exports the classify function under the module's name,
# so bind the module itself explicitly
cl = importlib.import_module("ratclass.classify")


def compose_chain(*exprs):
    """exprs[0](exprs[1](...)) composed left to right, each step
    expanded as sum_i f_i S_num^i S_den^(r-i) and normalized by
    RatExpr with a gcd: the oracle for act, post and precompose, which
    keep normal forms without one."""
    out = exprs[0]
    for S in exprs[1:]:
        if S.degree == 0:
            raise ValueError("composition with a constant expression")
        r = out.degree
        npow = [rx.Poly(S.ctx, (1,))]
        dpow = [rx.Poly(S.ctx, (1,))]
        for _ in range(r):
            npow.append(npow[-1] * S.num)
            dpow.append(dpow[-1] * S.den)
        num = den = rx.Poly(S.ctx, ())
        for i in range(r + 1):
            basis = npow[i] * dpow[r - i]
            num = num + out.num.coeff(i) * basis
            den = den + out.den.coeff(i) * basis
        out = rx.RatExpr(num, den)
    return out


def test_compose_chain_frozen_cases():
    F5 = ff.field_create(5)
    sq = rx.expr(F5, (0, 0, 1))
    assert compose_chain(sq, rx.expr(F5, (1, 1))) == rx.expr(F5, (1, 2, 1))
    cube = rx.expr(F5, (0, 0, 0, 1))
    inv = rx.expr(F5, (1,), (0, 1))
    assert compose_chain(cube, inv) == rx.expr(F5, (1,), (0, 0, 0, 1))
    F3 = ff.field_create(3)
    r = rx.expr(F3, (1, 0, 1), (0, 1))  # (x^2+1)/x
    s = rx.expr(F3, (1, 1), (0, 1))  # (x+1)/x
    out = compose_chain(r, s)
    assert out == rx.expr(F3, (1, 2, 2), (0, 1, 1))
    assert str(out) == "(2x^2+2x+1)/(x^2+x)"
    assert out.degree == r.degree * s.degree
    with pytest.raises(ValueError):
        compose_chain(r, rx.expr(F3, (2,)))


def test_compose_chain_degree_multiplicative():
    rng = random.Random(0)
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
        ctx = ff.field_create(p, n)
        pool2 = list(rx.enumerate_expressions(ctx, 2))
        pool1 = list(rx.enumerate_expressions(ctx, 1))
        for _ in range(25):
            r = rng.choice(pool2)
            s = rng.choice(pool1 if rng.randrange(2) else pool2)
            assert compose_chain(r, s).degree == r.degree * s.degree


def test_normalization_and_group_laws():
    F5 = ff.field_create(5)
    M = mb.Moebius(F5, 2, 4, 0, 2)
    # scalar multiples are the same projective element
    assert M == mb.Moebius(F5, 1, 2, 0, 1)
    assert M.key == (1, 2, 0, 1)
    with pytest.raises(ValueError):
        mb.Moebius(F5, 1, 2, 2, 4)  # determinant 0
    ident = mb.identity(F5)
    rng = random.Random(0)
    group = mb.enumerate_pgl2(F5)
    pool = list(rx.enumerate_expressions(F5, 2))
    for _ in range(50):
        M = rng.choice(group)
        N = rng.choice(group)
        assert M.compose(M.inverse()) == ident
        # composition matches composition of the induced expressions
        left = M.compose(N).as_ratexpr()
        assert left == compose_chain(M.as_ratexpr(), N.as_ratexpr())
        # post, precompose and act skip the gcd but must still land on
        # the normal form (monic denominator) that the oracle computes
        R = rng.choice(pool)
        m, n = M.as_ratexpr(), N.as_ratexpr()
        for got, want in (
                (mb.post(M, R), compose_chain(m, R)),
                (mb.precompose(R, N), compose_chain(R, n)),
                (mb.act(mb.PairAction(M, N), R),
                 compose_chain(m, R, N.inverse().as_ratexpr()))):
            assert got == want and got.den.coeffs[-1] == F5.one
    # (x+1) composed with (2x) is 2x+1
    shift = mb.Moebius(F5, 1, 1, 0, 1)
    double = mb.Moebius(F5, 2, 0, 0, 1)
    assert shift.compose(double) == mb.Moebius(F5, 2, 1, 0, 1)


def test_act_point():
    F5 = ff.field_create(5)
    inv = mb.Moebius(F5, 0, 1, 1, 0)  # 1/x
    assert inv(F5.zero) is INF
    assert inv(INF) == F5.zero
    assert inv(F5.scalar(2)) == F5.scalar(3)
    aff = mb.Moebius(F5, 2, 3, 0, 1)
    assert aff(INF) is INF
    assert aff(F5.one) == F5.zero
    # the explicit point action (aP+b)/(cP+d), with a / c at infinity,
    # as the oracle for RatExpr's projective evaluation
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
        ctx = ff.field_create(p, n)
        for M in mb.enumerate_pgl2(ctx):
            for P in rx.proj_points(ctx):
                if P is INF:
                    want = INF if M.c.key == 0 else M.a / M.c
                else:
                    dv = M.c * P + M.d
                    want = (M.a * P + M.b) / dv if dv.key else INF
                assert rx.proj_key(M(P)) == rx.proj_key(want), (M, P)


def test_three_point_map_frozen():
    F5 = ff.field_create(5)
    pts = lambda *ks: [INF if k is None else F5.scalar(k) for k in ks]
    a, b, c = pts(None, 0, 1)
    assert mb.three_point_map(a, b, c) == mb.identity(F5)
    two, zero, one = pts(2, 0, 1)
    M = mb.three_point_map(two, zero, one)
    assert M == mb.Moebius(F5, 3, 0, 4, 4)
    assert M(INF) == two and M(zero) == zero and M(one) == one
    # (inf, 1, 0) -> 1 - x
    M = mb.three_point_map(INF, F5.one, F5.zero)
    assert M == mb.Moebius(F5, -1, 1, 0, 1)
    with pytest.raises(ValueError):
        mb.three_point_map(two, two, one)
    with pytest.raises(ValueError):
        mb.three_point_map(INF, INF, one)


def test_three_point_map_exhaustive_small():
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
        ctx = ff.field_create(p, n)
        pts = list(rx.proj_points(ctx))
        for a in pts:
            for b in pts:
                for c in pts:
                    if len({rx.proj_key(P) for P in (a, b, c)}) < 3:
                        continue
                    M = mb.three_point_map(a, b, c)
                    got = (M(INF), M(ctx.zero), M(ctx.one))
                    assert [rx.proj_key(P) for P in got] == \
                        [rx.proj_key(P) for P in (a, b, c)]


def test_map_triple():
    F7 = ff.field_create(7)
    src = (F7.scalar(2), F7.scalar(5), INF)
    dst = (F7.zero, INF, F7.one)
    M = mb.map_triple(src, dst)
    for u, v in zip(src, dst):
        got = M(u)
        assert (got is INF) == (v is INF) and (got is INF or got == v)


def test_pair_action_axioms():
    rng = random.Random(0)
    for p in (3, 5):
        ctx = ff.field_create(p)
        group = mb.enumerate_pgl2(ctx)
        exprs = list(rx.enumerate_expressions(ctx, 2))
        ident = mb.pair_identity(ctx)
        for _ in range(30):
            R = rng.choice(exprs)
            assert mb.act(ident, R) == R
            p1 = mb.PairAction(rng.choice(group), rng.choice(group))
            p2 = mb.PairAction(rng.choice(group), rng.choice(group))
            assert mb.act(p2, mb.act(p1, R)) == mb.act(p2.compose(p1), R)
            assert mb.act(p1, R).degree == R.degree


def test_pair_action_against_compose_chain():
    F7 = ff.field_create(7)
    B = mb.Moebius(F7, -4, 2, 0, 1)  # -4x + 2
    A = mb.Moebius(F7, 2, -1, 0, 1)  # 2x - 1
    # A^{-1} is (x+1)/2
    assert A.inverse().as_ratexpr() == rx.expr(F7, (4, 4))
    R = rx.expr(F7, (0, 1, 0, 1))  # x^3 + x
    chain = compose_chain(B.as_ratexpr(), R, A.inverse().as_ratexpr())
    assert mb.act(mb.PairAction(B, A), R) == chain
    with pytest.raises(ValueError):
        mb.act(mb.pair_identity(F7), rx.expr(F7, (3,)))


def _random_moebius(rng, ctx):
    while True:
        try:
            return mb.Moebius(ctx, *(ctx.from_key(rng.randrange(ctx.q))
                                     for _ in range(4)))
        except ValueError:
            pass


def _random_expr(rng, ctx, degree):
    while True:
        num, den = ([ctx.from_key(rng.randrange(ctx.q))
                     for _ in range(degree + 1)] for _ in range(2))
        if any(c.key for c in den):
            R = rx.RatExpr(rx.Poly(ctx, num), rx.Poly(ctx, den))
            if R.degree == degree:
                return R


def test_act_matches_gcd_normalizing_chain():
    # act, post and precompose skip the gcd; compose_chain normalizes
    # with one after every step
    rng = random.Random(3)
    fields = [ff.field_create(p, n)
              for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))]
    big = ff.field_create(2, 14)
    assert big.elements is None
    for ctx in fields + [big]:
        for degree in (1, 2, 3):
            for _ in range(40 if ctx is not big else 8):
                R = _random_expr(rng, ctx, degree)
                B = _random_moebius(rng, ctx)
                A = _random_moebius(rng, ctx)
                chain = compose_chain(B.as_ratexpr(), R,
                                      A.inverse().as_ratexpr())
                got = mb.act(mb.PairAction(B, A), R)
                assert got.key == chain.key, (ctx.name, str(R), B, A)
                assert mb.post(B, R).key == compose_chain(B.as_ratexpr(),
                                                          R).key
                assert mb.precompose(R, A).key \
                    == compose_chain(R, A.as_ratexpr()).key


def fel_substitute(R, a, b, c, d):
    """R((ax+b)/(cx+d)) homogenized at weight deg R, as two coefficient
    lists of elements: the pair action's substitution as it ran on Fel
    objects, the reference for the code kernel."""
    ctx = R.ctx
    r = R.degree
    zero = ctx.zero
    npow = [[ctx.one]]
    dpow = [[ctx.one]]
    for _ in range(r):
        npow.append(fel_product(npow[-1], (b, a), zero))
        dpow.append(fel_product(dpow[-1], (d, c), zero))
    num = [zero] * (r + 1)
    den = [zero] * (r + 1)
    for i in range(r + 1):
        fn = R.num.coeff(i)
        fd = R.den.coeff(i)
        basis = fel_product(npow[i], dpow[r - i], zero)
        for k, e in enumerate(basis):
            num[k] = num[k] + fn * e
            den[k] = den[k] + fd * e
    return num, den


def fel_product(f, g, zero):
    out = [zero] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + fi * gj
    return out


def fel_fold(B, num, den):
    """B applied to the pair (num, den), denominator made monic."""
    zero = B.ctx.zero
    width = max(len(num), len(den))
    num = list(num) + [zero] * (width - len(num))
    den = list(den) + [zero] * (width - len(den))
    return fel_monic(B.ctx, [B.a * u + B.b * v for u, v in zip(num, den)],
                     [B.c * u + B.d * v for u, v in zip(num, den)])


def fel_monic(ctx, num, den):
    num = rx.Poly(ctx, num)
    den = rx.Poly(ctx, den)
    inv = den.coeffs[-1].inverse()
    return rx._normalized(num * inv, den * inv)


def fel_cramer(S, T):
    """The coordinates (a, b, c, d) of T's numerator and denominator in
    the pencil of S's, as elements, or None when T's lie outside it:
    Cramer's rule on the first independent pair of coefficient
    positions, checked at every position, all on Fel objects.  The
    reference for moebius._solve_post_key."""
    r = S.degree
    sn, sd, tn, td = ([f.coeff(k) for k in range(r + 1)]
                      for f in (S.num, S.den, T.num, T.den))
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
    return a, b, c, d


def fel_solve_post(S, T):
    """solve_post on Fel objects: B from fel_cramer, kept when its fold
    of S is T."""
    if S.degree < 1 or T.degree != S.degree:
        return None
    coords = fel_cramer(S, T)
    if coords is None:
        return None
    B = mb.Moebius(S.ctx, *coords)
    return B if fel_fold(B, S.num.coeffs, S.den.coeffs).key == T.key \
        else None


def fel_pair_scan(R, T):
    """pair_scan on Fel objects, the oracle for the scan on codes: each
    A of enumerate_pgl2 in turn, R(A^{-1}(x)) substituted and made
    monic on elements, and B read off by fel_solve_post."""
    for A in mb.enumerate_pgl2(R.ctx):
        Ai = A.inverse()
        S = fel_monic(R.ctx, *fel_substitute(R, Ai.a, Ai.b, Ai.c, Ai.d))
        B = fel_solve_post(S, T)
        if B is not None:
            yield mb.PairAction(B, A)


REFERENCE_FIELDS = ((2, 1), (5, 1), (101, 1), (2, 2), (2, 6), (3, 2),
                    (3, 3), (3, 9), (101, 2), (2, 18))


def test_code_kernel_matches_fel_reference():
    # act, post and precompose compute on element codes with the
    # arithmetic each kind of field chose: prime, characteristic 2 and
    # Zech tables, and the packed kernel beyond the tables
    rng = random.Random(17)
    kinds = set()
    for p, n in REFERENCE_FIELDS:
        ctx = ff.field_create(p, n)
        kinds.add((n == 1, p == 2, ctx.elements is not None))
        for degree in (1, 2, 3):
            for _ in range(12 if ctx.q < 1000 else 4):
                R = _random_expr(rng, ctx, degree)
                B = _random_moebius(rng, ctx)
                A = _random_moebius(rng, ctx)
                Ai = A.inverse()
                cases = (
                    (mb.act(mb.PairAction(B, A), R),
                     fel_fold(B, *fel_substitute(R, Ai.a, Ai.b, Ai.c,
                                                 Ai.d))),
                    (mb.post(B, R), fel_fold(B, R.num.coeffs,
                                             R.den.coeffs)),
                    (mb.precompose(R, A),
                     fel_monic(ctx, *fel_substitute(R, A.a, A.b, A.c,
                                                    A.d))))
                for got, want in cases:
                    assert got.key == want.key, (ctx.name, str(R), B, A)
                    assert str(got) == str(want)
                    assert got.num.coeffs == want.num.coeffs
                    assert got.den.coeffs == want.den.coeffs
                # the code-level steps return the keys of the wrapped
                # ones, and the fold takes B's codes up to a scale
                assert mb._fold_key(ctx, B.key, *R.key) \
                    == mb.post(B, R).key == cases[1][1].key
                assert mb._fold_key(ctx, mb._inverse_key(A), *R.key) \
                    == mb.post(Ai, R).key
                codes = mb._substitute(R, *A.key)
                assert mb._monic_key(ctx, *codes) \
                    == mb._monic_over(ctx, *codes).key == cases[2][1].key
    assert len(kinds) == 6


def probe_post(S, T):
    """The B with B(S(x)) = T(x) found from values, or None: evaluate
    S and T at points of P^1 over an extension with at least 2 deg S + 1
    points until S has taken three distinct values, map those onto the
    matching T-values, and keep the map if it descends to the base
    field and composes exactly."""
    ctx = S.ctx
    e = 1
    while ctx.q ** e + 1 < 2 * S.degree + 1:
        e += 1
    top, em = ff.extend(ctx, e) if e > 1 else (ctx, None)
    Se = S if em is None else S.lift(em)
    Te = T if em is None else T.lift(em)
    svals, tvals = [], []
    for P in rx.proj_points(top):
        v = Se(P)
        if all(rx.proj_key(v) != rx.proj_key(u) for u in svals):
            svals.append(v)
            tvals.append(Te(P))
            if len(svals) == 3:
                break
    if len(svals) < 3 or len({rx.proj_key(v) for v in tvals}) < 3:
        return None
    B = mb.map_triple(tuple(svals), tuple(tvals))
    if em is not None:
        B = B.descend(em)
        if B is None:
            return None
    return B if mb.post(B, S) == T else None


def test_solve_post_matches_probe_oracle():
    # F_2, F_3 and F_4 are too small for probes on their own line; the
    # fields cover the six kinds of code arithmetic, and the code step
    # is checked against Cramer's rule on elements too
    rng = random.Random(6)
    fields = [ff.field_create(p, n) for p, n in
              ((2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 14),
               (3, 9))]
    assert len({(ctx.n == 1, ctx.p == 2, ctx.elements is not None)
                for ctx in fields}) == 6
    outcomes = set()
    for ctx in fields:
        for degree in (1, 2, 3):
            for _ in range(30 if ctx.q < 1000 else 6):
                S = _random_expr(rng, ctx, degree)
                for T in (mb.post(_random_moebius(rng, ctx), S),
                          _random_expr(rng, ctx, degree)):
                    B = mb.solve_post(S, T)
                    assert B == probe_post(S, T) == fel_solve_post(S, T), \
                        (ctx.name, str(S), str(T))
                    want = fel_cramer(S, T)
                    assert mb._solve_post_key(
                        ctx, mb._padded(S.key, degree),
                        mb._padded(T.key, degree), degree) \
                        == (None if want is None
                            else tuple(v.key for v in want))
                    outcomes.add(B is None)
                    if B is not None:
                        assert mb.post(B, S) == T
            # a degree mismatch and a constant S have no B
            S = _random_expr(rng, ctx, degree)
            T = _random_expr(rng, ctx, degree % 3 + 1)
            assert mb.solve_post(S, T) is None is probe_post(S, T)
            const = rx.expr(ctx, (rng.randrange(ctx.q),))
            assert mb.solve_post(const, T) is None
            assert mb.solve_post(const, const) is None
    assert outcomes == {True, False}


def test_power_pair_stabilizes_cube():
    for p in (5, 7):
        ctx = ff.field_create(p)
        cube = rx.expr(ctx, (0, 0, 0, 1))
        for a in ctx:
            if a.key == 0:
                continue
            pair = mb.PairAction(mb.Moebius(ctx, a ** 3, 0, 0, 1),
                                 mb.Moebius(ctx, a, 0, 0, 1))
            assert mb.act(pair, cube) == cube


def test_enumerate_pgl2():
    for p, n, order in ((2, 1, 6), (3, 1, 24), (5, 1, 120), (2, 2, 60)):
        ctx = ff.field_create(p, n)
        group = mb.enumerate_pgl2(ctx)
        assert len(group) == order == len(set(group))
        assert mb.identity(ctx) in set(group)
    # closure under composition for the smallest case
    F3 = ff.field_create(3)
    g3 = set(mb.enumerate_pgl2(F3))
    for M in g3:
        for N in g3:
            assert M.compose(N) in g3


def test_lazy_pgl2_matches_list():
    # pair_scan walks the lazy keys; the generator of elements and the
    # public list are built from them, in the same order
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        ctx = ff.field_create(p, n)
        group = mb.enumerate_pgl2(ctx)
        assert list(mb._pgl2(ctx)) == group
        keys = list(mb._pgl2_keys(ctx))
        assert [M.key for M in group] == keys
        # the (1, b) block by (b, c, d), then the (0, 1) block by (c, d)
        assert keys == sorted(keys, key=lambda k: (-k[0], k))
    # the bound still holds on both paths: |PGL_2(F_257)| > 2^24
    F257 = ff.field_create(257)
    cube = rx.expr(F257, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        mb.enumerate_pgl2(F257)
    with pytest.raises(ValueError):
        next(mb.pair_scan(cube, cube))


def test_pair_scan_degree_mismatch_returns_at_once(monkeypatch):
    F11 = ff.field_create(11)
    sq = rx.expr(F11, (0, 0, 1))
    cube = rx.expr(F11, (0, 0, 0, 1))
    # the scan substitutes through its two code steps, so a call of
    # either one (or of their composition) is a substitution
    calls = []
    for step in ("_substitute", "_powers", "_horner"):
        monkeypatch.setattr(mb, step, lambda *args: calls.append(args))
    assert list(mb.pair_scan(sq, cube)) == [] == list(mb.pair_scan(cube, sq))
    assert calls == []
    # codes of different fields do not mix, whatever the degrees
    F7 = ff.field_create(7)
    sq7 = rx.expr(F7, (0, 0, 1))
    cube7 = rx.expr(F7, (0, 0, 0, 1))
    for other in (sq7, cube7):
        with pytest.raises(TypeError):
            next(mb.pair_scan(sq, other))
        with pytest.raises(TypeError):
            mb.solve_post(sq, other)
    # different fields and different degrees: x^2 over F_5, x^3 over F_7
    sq5 = rx.expr(ff.field_create(5), (0, 0, 1))
    with pytest.raises(TypeError):
        next(mb.pair_scan(sq5, cube7))
    with pytest.raises(TypeError):
        mb.solve_post(sq5, cube7)
    assert calls == []
    # the desk-scale refusal still comes before the degree test
    F257 = ff.field_create(257)
    with pytest.raises(ff.ScaleLimitError):
        next(mb.pair_scan(rx.expr(F257, (0, 0, 1)),
                          rx.expr(F257, (0, 0, 0, 1))))


def pair_keys(pairs):
    return [(P.B.key, P.A.key) for P in pairs]


def test_pair_scan_shares_powers_and_normalizes_only_matches(monkeypatch):
    # a full scan builds the powers of -c x + a once per (c, a): q for
    # the (1, b) block and q - 1 for the (0, 1) block; S is made monic
    # and B solved on elements once per pair found, never for a miss
    calls = {"_powers": 0, "_horner": 0, "_monic_over": 0, "solve_post": 0}

    def counted(name):
        step = getattr(mb, name)

        def wrapper(*args):
            calls[name] += 1
            return step(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mb, name, counted(name))
    rng = random.Random(41)
    for p in (5, 7):
        ctx = ff.field_create(p)
        q = ctx.q
        for degree in (2, 3):
            R = _random_expr(rng, ctx, degree)
            moved = mb.act(mb.PairAction(_random_moebius(rng, ctx),
                                         _random_moebius(rng, ctx)), R)
            for T, equivalent in ((R, True), (moved, True),
                                  (_random_expr(rng, ctx, degree), False)):
                for name in calls:
                    calls[name] = 0
                found = list(mb.pair_scan(R, T))
                assert calls["_powers"] == 2 * q - 1, (ctx.name, str(R))
                assert calls["_horner"] == q ** 3 - q
                assert calls["_monic_over"] == calls["solve_post"] \
                    == len(found)
                assert found or not equivalent


def test_pair_scan_matches_fel_scan_on_small_quadratics():
    # every quadratic over F_2 and F_3 against each class representative
    # and against itself: the same pairs in the same order, and each
    # quadratic reaches itself and exactly one representative
    for ctx in (ff.field_create(2), ff.field_create(3)):
        reps = [c["representative"] for c in ob.all_classes(ctx, 2).classes]
        for R in rx.enumerate_expressions(ctx, 2):
            found = 0
            for T in reps + [R]:
                want = pair_keys(fel_pair_scan(R, T))
                assert pair_keys(mb.pair_scan(R, T)) == want, (str(R), str(T))
                found += bool(want)
            assert found == 2, str(R)


def test_pair_scan_matches_fel_scan_on_seeded_pairs():
    # constructed-equivalent and random pairs of quadratics and cubics,
    # FourPoint cubics among them
    rng = random.Random(29)
    cases = set()
    for p, n in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)):
        ctx = ff.field_create(p, n)
        for degree in (2, 3, 3):
            R = _random_expr(rng, ctx, degree)
            cases.add(cl.classify(R)[0].case)
            pair = mb.PairAction(_random_moebius(rng, ctx),
                                 _random_moebius(rng, ctx))
            moved = mb.act(pair, R)
            for T in (moved, _random_expr(rng, ctx, degree)):
                got = pair_keys(mb.pair_scan(R, T))
                assert got == pair_keys(fel_pair_scan(R, T)), \
                    (ctx.name, str(R), str(T))
                assert T is not moved or (pair.B.key, pair.A.key) in got
    assert "FourPoint" in cases


def test_cross_ratio_frozen():
    F7 = ff.field_create(7)
    s = F7.scalar
    for lam in (2, 3, 4, 5, 6):
        assert mb.cross_ratio(INF, s(0), s(1), s(lam)) == s(lam)
    # [a, -a, 1/a, -1/a] = (a^2-1)^2/(a^2+1)^2 at a = 2
    a = s(2)
    val = mb.cross_ratio(a, -a, 1 / a, -(1 / a))
    assert val == (a * a - 1) ** 2 / (a * a + 1) ** 2
    assert val == s(4)
    with pytest.raises(ValueError):
        mb.cross_ratio(a, a, s(1), s(3))
    # the explicit product, an infinite entry clearing the two factors
    # containing it, on every ordered four distinct points
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)):
        ctx = ff.field_create(p, n)
        for quad in itertools.permutations(rx.proj_points(ctx), 4):
            x1, x2, x3, x4 = quad
            num = den = ctx.one
            for u, v, side in ((x1, x3, 0), (x2, x4, 0), (x2, x3, 1),
                               (x1, x4, 1)):
                if u is not INF and v is not INF:
                    if side:
                        den = den * (u - v)
                    else:
                        num = num * (u - v)
            assert mb.cross_ratio(*quad) == num / den, quad


def test_cross_ratio_invariance():
    F7 = ff.field_create(7)
    rng = random.Random(0)
    pts = list(rx.proj_points(F7))
    group = mb.enumerate_pgl2(F7)
    for _ in range(40):
        quad = rng.sample(pts, 4)
        lam = mb.cross_ratio(*quad)
        # swapping in disjoint pairs preserves the value
        x1, x2, x3, x4 = quad
        assert mb.cross_ratio(x2, x1, x4, x3) == lam
        assert mb.cross_ratio(x3, x4, x1, x2) == lam
        M = rng.choice(group)
        assert mb.cross_ratio(*(M(P) for P in quad)) == lam


def test_s_orbit_frozen():
    F7 = ff.field_create(7)
    s = F7.scalar
    assert {v.key for v in mb.s_orbit(s(2))} == {2, 4, 6}
    orb = mb.s_orbit(INF, F7)
    assert INF in orb and {v.key for v in orb if v is not INF} == {0, 1}
    assert {v.key for v in mb.s_orbit(s(3))} == {3, 5}
    assert mb.s_orbit_min(s(2)).key == 2
    assert mb.s_orbit_min(INF, F7) is INF
    for orbit in (mb.s_orbit, mb.s_orbit_min):
        with pytest.raises(ValueError, match="point at infinity needs ctx"):
            orbit(INF)
    # lam, 1/lam, 1-lam, lam/(lam-1), 1/(1-lam) and (lam-1)/lam
    assert set(mb.s_group_maps(F7)) == {
        mb.Moebius(F7, 1, 0, 0, 1), mb.Moebius(F7, 0, 1, 1, 0),
        mb.Moebius(F7, -1, 1, 0, 1), mb.Moebius(F7, 1, 0, 1, -1),
        mb.Moebius(F7, 0, 1, -1, 1), mb.Moebius(F7, 1, -1, 1, 0)}


def test_s_orbit_sizes_exhaustive():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ctx = ff.field_create(p, n)
        degenerate = {rx.proj_key(INF), (1, 0), (1, 1)}
        half = ctx.scalar(2).inverse() if p != 2 else None
        second = {half, ctx.scalar(2), ctx.scalar(-1)}
        for lam in rx.proj_points(ctx):
            orb = mb.s_orbit(lam, ctx)
            assert len(orb) in (1, 2, 3, 6)
            if rx.proj_key(lam) in degenerate:
                assert {rx.proj_key(v) for v in orb} == degenerate
            elif len(orb) <= 2:
                # short orbits happen exactly on roots of x^2 - x + 1
                assert (lam * lam - lam + 1).key == 0
            elif len(orb) == 3:
                assert lam in second
            if p == 3 and lam is not INF and lam == ctx.scalar(-1):
                assert orb == {lam}

