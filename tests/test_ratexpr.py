import random

import pytest

from ratclass import ffield as ff
from ratclass import poly as pl
from ratclass import ratexpr as rx
from ratclass.parse import ParseError, parse_expression


def P(ctx, *coeffs):
    return pl.Poly(ctx, coeffs)


def test_make_normalizes():
    F5 = ff.field_create(5)
    # (x^2-1)/(x-1) cancels to x+1
    r = rx.RatExpr(P(F5, -1, 0, 1), P(F5, -1, 1))
    assert r == rx.expr(F5, (1, 1))
    assert str(r) == "x+1"
    # scaling: (2x^3+2)/(2x) has monic denominator x
    r = rx.RatExpr(P(F5, 2, 0, 0, 2), P(F5, 0, 2))
    assert r == rx.expr(F5, (1, 0, 0, 1), (0, 1))
    assert str(r) == "(x^3+1)/x"
    F2 = ff.field_create(2)
    # (x^3+1)/(x^2+1) shares the factor x+1
    r = rx.RatExpr(P(F2, 1, 0, 0, 1), P(F2, 1, 0, 1))
    assert r == rx.expr(F2, (1, 1, 1), (1, 1))
    # idempotence
    assert rx.RatExpr(r.num, r.den) == r
    with pytest.raises(ZeroDivisionError):
        rx.RatExpr(P(F2, 1), P(F2))


def test_degree():
    F5 = ff.field_create(5)
    assert rx.expr(F5, (0, 0, 0, 1)).degree == 3
    sigma = ff.canonical_sigma(F5)
    assert sigma.key == 2
    twist = rx.RatExpr(P(F5, sigma, 0, 1), P(F5, 0, 2))
    assert twist.degree == 2
    assert rx.expr(F5, (1, 1), (2, 1)).degree == 1
    assert rx.expr(F5, (3,)).degree == 0
    # the zero map normalizes to 0/1
    z = rx.RatExpr(P(F5), P(F5, 0, 0, 1))
    assert z.degree == 0 and z.num.is_zero and z.den == P(F5, 1)


def test_eval_proj():
    F5 = ff.field_create(5)
    cube = rx.expr(F5, (0, 0, 0, 1))
    assert cube(rx.INF) is rx.INF
    F2 = ff.field_create(2)
    r = rx.expr(F2, (1, 0, 0, 1), (0, 1))  # (x^3+1)/x
    assert r(F2.zero) is rx.INF
    assert r(rx.INF) is rx.INF
    assert r(F2.one).key == 0
    # at infinity: degree comparison decides
    assert rx.expr(F5, (1, 1), (0, 0, 1))(rx.INF).key == 0
    assert rx.expr(F5, (1, 0, 3), (2, 0, 1))(rx.INF).key == 3
    # (x^2+sigma)/(2x) fixes tau
    F25 = ff.field_create(5, 2)
    emb = ff.embed(F5, F25)
    tau = ff.canonical_tau(F5)
    twist = rx.RatExpr(P(F5, 2, 0, 1), P(F5, 0, 2)).lift(emb)
    assert twist(tau) == tau


def test_eval_commutes_with_embedding():
    F3 = ff.field_create(3)
    F9 = ff.field_create(3, 2)
    emb = ff.embed(F3, F9)
    rng = random.Random(0)
    exprs = list(rx.enumerate_expressions(F3, 2))
    for r in rng.sample(exprs, 40):
        lifted = r.lift(emb)
        for a in F3:
            v = r(a)
            w = lifted(emb(a))
            assert w == (rx.INF if v is rx.INF else emb(v))
        assert lifted.degree == r.degree


def test_enumeration_counts_and_uniqueness():
    for (p, r), want in (((2, 2), 24), ((2, 3), 96), ((3, 2), 216),
                         ((3, 3), 1944)):
        ctx = ff.field_create(p)
        seen = set()
        for e in rx.enumerate_expressions(ctx, r):
            assert e.degree == r
            assert pl.gcd_monic(e.num, e.den).degree == 0
            assert e.den.coeffs[-1].key == 1
            seen.add(e.key)
        assert len(seen) == want == rx.count_expressions(ctx, r)


def test_enumeration_bound_guard():
    F11 = ff.field_create(11)
    with pytest.raises(ValueError):
        rx.enumerate_expressions(F11, 3)
    with pytest.raises(ValueError):
        rx.enumerate_expressions(F11, 0)


def test_expression_arithmetic():
    # expressions carry no arithmetic; it is written as text to parse
    F7 = ff.field_create(7)

    def px(text):
        return parse_expression(text, F7)

    r = px("(x^3 - 3x + 1)/(x^2 - x)")
    assert r.num == P(F7, 1, -3, 0, 1) and r.den == P(F7, 0, -1, 1)
    assert px("1/x") == rx.expr(F7, (1,), (0, 1))
    assert px("(x - 2)(x + 2)") == px("x^2 - 4")
    assert px("x^-2") == rx.expr(F7, (1,), (0, 0, 1))
    assert rx.RatExpr(P(F7, 3), P(F7, 1)) == rx.expr(F7, (3,))
    with pytest.raises(ParseError) as err:
        px("x / (x - x)")
    assert err.value.pos == 2


def test_proj_points_order():
    F3 = ff.field_create(3)
    pts = list(rx.proj_points(F3))
    assert pts[0] is rx.INF
    assert [a.key for a in pts[1:]] == [0, 1, 2]
    assert sorted(pts, key=rx.proj_key) == pts


def test_str_forms():
    F5 = ff.field_create(5)
    assert str(rx.expr(F5, (0, 0, 0, 1))) == "x^3"
    assert str(rx.expr(F5, (2, 3), (1, 1))) == "(3x+2)/(x+1)"
    assert str(rx.expr(F5, (0, 2), (0, 0, 1))) == "2/x"
    assert repr(rx.expr(F5, (1, 1))) == "RatExpr(F_5, x+1)"
