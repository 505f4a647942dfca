import random

import pytest

from ratclass import ffield as ff
from ratclass import poly as pl


def brute_factor_degrees(f):
    """Factor degrees with multiplicity, by trial division.

    Only usable over tiny fields; this is the oracle the fast
    degree-pattern code is checked against.
    """
    ctx = f.ctx
    out = {}
    f = f.monic()
    for d in range(1, (f.degree or 0) + 1):
        for k in range(ctx.q ** d):
            digits = []
            kk = k
            for _ in range(d):
                digits.append(ctx.from_key(kk % ctx.q))
                kk //= ctx.q
            g = pl.Poly(ctx, digits + [ctx.one])
            if pl.factor_degree_pattern(g) != [(d, 1)]:
                continue  # g not irreducible; fine to reuse, tested below
            while pl.divmod_poly(f, g)[1].is_zero:
                out[d] = out.get(d, 0) + 1
                f = pl.divmod_poly(f, g)[0]
    return sorted(out.items())


def test_zero_polynomial_degree_is_none():
    F3 = ff.field_create(3)
    z = pl.Poly(F3, [])
    assert z.degree is None and z.is_zero
    assert pl.Poly(F3, [0, 0]).degree is None
    assert pl.Poly(F3, [0, 1]).degree == 1
    with pytest.raises(ValueError):
        z.lc


def test_arithmetic_against_evaluation(monkeypatch):
    # ring ops commute with evaluation: at every point of F_9, and at
    # seeded points of F_{3^15}, beyond the tables; zero and constant
    # operands (polynomials, elements, ints) on either side
    rng = random.Random(0)
    F9, big = ff.field_create(3, 2), ff.field_create(3, 15)
    seeded = [big.from_key(rng.randrange(big.q)) for _ in range(4)]
    for F, rounds, points in ((F9, 40, list(F9)), (big, 4, seeded)):
        def rand(n):
            return pl.Poly(F, [F.from_key(rng.randrange(F.q))
                               for _ in range(n)])

        def value(u, a):
            if isinstance(u, pl.Poly):
                return u(a)
            return F.scalar(u) if isinstance(u, int) else u

        for _ in range(rounds):
            f = rand(4)
            c = F.from_key(rng.randrange(1, F.q))
            operands = (f, rand(3), pl.Poly(F), pl.Poly(F, [c]), c,
                        F.zero, 0, 2)
            for u in operands:
                for v in operands:
                    if not (isinstance(u, pl.Poly) or isinstance(v, pl.Poly)):
                        continue
                    for a in points:
                        ua, va = value(u, a), value(v, a)
                        assert (u + v)(a) == ua + va
                        assert (u * v)(a) == ua * va
                        assert (u - v)(a) == ua - va
            for e in (0, 1, 2, 5):
                for u in operands[:4] + (pl.poly_x(F) * c,):
                    assert (u ** e)(F.gen) == u(F.gen) ** e
    # a power of a monomial is built in closed form, with no product
    counts = [0]
    for name in ("__mul__", "__rmul__"):
        def counting(self, other, op=getattr(ff.Fel, name)):
            counts[0] += 1
            return op(self, other)
        monkeypatch.setattr(ff.Fel, name, counting)
    x = pl.poly_x(big)
    power = x ** (1 << 20)
    monkeypatch.undo()
    assert counts[0] == 0
    assert power.degree == 1 << 20 and power.lc == big.one
    assert not any(c.key for c in power.coeffs[:-1])


def test_divmod_and_gcd():
    F7 = ff.field_create(7)
    x = pl.poly_x(F7)
    f = (x ** 3 + 2 * x + 5) * (x ** 2 + 1) + (x + 3)
    q, r = pl.divmod_poly(f, x ** 3 + 2 * x + 5)
    assert q == x ** 2 + 1 and r == x + 3
    a = (x + 1) ** 2 * (x + 3)
    b = (x + 1) * (x + 5)
    assert pl.gcd_monic(a, b) == x + 1
    assert pl.gcd_monic(a, pl.Poly(F7, [])) == a.monic()
    with pytest.raises(ZeroDivisionError):
        pl.divmod_poly(f, pl.Poly(F7, []))


def test_derivative_char_p():
    F3 = ff.field_create(3)
    x = pl.poly_x(F3)
    assert (x ** 3 + x).derivative() == pl.Poly(F3, [1])
    assert (x ** 3).derivative().is_zero
    F2 = ff.field_create(2)
    y = pl.poly_x(F2)
    assert (y ** 2 + y).derivative() == pl.Poly(F2, [1])


def test_pth_root():
    F9 = ff.field_create(3, 2)
    t = F9.gen
    f = pl.Poly(F9, [t, 0, 0, 1])  # x^3 + t
    r = pl.pth_root(f)
    assert r ** 3 == f
    with pytest.raises(ValueError):
        pl.pth_root(pl.Poly(F9, [1, 1, 0, 1]))


def test_radical_and_factor_degrees():
    F2 = ff.field_create(2)
    x = pl.poly_x(F2)
    assert pl.radical(x ** 4 + x ** 2 + 1) == x ** 2 + x + 1
    assert pl.factor_degree_pattern(x ** 4 + x ** 2 + 1) == [(2, 2)]
    # x^8 + x = x (x+1) (two irreducible cubics)
    assert pl.factor_degree_pattern(x ** 8 + x) == [(1, 2), (3, 2)]
    assert pl.factor_degree_pattern(x ** 4 + x + 1) == [(4, 1)]
    F3 = ff.field_create(3)
    y = pl.poly_x(F3)
    f = (y + 1) ** 3 * (y ** 2 + 1)
    assert pl.factor_degree_pattern(f) == [(1, 3), (2, 1)]
    assert pl.radical(f) == (y + 1) * (y ** 2 + 1)


def test_factor_degrees_against_brute_force():
    F2 = ff.field_create(2)
    rng = random.Random(0)
    for _ in range(25):
        cs = [F2.from_key(rng.randrange(2)) for _ in range(6)] + [F2.one]
        f = pl.Poly(F2, cs)
        assert pl.factor_degree_pattern(f) == brute_factor_degrees(f)


def test_factor_degrees_exhaustive_small():
    # every monic polynomial of degree <= 4 over F_2 and F_3
    for p in (2, 3):
        ctx = ff.field_create(p)
        for d in range(1, 5):
            for k in range(p ** d):
                digits = []
                kk = k
                for _ in range(d):
                    digits.append(ctx.from_key(kk % p))
                    kk //= p
                f = pl.Poly(ctx, digits + [ctx.one])
                pat = pl.factor_degree_pattern(f)
                assert sum(e * c for e, c in pat) == d
                assert pat == brute_factor_degrees(f)


def test_roots_small_field_with_multiplicity():
    F5 = ff.field_create(5)
    x = pl.poly_x(F5)
    f = (x - 2) ** 3 * (x - 4) * (x ** 2 + 2)  # x^2+2 stays irreducible
    assert [(a.key, m) for a, m in pl.roots(f)] == [(2, 3), (4, 1)]
    assert pl.roots(pl.Poly(F5, [3])) == []
    with pytest.raises(ValueError):
        pl.roots(pl.Poly(F5, []))


def test_roots_in_extension():
    F5 = ff.field_create(5)
    F25 = ff.field_create(5, 2)
    e = ff.embed(F5, F25)
    f = pl.Poly(F5, [3, 0, 1])  # x^2 - 2, roots are +-tau
    rs = pl.roots_in(f, e)
    assert len(rs) == 2 and all(m == 1 for _, m in rs)
    tau = ff.canonical_tau(F5)
    assert rs[0][0] == tau and rs[1][0] == -tau


def scan_roots(f):
    """Roots of f by evaluating it at every element in code order, with
    multiplicities by repeated division; the oracle for roots."""
    x = pl.poly_x(f.ctx)
    out = []
    for a in f.ctx:
        if f(a).key == 0:
            m, g = 0, f
            while pl.divmod_poly(g, x - a)[1].is_zero:
                m, g = m + 1, pl.divmod_poly(g, x - a)[0]
            out.append((a, m))
    return out


def test_root_paths_agree_where_both_run():
    F81 = ff.field_create(3, 4)
    x = pl.poly_x(F81)
    rng = random.Random(1)
    for _ in range(10):
        a = F81.from_key(rng.randrange(81))
        b = F81.from_key(rng.randrange(81))
        f = (x - a) ** 2 * (x - b) * pl.Poly(F81, [1, 1, 1])
        scan = [(r.key, m) for r, m in scan_roots(f)]
        split = [(r.key, m) for r, m in pl.roots(f)]
        assert scan == split


def test_roots_large_field():
    ctx = ff.field_create(5, 6)  # beyond the intern bound
    x = pl.poly_x(ctx)
    a = ctx.from_key(777)
    b = ctx.from_key(12345)
    f = (x - a) ** 2 * (x - b)
    assert [(r.key, m) for r, m in pl.roots(f)] == sorted(
        [(a.key, 2), (b.key, 1)])


def test_str_round_shape():
    F9 = ff.field_create(3, 2)
    t = F9.gen
    f = pl.Poly(F9, [2, t + 1, 0, 1])
    assert str(f) == "x^3+(t+1)x+2"
    assert str(pl.Poly(F9, [0, t])) == "tx"
    assert str(pl.Poly(F9, [])) == "0"


def _random_monic(ctx, d, rng):
    cs = [ctx.from_key(rng.randrange(ctx.q)) for _ in range(d)]
    return pl.Poly(ctx, cs + [ctx.one])


def test_irreducible_factors_multiply_back():
    # every monic polynomial of degree <= 4 over F_2 and F_3, and a
    # seeded sample of degree <= 6 over F_4, F_5 and F_9
    polys = []
    for p in (2, 3):
        ctx = ff.field_create(p)
        for d in range(1, 5):
            for k in range(p ** d):
                digits = [ctx.from_key(k // p ** i % p) for i in range(d)]
                polys.append(pl.Poly(ctx, digits + [ctx.one]))
    rng = random.Random(0)
    for ctx in (ff.field_create(2, 2), ff.field_create(5),
                ff.field_create(3, 2)):
        for _ in range(60):
            f = _random_monic(ctx, rng.randrange(1, 7), rng)
            polys.append(f * ctx.from_key(rng.randrange(1, ctx.q)))
    for f in polys:
        facs = pl.irreducible_factors(f)
        prod = pl.Poly(f.ctx, [1])
        for u, m in facs:
            assert u.coeffs[-1].key == 1
            assert pl.factor_degree_pattern(u) == [(u.degree, 1)]
            prod = prod * u ** m
        assert prod == f.monic()
        assert len({u for u, _ in facs}) == len(facs)
        assert facs == sorted(facs, key=lambda um: (um[0].degree,
                                                    um[0].coeff_keys))
        counts = {}
        for u, m in facs:
            counts[u.degree] = counts.get(u.degree, 0) + m
        assert sorted(counts.items()) == pl.factor_degree_pattern(f)


def test_root_of_irreducible_lands_at_exact_degree():
    # interned and direct-arithmetic extensions, odd and even
    # characteristic, quadratic formula and splitting paths
    rng = random.Random(0)
    cases = [(ff.field_create(p, n), d)
             for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1))
             for d in (1, 2, 3, 4)]
    cases += [(ff.field_create(101), 2), (ff.field_create(101), 3),
              (ff.field_create(2, 6), 2), (ff.field_create(2, 6), 3)]
    for ctx, d in cases:
        top, emb = ff.extend(ctx, d)
        found = 0
        while found < 4:
            u = _random_monic(ctx, d, rng)
            if pl.factor_degree_pattern(u) != [(d, 1)]:
                continue
            a = pl.root_of_irreducible(u, emb)
            assert pl.map_coeffs(u, emb)(a).key == 0
            assert ff.degree_over(a, ctx) == d
            found += 1
