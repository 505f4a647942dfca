import functools
import random

import pytest

from ratclass import ffield as ff


def naive_irreducible(f, p):
    """Trial division by every lower-degree monic polynomial."""
    n = len(f) - 1
    if n == 1:
        return True

    def polmod(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            c = a[-1] * pow(b[-1], -1, p) % p
            shift = len(a) - len(b)
            for j in range(len(b)):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
        while a and a[-1] == 0:
            a.pop()
        return a

    for d in range(1, n // 2 + 1):
        for k in range(p ** d):
            digits = []
            kk = k
            for _ in range(d):
                digits.append(kk % p)
                kk //= p
            g = digits + [1]
            if not polmod(f, g):
                return False
    return True


def test_defining_polys_are_first_irreducible_in_code_order():
    expected = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 1, 0, 1),
        (3, 2): (1, 0, 1),
        (5, 2): (2, 0, 1),
        (3, 3): (1, 2, 0, 1),
        (7, 2): (1, 0, 1),
    }
    for (p, n), poly in expected.items():
        ctx = ff.field_create(p, n)
        assert ctx.defining == poly
        assert naive_irreducible(list(poly), p)
        # nothing earlier in code order is irreducible
        code = sum(c * p ** i for i, c in enumerate(poly[:-1]))
        for k in range(code):
            digits = []
            kk = k
            for _ in range(n):
                digits.append(kk % p)
                kk //= p
            assert not naive_irreducible(digits + [1], p)


def test_context_is_cached_and_validated():
    assert ff.field_create(2, 2) is ff.field_create(2, 2)
    assert ff.field_create(7) is ff.field_create(7, 1)
    with pytest.raises(ValueError):
        ff.field_create(6)
    with pytest.raises(ValueError):
        ff.field_create(2, 0)
    with pytest.raises(ValueError):
        ff.field_create(2, 25)
    big = ff.field_create(2, 24)
    assert big.q == 1 << 24 and big.elements is None


def test_field_axioms_exhaustive_small():
    for ctx in (ff.field_create(2, 3), ff.field_create(3, 2)):
        els = list(ctx)
        for a in els:
            assert a + ctx.zero == a
            assert a * ctx.one == a
            assert a + (-a) == ctx.zero
            if a:
                assert a * a.inverse() == ctx.one
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                for c in els:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_interned_sums_match_coefficient_vectors():
    # interned extensions add through Zech logarithms; the result must
    # be the coefficient-wise sum mod p
    rng = random.Random(0)
    for p, n in ((2, 2), (3, 2), (2, 5), (5, 2), (3, 4), (7, 3), (2, 13)):
        ctx = ff.field_create(p, n)
        assert ctx.elements is not None
        els = list(ctx)
        if ctx.q <= 32:
            pairs = [(a, b) for a in els for b in els]
        else:
            pairs = [(rng.choice(els), rng.choice(els)) for _ in range(3000)]
        for a, b in pairs:
            assert (a + b).rep == tuple((x + y) % p
                                        for x, y in zip(a.rep, b.rep))
            assert (a - b).rep == tuple((x - y) % p
                                        for x, y in zip(a.rep, b.rep))
            assert (-a).rep == tuple(-x % p for x in a.rep)


def test_int_coercion_and_division():
    F7 = ff.field_create(7)
    a = F7.scalar(3)
    assert (2 * a).key == 6
    assert (a + 5).key == 1
    assert (1 / a).key == 5
    assert (a - 10).key == 0
    assert (a ** -1).key == 5
    with pytest.raises(ZeroDivisionError):
        F7.zero.inverse()
    with pytest.raises(TypeError):
        a + ff.field_create(5).scalar(1)


def test_element_order_and_strings():
    F9 = ff.field_create(3, 2)
    assert [str(a) for a in F9] == [
        "0", "1", "2", "t", "t+1", "t+2", "2t", "2t+1", "2t+2"]
    assert [a.key for a in F9] == list(range(9))
    assert sorted([F9.from_key(7), F9.from_key(2)])[0].key == 2
    F27 = ff.field_create(3, 3)
    assert str(F27.from_key(9 + 3 + 2)) == "t^2+t+2"


def test_frobenius_and_trace():
    F9 = ff.field_create(3, 2)
    for a in F9:
        for b in F9:
            assert ff.frobenius(a + b) == ff.frobenius(a) + ff.frobenius(b)
    # fixed points of Frobenius are exactly the prime field
    assert [a.key for a in F9 if ff.frobenius(a) == a] == [0, 1, 2]
    F4 = ff.field_create(2, 2)
    assert [ff.trace_absolute(a).key for a in F4] == [0, 0, 1, 1]
    F8 = ff.field_create(2, 3)
    assert sum(ff.trace_absolute(a).key for a in F8) == 4  # half the elements


def test_degree_over():
    F2 = ff.field_create(2)
    F4 = ff.field_create(2, 2)
    F16 = ff.field_create(2, 4)
    degs = [ff.degree_over(a, F2) for a in F16]
    assert sorted(degs) == [1, 1] + [2, 2] + [4] * 12
    assert sorted(ff.degree_over(a, F4) for a in F16) == [1] * 4 + [2] * 12


def test_squares_and_sqrt_odd():
    for ctx in (ff.field_create(3, 2), ff.field_create(5, 2),
                ff.field_create(7), ff.field_create(3, 3)):
        squares = {(a * a).key for a in ctx}
        assert len(squares) == (ctx.q + 1) // 2
        for a in ctx:
            assert ff.is_square(a) == (a.key in squares)
            if a.key in squares:
                r = ff.sqrt(a)
                assert r * r == a
                assert r == min(r, -r)  # canonical choice
            else:
                with pytest.raises(ValueError):
                    ff.sqrt(a)


def test_sqrt_char2_is_unique_root():
    F16 = ff.field_create(2, 4)
    for a in F16:
        r = ff.sqrt(a)
        assert r * r == a


def test_canonical_sigma():
    cases = {
        (2, 1): 1, (2, 2): 2, (2, 3): 1,
        (3, 1): 2, (5, 1): 2, (7, 1): 3, (3, 2): 4,
    }
    for (p, n), key in cases.items():
        assert ff.canonical_sigma(ff.field_create(p, n)).key == key


def test_canonical_sigma_char2_is_least_trace_one_basis_power():
    # the scan over the whole field agrees wherever it is affordable
    for n in range(1, 14):
        ctx = ff.field_create(2, n)
        scan = next(a for a in ctx if ff.trace_absolute(a).key == 1)
        assert ff.canonical_sigma(ctx) == scan
        assert scan.key & (scan.key - 1) == 0
    # beyond it, only n traces: a field scan would take 2^15 + 1
    assert ff.canonical_sigma(ff.field_create(2, 18)).key == 1 << 15


def test_canonical_theta_against_cube_enumeration():
    for p, n in ((2, 2), (2, 4), (7, 1), (13, 1), (5, 2)):
        ctx = ff.field_create(p, n)
        if (ctx.q - 1) % 3:
            with pytest.raises(ValueError):
                ff.canonical_theta(ctx)
            continue
        cubes = {(a * a * a).key for a in ctx}
        theta = ff.canonical_theta(ctx)
        assert theta.key == min(k for k in range(1, ctx.q) if k not in cubes)
    with pytest.raises(ValueError):
        ff.canonical_theta(ff.field_create(2, 3))


def test_canonical_tau():
    # odd characteristic: tau^2 = sigma and tau^q = -tau
    for p, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ctx = ff.field_create(p, n)
        tau = ff.canonical_tau(ctx)
        ext = tau.ctx
        assert ext.q == ctx.q ** 2
        e = ff.embed(ctx, ext)
        assert tau * tau == e(ff.canonical_sigma(ctx))
        assert tau ** ctx.q == -tau
        assert tau == min(tau, -tau)
    # characteristic 2: tau^2 + tau = sigma and tau^q = tau + 1
    for p, n in ((2, 1), (2, 2)):
        ctx = ff.field_create(p, n)
        tau = ff.canonical_tau(ctx)
        ext = tau.ctx
        e = ff.embed(ctx, ext)
        assert tau * tau + tau == e(ff.canonical_sigma(ctx))
        assert tau ** ctx.q == tau + ext.one
    assert ff.canonical_tau(ff.field_create(2)).key == 2  # t in F_4


def test_embedding_is_a_field_hom():
    src, dst = ff.field_create(3, 2), ff.field_create(3, 4)
    e = ff.embed(src, dst)
    img = e.image_of_generator
    # the image satisfies the source defining polynomial
    acc = dst.zero
    for c in reversed(src.defining):
        acc = acc * img + c
    assert acc == dst.zero
    for a in src:
        assert ff.frobenius(e(a), src.n) != e(a) or ff.degree_over(e(a), src) == 1
        for b in src:
            assert e(a + b) == e(a) + e(b)
            assert e(a * b) == e(a) * e(b)


def test_embedding_least_root_and_preimage():
    F4 = ff.field_create(2, 2)
    F16 = ff.field_create(2, 4)
    e = ff.embed(F4, F16)
    roots = [a for a in F16 if a * a + a + F16.one == F16.zero]
    assert e.image_of_generator == min(roots)
    for a in F4:
        assert e.preimage(e(a)) == a
    outside = [b for b in F16 if ff.degree_over(b, F4) == 2]
    with pytest.raises(ValueError):
        e.preimage(outside[0])


def test_embedding_towers_compose():
    F2 = ff.field_create(2)
    F4 = ff.field_create(2, 2)
    F16 = ff.field_create(2, 4)
    F256 = ff.field_create(2, 8)
    a_chain = ff.embed(F4, F256)
    two_step = ff.embed(F16, F256)
    one_step = ff.embed(F4, F16)
    for a in F4:
        assert a_chain(a) == two_step(one_step(a))
    # prime chain ascends: 12 = 2 * 2 * 3 from degree 1
    F64 = ff.field_create(2, 6)
    via = ff.embed(F4, F64)
    direct = ff.embed(F2, F64)
    base = ff.embed(F2, F4)
    for a in F2:
        assert direct(a) == via(base(a))


def scan_embedding_image(src, dst):
    """The generator image of src -> dst by the scan chain: prime steps
    in ascending order, each sending the generator to the least root of
    its defining polynomial found by sweeping the next field in code
    order; the oracle for embed."""
    m = dst.n // src.n
    cur = src
    image = src.gen if src.n > 1 else src.one
    for ell in range(2, m + 1):
        while m % ell == 0:
            m //= ell
            nxt = ff.field_create(src.p, cur.n * ell)
            if cur.n > 1:
                root = _least_scan_root(cur.defining, nxt)
                image = ff.Embedding(cur, nxt, root)(image)
            else:
                image = nxt.one
            cur = nxt
    return image


@functools.lru_cache(maxsize=None)
def _least_scan_root(coeffs, ctx):
    for a in ctx:
        acc = ctx.zero
        for c in reversed(coeffs):
            acc = acc * a + c
        if acc.key == 0:
            return a
    raise AssertionError("no root in " + ctx.name)


def test_embeddings_match_scan_chain():
    # every interned tower over F_2, F_3, F_5 and F_7
    for p in (2, 3, 5, 7):
        top = 1
        while p ** (top + 1) <= ff.INTERN_BOUND:
            top += 1
        for b in range(1, top + 1):
            dst = ff.field_create(p, b)
            for a in range(1, b + 1):
                if b % a == 0:
                    src = ff.field_create(p, a)
                    image = ff.embed(src, dst).image_of_generator
                    assert image == scan_embedding_image(src, dst), (src, dst)


def test_embedding_images_of_large_towers():
    # codes the scan-and-split chain gave for the classify-stream
    # towers, where the scan oracle is too slow to run
    pinned = {(2, 6, 24): 2065534, (3, 5, 15): 5136439,
              (3, 3, 12): 8100, (31, 1, 4): 1}
    for (p, a, b), key in pinned.items():
        e = ff.embed(ff.field_create(p, a), ff.field_create(p, b))
        assert e.image_of_generator.key == key


def test_identity_embedding():
    F9 = ff.field_create(3, 2)
    e = ff.embed(F9, F9)
    for a in F9:
        assert e(a) == a


def test_generic_path_large_field():
    ctx = ff.field_create(5, 7)  # 78125 elements, beyond the intern bound
    assert ctx.elements is None
    rng = random.Random(0)
    for _ in range(50):
        a = ctx.from_key(rng.randrange(1, ctx.q))
        b = ctx.from_key(rng.randrange(ctx.q))
        c = ctx.from_key(rng.randrange(ctx.q))
        assert a * (b + c) == a * b + a * c
        assert (a * a.inverse()).key == 1
        assert a ** (ctx.q - 1) == ctx.one
    # generator satisfies the defining polynomial
    acc = ctx.zero
    for c in reversed(ctx.defining):
        acc = acc * ctx.gen + c
    assert acc == ctx.zero


def test_primitive_element():
    for p, n in ((2, 2), (3, 2), (5, 1), (2, 4), (7, 1)):
        ctx = ff.field_create(p, n)
        g = ctx.primitive
        seen = set()
        cur = ctx.one
        for _ in range(ctx.q - 1):
            seen.add(cur.key)
            cur = cur * g
        assert len(seen) == ctx.q - 1
    assert ff.field_create(3, 2).primitive.key == 4
