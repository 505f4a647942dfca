import functools
import importlib.util
import pathlib
import random
import time
import types

import pytest

from ratclass import ffield as ff
from ratclass import poly

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


# The list-based Rabin scan that chose defining polynomials before the
# packed-integer kernel: dense little-endian coefficient lists over F_p.

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod_monic(a, f, p):
    # reduce a modulo the monic polynomial f, fixed width len(f) - 1
    a = list(a)
    n = len(f) - 1
    if len(a) < n:
        a += [0] * (n - len(a))
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            base = i - n
            for j in range(n):
                if f[j]:
                    a[base + j] = (a[base + j] - c * f[j]) % p
    return a[:n]


def _pmulmod(a, b, f, p):
    if not any(a) or not any(b):
        return [0] * (len(f) - 1)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod_monic(out, f, p)


def _ppow(base, e, f, p):
    result = _pmod_monic([1], f, p)
    cur = _pmod_monic(base, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, cur, f, p)
        cur = _pmulmod(cur, cur, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a = _ptrim([x % p for x in a])
    b = _ptrim([x % p for x in b])
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        while len(r) >= len(b) and any(r):
            _ptrim(r)
            if len(r) < len(b):
                break
            c = (r[-1] * inv) % p
            shift = len(r) - len(b)
            for j in range(len(b)):
                r[shift + j] = (r[shift + j] - c * b[j]) % p
            _ptrim(r)
        a, b = b, r
    return a


def list_irreducible(f, p):
    """Rabin test for the monic polynomial f over F_p."""
    n = len(f) - 1
    x = [0, 1]
    xq = _ppow(x, p ** n, f, p)
    xm = _pmod_monic(x, f, p)
    if _ptrim([(u - v) % p for u, v in zip(xq, xm)]):
        return False
    for ell in ff._prime_factors(n):
        u = _ppow(x, p ** (n // ell), f, p)
        diff = _ptrim([(a - b) % p for a, b in zip(u, xm)])
        g = _pgcd(diff, f, p)
        if len(g) != 1:
            return False
    return True


def list_defining_poly(p, n):
    for k in range(p ** n):
        f = [k // p ** i % p for i in range(n)] + [1]
        if list_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible of degree %d over F_%d" % (n, p))


class SetupRecorder:
    """Stands in for the ratclass module in the benchmark's set-up and
    records the fields it asks for, without building them."""

    def __init__(self):
        self.built = set()

    def field_create(self, p, n=1):
        self.built.add((p, n))
        return types.SimpleNamespace(p=p, n=n, q=p ** n)

    def extend(self, ctx, m):
        return self.field_create(ctx.p, ctx.n * m)


def oracle_fields():
    """Every (p, n) with p^n <= 2^24 and p <= 13, and every field the
    benchmark's three set-ups build (their towers climb through fields
    they also build)."""
    workloads = load_bench("workloads")
    rec = SetupRecorder()
    for w in workloads.WORKLOADS.values():
        workloads.setup_fields(rec, w.fields)
    assert {(2, 24), (3, 15), (31, 4), (101, 3)} <= rec.built
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** n <= ff.DESK_SCALE_BOUND:
            rec.built.add((p, n))
            n += 1
    return sorted(rec.built)


def test_defining_polys_match_list_rabin_scan():
    # 76 fields; about 0.3 s, most of it in the list-based scans
    for p, n in oracle_fields():
        assert ff._defining_poly(p, n) == list_defining_poly(p, n), (p, n)


def digits(k, p, n):
    return tuple(k // p ** i % p for i in range(n))


def code_of(rep, p):
    return sum(c * p ** i for i, c in enumerate(rep))


# Schoolbook product and power on coefficient tuples: the oracles for
# the packed kernel and for element arithmetic beyond the tables.

def mul_rep(x, y, p, f):
    n = len(f) - 1
    out = [0] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
    for i in range(2 * n - 2, n - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            base = i - n
            for j in range(n):
                if f[j]:
                    out[base + j] = (out[base + j] - c * f[j]) % p
    return tuple(out[:n])


def pow_rep(rep, e, p, f):
    n = len(f) - 1
    result = (1,) + (0,) * (n - 1)
    cur = rep
    while e:
        if e & 1:
            result = mul_rep(result, cur, p, f)
        cur = mul_rep(cur, cur, p, f)
        e >>= 1
    return result


def test_packed_products_match_mul_rep():
    # the kernel's slots must hold every sum it forms: products of the
    # largest code, which has every digit p - 1, and seeded pairs
    rng = random.Random(0)
    for p, n in oracle_fields():
        f = ff._defining_poly(p, n)
        kernel = ff._Packed(p, f)
        q = p ** n
        pairs = [(q - 1, q - 1), (q - 1, 1)]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(20)]
        for a, b in pairs:
            expect = mul_rep(digits(a, p, n), digits(b, p, n), p, f)
            got = kernel.code(kernel.mul(kernel.pack(a), kernel.pack(b)))
            assert digits(got, p, n) == expect, (p, n, a, b)


def least_primitive(ctx):
    """Code of the least generator of ctx's multiplicative group, by
    Fermat powers through pow_rep."""
    p, n, q = ctx.p, ctx.n, ctx.q
    one = digits(1, p, n)
    fac = ff._prime_factors(q - 1)
    return next(k for k in range(1, q)
                if all(pow_rep(digits(k, p, n), (q - 1) // ell, p,
                                  ctx.defining) != one for ell in fac))


def walk_tables(ctx):
    """Primitive, exp, log and Zech tables of an interned field by the
    coefficient-vector walk: the least primitive, then one mul_rep per
    element.  Characteristic 2 adds by XOR of codes, so it has no Zech
    table."""
    p, n, q, f = ctx.p, ctx.n, ctx.q, ctx.defining
    prim = least_primitive(ctx)
    one = digits(1, p, n)
    exp, rep = [], one
    for _ in range(q - 1):
        exp.append(code_of(rep, p))
        rep = mul_rep(rep, digits(prim, p, n), p, f)
    assert rep == one
    log = [0] * q
    for i, k in enumerate(exp):
        log[k] = i
    zech = None
    if n > 1 and p != 2:
        zech = [-1] * (q - 1)
        for i, k in enumerate(exp):
            plus_one = k - k % p + (k + 1) % p
            if plus_one:
                zech[i] = log[plus_one]
    return prim, exp, log, zech


def test_tables_match_coefficient_vector_walk():
    # every interned field with n >= 2 and 14 prime fields; about 1.5 s
    rng = random.Random(0)
    primes = [p for p in range(2, ff.INTERN_BOUND) if ff._is_prime(p)]
    fields = [(p, 1) for p in [2, 3] + rng.sample(primes, 12)]
    for p in primes:
        n = 2
        while p ** n <= ff.INTERN_BOUND:
            fields.append((p, n))
            n += 1
    for p, n in fields:
        ctx = ff.field_create(p, n)
        prim, exp, log, zech = walk_tables(ctx)
        assert ctx.primitive.key == prim, ctx
        assert ctx._exp == exp, ctx
        assert ctx._log == log, ctx
        assert ctx._zech == zech, ctx
    # beyond the intern bound the primitive comes from the same kernel
    for p, n in ((2, 14), (3, 9), (13, 4)):
        ctx = ff.field_create(p, n)
        assert ctx.primitive.key == least_primitive(ctx), ctx


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


def test_oversized_fields_refused_before_building():
    # no field passes with p > 2^24 or n > 96, and that is decided before
    # p is trial-divided (about 7.6e8 odd candidates for 2^61 - 1) or
    # p^n is computed
    t0 = time.perf_counter()
    for p, n in ((2 ** 61 - 1, 1), (2 ** 61, 1), (2, 97), (3, 10 ** 12)):
        with pytest.raises(ff.ScaleLimitError,
                           match="exceed the limit 16777216, the "
                                 "desk-scale bound"):
            ff.field_create(p, n)
    assert time.perf_counter() - t0 < 1.0
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match="is not prime"):
            ff.field_create(p)


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


def test_direct_arithmetic_matches_coefficient_vectors():
    # beyond the tables every operation packs its operands into the
    # kernel and reads the code back; the oracle is the schoolbook
    # product and power on coefficient vectors and coefficient-wise sums
    assert ff.Fel.__slots__ == ("ctx", "key")
    rng = random.Random(13)
    for p, n in ((3, 15), (3, 12), (31, 4), (101, 3), (13, 4), (2, 14),
                 (2, 18), (2, 24), (8209, 1)):
        ctx = ff.field_create(p, n)
        assert ctx.elements is None
        q, f = ctx.q, ctx.defining
        keys = [0, 1, q - 1] + [rng.randrange(q) for _ in range(12)]
        for ka in keys:
            a = ctx.from_key(ka)
            ra = digits(ka, p, n)
            assert (-a).key == code_of([-x % p for x in ra], p)
            if ka:
                inv = code_of(pow_rep(ra, q - 2, p, f), p)
                assert a.inverse().key == inv and (1 / a).key == inv
            for e in (0, 1, 2, 5, q - 2, q - 1, q, q + 3, 3 * q - 1,
                      rng.randrange(q)):
                assert (a ** e).key == code_of(pow_rep(ra, e, p, f), p)
                if ka:
                    assert (a ** -e).key == code_of(
                        pow_rep(ra, (q - 2) * e, p, f), p)
            for kb in keys:
                b = ctx.from_key(kb)
                rb = digits(kb, p, n)
                assert (a + b).key == code_of(
                    [(x + y) % p for x, y in zip(ra, rb)], p)
                assert (a - b).key == code_of(
                    [(x - y) % p for x, y in zip(ra, rb)], p)
                assert (a * b).key == code_of(mul_rep(ra, rb, p, f), p)
                if kb:
                    assert (a / b).key == code_of(
                        mul_rep(ra, pow_rep(rb, q - 2, p, f), p, f), p)
    with pytest.raises(ZeroDivisionError):
        ff.field_create(3, 15).zero.inverse()
    with pytest.raises(ZeroDivisionError):
        ff.field_create(2, 24).zero ** -1


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


def test_artin_schreier_root_against_scan():
    for n in range(1, 9):
        ctx = ff.field_create(2, n)
        roots = {}
        for z in ctx:
            roots.setdefault(z * z + z, []).append(z)
        for c in ctx:
            if c in roots:
                assert ff._artin_schreier_root(c) == min(roots[c])
            else:
                with pytest.raises(ValueError):
                    ff._artin_schreier_root(c)
    with pytest.raises(ValueError):
        ff._artin_schreier_root(ff.field_create(3).one)


def test_artin_schreier_root_large_fields():
    rng = random.Random(5)
    for n in (14, 24):
        ctx = ff.field_create(2, n)
        for _ in range(40):
            c = ctx.from_key(rng.randrange(ctx.q))
            if ff.trace_absolute(c).key:
                with pytest.raises(ValueError):
                    ff._artin_schreier_root(c)
            else:
                z = ff._artin_schreier_root(c)
                assert z * z + z == c and z < z + ctx.one


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
    # towers, where the scan oracle is too slow to run, and the codes
    # the discrete-log step gave for every other embedding between
    # those fields and their extensions of degree <= 4 under the bound
    pinned = {(2, 6, 24): 2065534, (3, 5, 15): 5136439,
              (3, 3, 12): 8100, (31, 1, 4): 1,
              (11, 2, 4): 3681, (13, 2, 4): 169, (31, 2, 4): 125553,
              (3, 3, 6): 144, (3, 3, 9): 1629, (3, 6, 12): 9,
              (2, 6, 12): 163, (2, 6, 18): 8, (2, 12, 24): 595469,
              (3, 5, 10): 9}
    for (p, a, b), key in pinned.items():
        e = ff.embed(ff.field_create(p, a), ff.field_create(p, b))
        assert e.image_of_generator.key == key


def split_least_root(coeffs, dst):
    """The least root in dst of the irreducible polynomial over F_p with
    the given integer coefficients, by splitting it over dst: one root
    from poly.root_of_irreducible, then the least of its conjugates;
    the oracle for ffield._least_root_of_subfield_poly."""
    base = ff.field_create(dst.p)
    r = poly.root_of_irreducible(poly.Poly(base, coeffs), ff.embed(base, dst))
    conjugates = [r]
    for _ in range(len(coeffs) - 2):
        conjugates.append(ff.frobenius(conjugates[-1]))
    return min(conjugates)


def prime_steps(primes):
    """(src, dst) for every embedding step F_{p^m} -> F_{p^(m l)} with
    m >= 2, l prime and p^(m l) under the desk-scale bound."""
    for p in primes:
        for m in range(2, 13):
            for ell in (2, 3, 5, 7, 11):
                if p ** (m * ell) <= ff.DESK_SCALE_BOUND:
                    yield ff.field_create(p, m), ff.field_create(p, m * ell)


def test_subfield_roots_match_split_oracle(monkeypatch):
    # beta is a power of the least element that gives a subfield
    # generator, so no step searches a field beyond the tables for a
    # primitive element
    def refuse(self):
        if self.elements is None:
            raise AssertionError("primitive element of " + self.name)
        return self._primitive

    steps = list(prime_steps((2, 3, 5, 7, 11, 13)))
    assert len(steps) == 54
    monkeypatch.setattr(ff.FieldCtx, "primitive", property(refuse))
    got = [ff._least_root_of_subfield_poly(src.defining, dst)
           for src, dst in steps]
    monkeypatch.undo()
    for root, (src, dst) in zip(got, steps):
        assert root == split_least_root(src.defining, dst), (src, dst)


def test_subfield_roots_beyond_the_tables():
    # sources without discrete-log tables: the generator is written in
    # the split-off root by a linear solve, and the embeddings reach the
    # quartic extensions of F_243 and F_101 beyond the desk-scale bound
    for p, a, b in ((3, 10, 20), (101, 2, 4)):
        src, dst = ff.field_create(p, a), ff.field_create(p, b)
        assert src.elements is None and dst.elements is None
        root = ff._least_root_of_subfield_poly(src.defining, dst)
        assert root == split_least_root(src.defining, dst), (src, dst)
        e = ff.embed(src, dst)
        assert e.image_of_generator == root
        rng = random.Random(b)
        for _ in range(5):
            x, y = (src.from_key(rng.randrange(src.q)) for _ in range(2))
            assert e(x * y) == e(x) * e(y) and e(x + y) == e(x) + e(y)
            assert e.preimage(e(x)) == x


def test_extensions_beyond_the_bound_build_without_tables():
    # the bound applies to bases: extensions of degree <= 4 over a field
    # within it are built, without tables
    for p, n in ((3, 20), (101, 4)):
        ctx = ff.field_create(p, n)
        assert ctx.q > ff.DESK_SCALE_BOUND and ctx.elements is None
        assert ctx.defining == list_defining_poly(p, n)
        a = ctx.from_key(ctx.q - 2)
        assert (a * a.inverse()).key == 1
        acc = ctx.zero
        for c in reversed(ctx.defining):
            acc = acc * ctx.gen + c
        assert acc == ctx.zero


def test_subfield_roots_split_nothing_over_the_destination(monkeypatch):
    # the embedding splits only over the (interned) source field: the
    # minimal polynomial of a subfield generator, never src's defining
    # polynomial over dst
    seen = []
    splitter = poly._splitter

    def recording(u, rng, d):
        seen.append(u.ctx)
        return splitter(u, rng, d)

    monkeypatch.setattr(poly, "_splitter", recording)
    for p, a, b in ((2, 6, 24), (3, 5, 15)):
        src, dst = ff.field_create(p, a), ff.field_create(p, b)
        image = ff.embed.__wrapped__(src, dst).image_of_generator
        assert image == ff.embed(src, dst).image_of_generator
        assert seen and dst not in seen
        assert all(ctx.elements is not None for ctx in seen)
        seen.clear()


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
