import random

import pytest

import ratclass.ffield as ff
import ratclass.parse as ps
import ratclass.ratexpr as rx
from ratclass.parse import ParseError, parse_expression
from ratclass.poly import Poly
from ratclass.ratexpr import RatExpr


# The evaluator parse_expression used before it kept coefficient
# lists: every subexpression an unreduced fraction of Polys.  It is
# the oracle for the differential tests below (its lexer still reads
# any Unicode digit, which the generated texts never contain).

_OPS = "+-*/^()"


def _frac_lex(text):
    """Tokens as (kind, value, position); kinds INT, NAME, OP, END."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            if ch not in ("x", "t"):
                raise ParseError("unknown symbol %r; only x and t name "
                                 "anything here" % ch, text, i)
            out.append(("NAME", ch, i))
            i += 1
            continue
        if ch in _OPS:
            out.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError("stray character %r" % ch, text, i)
    out.append(("END", None, n))
    return out


class _Frac:
    """An unreduced fraction of polynomials; den is never zero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __add__(self, other):
        return _Frac(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    def __sub__(self, other):
        return _Frac(self.num * other.den - other.num * self.den,
                     self.den * other.den)

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)

    def __neg__(self):
        return _Frac(-self.num, self.den)


class _FracParser:
    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.toks = _frac_lex(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, msg, pos=None):
        raise ParseError(msg, self.text,
                         self.toks[self.i][2] if pos is None else pos)

    def const(self, c):
        return _Frac(Poly(self.ctx, (c,)), Poly(self.ctx, (1,)))

    def atom(self):
        kind, value, pos = self.take()
        if kind == "INT":
            return self.const(self.ctx.scalar(value))
        if kind == "NAME":
            if value == "x":
                return _Frac(Poly(self.ctx, (0, 1)), Poly(self.ctx, (1,)))
            if self.ctx.n == 1:
                self.fail("t names the extension generator, and %s has "
                          "none" % self.ctx.name, pos)
            return self.const(self.ctx.from_key(self.ctx.p))
        if kind == "OP" and value == "(":
            inner = self.expr(0)
            kind, value, pos = self.take()
            if not (kind == "OP" and value == ")"):
                self.fail("expected a closing parenthesis", pos)
            return inner
        self.fail("expected an operand: a number, x, t or a "
                  "parenthesized expression", pos)

    def signed(self):
        kind, value, pos = self.peek()
        if kind == "OP" and value in "+-":
            self.take()
            inner = self.signed()
            return -inner if value == "-" else inner
        return self.power()

    def power(self):
        base = self.atom()
        while True:
            kind, value, pos = self.peek()
            if not (kind == "OP" and value == "^"):
                return base
            self.take()
            sign = 1
            kind, value, _ = self.peek()
            if kind == "OP" and value == "-":
                self.take()
                sign = -1
            kind, value, epos = self.take()
            if kind != "INT":
                self.fail("expected an integer exponent", epos)
            if sign < 0:
                if base.num.is_zero:
                    self.fail("negative power of an identically zero "
                              "expression", pos)
                base = _Frac(base.den ** value, base.num ** value)
            else:
                base = _Frac(base.num ** value, base.den ** value)

    def expr(self, min_bp):
        left = self.signed()
        while True:
            kind, value, pos = self.peek()
            if kind == "OP" and value in "+-":
                if min_bp > 10:
                    return left
                self.take()
                right = self.expr(11)
                left = left + right if value == "+" else left - right
                continue
            if kind == "OP" and value in "*/":
                if min_bp > 20:
                    return left
                self.take()
                right = self.expr(21)
                if value == "*":
                    left = left * right
                else:
                    if right.num.is_zero:
                        self.fail("division by an identically zero "
                                  "expression", pos)
                    left = _Frac(left.num * right.den,
                                 left.den * right.num)
                continue
            if kind in ("INT", "NAME") or (kind == "OP" and value == "("):
                if min_bp > 20:
                    return left
                right = self.expr(21)
                left = left * right
                continue
            return left


def frac_parse(text, ctx, require_map=False):
    """parse_expression as it was before coefficient lists: every
    subexpression a _Frac of Polys, normalized by RatExpr at the end."""
    parser = _FracParser(text, ctx)
    value = parser.expr(0)
    kind, _, pos = parser.peek()
    if kind != "END":
        parser.fail("expected an operator or end of input", pos)
    R = RatExpr(value.num, value.den)
    if require_map and R.degree == 0:
        raise ParseError("constant expression where a map is required",
                         text, 0)
    return R


F2 = ff.field_create(2)
F3 = ff.field_create(3)
F4 = ff.field_create(2, 2)
F5 = ff.field_create(5)
F7 = ff.field_create(7)
F9 = ff.field_create(3, 2)


def test_basic_forms():
    assert parse_expression("x^3 - 3*x", F7) == rx.expr(F7, (0, 4, 0, 1))
    assert parse_expression("(x^3+t)/x", F4) \
        == rx.expr(F4, (F4.from_key(2), F4.zero, F4.zero, F4.one), (0, 1))
    assert parse_expression("x", F2) == rx.expr(F2, (0, 1))
    assert parse_expression("  x ^ 2  +  1 ", F3) == rx.expr(F3, (1, 0, 1))
    assert parse_expression("(x^3 + (5-2)*x^2)/( (2*5-1)*x - 5 )", F7) \
        == rx.expr(F7, (0, 0, 3, 1), (2, 2))


def test_implicit_multiplication():
    assert parse_expression("2x", F3) == rx.expr(F3, (0, 2))
    assert parse_expression("2x^2+x", F5) == rx.expr(F5, (0, 1, 2))
    t = F9.from_key(3)
    assert parse_expression("2tx^2", F9) \
        == rx.expr(F9, (F9.zero, F9.zero, F9.scalar(2) * t))
    assert parse_expression("(t+1)x + t", F9) \
        == rx.expr(F9, (t, t + F9.one))
    assert parse_expression("(x+1)(x+2)", F5) == rx.expr(F5, (2, 3, 1))
    # same binding strength as explicit *, left to right
    assert parse_expression("x/2x", F5) == parse_expression("x/2*x", F5)


def test_powers_and_signs():
    assert parse_expression("2/x^2", F3) == rx.expr(F3, (2,), (0, 0, 1))
    assert parse_expression("x^2^3", F2) == rx.expr(F2, (0,) * 6 + (1,))
    assert parse_expression("-x", F3) == rx.expr(F3, (0, 2))
    assert parse_expression("--x", F3) == rx.expr(F3, (0, 1))
    assert parse_expression("3--2", F7) == rx.expr(F7, (5,))
    assert parse_expression("x^-2", F3) == rx.expr(F3, (1,), (0, 0, 1))
    assert parse_expression("(x/2)^-1", F5) == rx.expr(F5, (2,), (0, 1))
    assert parse_expression("x^0", F3) == rx.expr(F3, (1,))
    # coefficients reduce modulo the characteristic, however large
    assert parse_expression("1000000000000000000000001x", F7) \
        == rx.expr(F7, (0, 2))


def test_constants_and_require_map():
    assert parse_expression("3", F5).degree == 0
    assert parse_expression("x+1+x", F2) == rx.expr(F2, (1,))
    assert parse_expression("x/x", F3) == rx.expr(F3, (1,))
    for text in ("3", "x/x", "(x+1)/(x+1)", "x^0", "0"):
        with pytest.raises(ParseError) as err:
            parse_expression(text, F5, require_map=True)
        assert "constant expression" in err.value.msg
    # the same text is fine when a constant is acceptable
    assert parse_expression("3", F5, require_map=False) == rx.expr(F5, (3,))


def test_zero_division_errors():
    with pytest.raises(ParseError) as err:
        parse_expression("1/(x-x)", F2)
    assert err.value.pos == 1
    assert "identically zero" in err.value.msg
    with pytest.raises(ParseError) as err:
        parse_expression("(x+1)/(2x-2x)", F5)
    assert err.value.pos == 5
    with pytest.raises(ParseError) as err:
        parse_expression("0^-1", F3)
    assert err.value.pos == 1
    assert "negative power" in err.value.msg


def test_syntax_error_positions():
    cases = [
        ("x +* 2", 3, "expected an operand"),
        ("(x+1", 4, "closing parenthesis"),
        ("", 0, "expected an operand"),
        (")", 0, "expected an operand"),
        ("x^t", 2, "integer exponent"),
        ("x^", 2, "integer exponent"),
        ("x y", 2, "unknown symbol"),
        ("x$2", 1, "stray character"),
        ("x+1)", 3, "expected an operator or end of input"),
        # integers are ASCII digits only
        ("x²", 1, "stray character '²'"),
        ("x^٣+1", 2, "stray character '٣'"),
    ]
    for text, pos, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_expression(text, F3)
        assert err.value.pos == pos, text
        assert fragment in err.value.msg, text


def test_t_needs_an_extension():
    with pytest.raises(ParseError) as err:
        parse_expression("t+1", F3)
    assert err.value.pos == 0
    assert parse_expression("t+1", F9) == rx.expr(F9, (F9.from_key(4),))


def test_error_rendering():
    with pytest.raises(ParseError) as err:
        parse_expression("1/(x-x)", F2)
    assert str(err.value) == (
        "parse error at position 1: division by an identically zero "
        "expression\n"
        "    1/(x-x)\n"
        "     ^")


def test_roundtrip_exhaustive_small():
    for ctx in (F2, F3):
        for r in (1, 2, 3):
            for R in rx.enumerate_expressions(ctx, r):
                assert parse_expression(str(R), ctx) == R


def test_roundtrip_sampled_extensions():
    rng = random.Random(0)
    for ctx in (F4, F9):
        els = list(ctx)
        done = 0
        while done < 200:
            num = [rng.choice(els) for _ in range(4)]
            den = [rng.choice(els) for _ in range(3)] + [ctx.zero]
            try:
                R = rx.expr(ctx, num, den)
            except ZeroDivisionError:
                continue
            assert parse_expression(str(R), ctx) == R
            done += 1


F64 = ff.field_create(2, 6)
F243 = ff.field_create(3, 5)
SWEEP_FIELDS = (F2, F3, F5, F9, F64, F243)


def coeff_text(a):
    """An element as classify-stream writes it: an integer, or a
    polynomial in t with explicit products and powers."""
    if a.ctx.n == 1:
        return str(a.key)
    terms = [str(c) if i == 0 else "%d*t^%d" % (c, i)
             for i, c in enumerate(a.rep) if c]
    return "+".join(terms) if terms else "0"


def stream_text(rng, ctx, degree):
    """(num)/(den) in classify-stream's (c)*x^i form, unreduced."""
    def side():
        cs = [ctx.from_key(rng.randrange(ctx.q)) for _ in range(degree + 1)]
        terms = ["(%s)*x^%d" % (coeff_text(c), i)
                 for i, c in enumerate(cs) if c.key]
        return "+".join(terms) if terms else "0"
    return "(%s)/(%s)" % (side(), side())


def random_text(rng, ctx, depth):
    """A well-formed text: literals, x, t-polynomial coefficients, unary
    signs, nested parentheses, juxtaposition, division and powers with
    signed exponents, joined without regard to precedence."""
    pick = rng.choice((4, 5, 6, 7, 7, 7)) if depth and rng.random() < 0.8 \
        else rng.randrange(4)
    if pick == 0:
        return str(rng.choice((0, 1, 2, 3, 4, 7, 9)))
    if pick == 1:
        return "x" if ctx.n == 1 or rng.random() < 0.6 else "t"
    if pick == 2:
        return "x^%s%d" % (rng.choice(("", "-")), rng.randrange(5))
    if pick == 3:
        return "(%s)" % coeff_text(ctx.from_key(rng.randrange(ctx.q)))
    inner = random_text(rng, ctx, depth - 1)
    if pick == 4:
        return rng.choice("+-") + inner
    if pick == 5:
        return "(%s)^%s%d" % (inner, rng.choice(("", "-")), rng.randrange(4))
    if pick == 6:
        return "(%s)" % inner
    op = rng.choice(("+", "-", "*", "/", "", " ", " / "))
    right = random_text(rng, ctx, depth - 1)
    if not op and right[0].isdigit():
        op = " "  # keep two literals apart: "2" "3" is not 23
    return inner + op + right


def outcome(parse, text, ctx):
    """The expression's key, or the position and message of the error."""
    try:
        return parse(text, ctx).key
    except ParseError as err:
        return ("error", err.pos, err.msg)


def test_matches_frac_oracle_on_random_texts():
    for ctx in SWEEP_FIELDS:
        rng = random.Random(ctx.q)
        texts = [random_text(rng, ctx, 5) for _ in range(120)]
        texts += [stream_text(rng, ctx, d) for d in (2, 3) for _ in range(8)]
        parsed = 0
        for text in texts:
            want = outcome(frac_parse, text, ctx)
            assert outcome(parse_expression, text, ctx) == want, (ctx, text)
            parsed += want[0] != "error"
        # every text is well formed; the errors are divisions by zero
        # and negative powers of zero
        assert parsed > 0.6 * len(texts), ctx


def test_malformed_texts_fail_as_the_oracle_does():
    for ctx in SWEEP_FIELDS:
        rng = random.Random(1000 + ctx.q)
        failed = 0
        for _ in range(100):
            text = random_text(rng, ctx, 3)
            at = rng.randrange(len(text) + 1)
            cut = rng.randrange(3)
            if cut == 0:
                text = text[:at] + text[at + 1:]
            elif cut == 1:
                text = text[:at] + rng.choice("+-*/^() xt$y") + text[at:]
            else:
                text = text[:at]
            want = outcome(frac_parse, text, ctx)
            assert outcome(parse_expression, text, ctx) == want, (ctx, text)
            failed += want[0] == "error"
        assert failed > 30, ctx


def test_powers_beyond_the_desk_scale_bound_are_refused(monkeypatch):
    built = []
    monkeypatch.setattr(ps, "_pow", lambda *args: built.append(args))
    for text in ("x^16777217", "(x+1)^16777217"):
        with pytest.raises(ff.ScaleLimitError, match="desk-scale bound"):
            parse_expression(text, F5)
    assert built == []


# two unreduced cubics as classify-stream writes them (stream_text with
# seeds 1 and 2), with the Fel products and sums (+ and -) that parsing
# each one takes at most; the _Frac oracle takes 339/352 and 328/340
STREAM_CUBICS = (
    (F243, "((1+2*t^1+1*t^3)*x^0+(1+1*t^2+2*t^3+1*t^4)*x^1"
           "+(2*t^3+2*t^4)*x^2+(1+2*t^1+1*t^2+1*t^3+2*t^4)*x^3)"
           "/((2*t^1+1*t^3+2*t^4)*x^0+(1+2*t^1+1*t^2)*x^1"
           "+(2+1*t^2+2*t^3)*x^2+(1*t^1+1*t^3)*x^3)", 65, 36),
    (F64, "((1+1*t^1+1*t^2)*x^0+(1+1*t^1+1*t^3)*x^1+(1*t^1+1*t^3)*x^2"
          "+(1*t^1+1*t^2+1*t^3+1*t^5)*x^3)/((1+1*t^2+1*t^4)*x^0"
          "+(1+1*t^1+1*t^2+1*t^5)*x^1+(1*t^5)*x^2"
          "+(1+1*t^1+1*t^3+1*t^4)*x^3)", 64, 35),
)


def test_stream_cubics_parse_with_few_field_operations(monkeypatch):
    counts = {"mul": 0, "add": 0}
    for name, kind in (("__mul__", "mul"), ("__rmul__", "mul"),
                       ("__add__", "add"), ("__radd__", "add"),
                       ("__sub__", "add"), ("__rsub__", "add")):
        def counting(self, other, op=getattr(ff.Fel, name), kind=kind):
            counts[kind] += 1
            return op(self, other)
        monkeypatch.setattr(ff.Fel, name, counting)
    parsed = []
    for ctx, text, muls, adds in STREAM_CUBICS:
        counts.update(mul=0, add=0)
        parsed.append(parse_expression(text, ctx))
        assert counts["mul"] <= muls and counts["add"] <= adds, ctx
    monkeypatch.undo()
    for R, (ctx, text, _, _) in zip(parsed, STREAM_CUBICS):
        assert R.degree == 3
        assert R.key == frac_parse(text, ctx).key
