"""Text form of rational expressions: an exact-arithmetic parser.

Grammar, insensitive to whitespace:

    expr   := term (("+" | "-") term)*
    term   := signed (("*" | "/")? signed)*      juxtaposition multiplies
    signed := ("+" | "-") signed | power
    power  := atom ("^" ["-"] integer)*
    atom   := integer | "t" | "x" | "(" expr ")"

Integers are ASCII digits.  Coefficients are integer literals (reduced
into the field) or, over an extension field, polynomials in the
generator t.  A subexpression is an unreduced numerator and denominator,
little-endian lists of field elements with None for the denominator 1,
so parsing never loses information.  The lists are combined by poly's
kernels (_add, _mul, _pow; a power of a monomial c x^k is c^e x^(ke) in
closed form), and this module defines no arithmetic of its own; RatExpr
reduces the fraction once, at the end.  Dividing by an identically zero
subexpression is an error reported at the slash.  A power or product of
degree d in x takes about d^2 field operations, so it is refused before
it is built when d^2 exceeds the desk-scale bound (d > 2^12).  Printed
forms parse back to the identical normalized object.
"""

from __future__ import annotations

import re

from .ffield import check_desk_scale
from .poly import _add, _mk, _mul, _pow
from .ratexpr import RatExpr


class ParseError(ValueError):
    """A rejected input, carrying the offending position.

    str() renders the message, the source text and a caret under the
    position the parser stopped at.
    """

    def __init__(self, msg, text, pos):
        super().__init__(msg)
        self.msg = msg
        self.text = text
        self.pos = pos

    def __str__(self):
        return "parse error at position %d: %s\n    %s\n    %s^" % (
            self.pos, self.msg, self.text, " " * self.pos)


# a token is an ASCII integer or one other character, white space aside
_TOKEN = re.compile(r"[0-9]+|\S")
_STRAY = re.compile(r"[^\s0-9xt+\-*/^()]")


def _times(a, b):
    """_mul(a, b), refused before it is built when its degree d in x has
    d^2, about the field operations it takes, beyond the desk-scale
    bound."""
    d = len(a or (0,)) + len(b or (0,)) - 2
    check_desk_scale(d * d, "field operations (degree squared) in a product")
    return _mul(a, b)


class _Parser:
    """Tokens are strings, "" at the end; errors find their position by
    lexing again."""

    def __init__(self, text, ctx):
        bad = _STRAY.search(text)
        if bad:
            ch = bad.group()
            if ch.isalpha():
                raise ParseError("unknown symbol %r; only x and t name "
                                 "anything here" % ch, text, bad.start())
            raise ParseError("stray character %r" % ch, text, bad.start())
        self.text, self.ctx = text, ctx
        self.toks = _TOKEN.findall(text) + [""]

    def fail(self, msg, i):
        """ParseError at token i."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        raise ParseError(msg, self.text, (starts + [len(self.text)])[i])

    def expr(self, i):
        """The (numerator, denominator) of the sum starting at token i,
        and the index of the token after it."""
        toks, ctx = self.toks, self.ctx
        total = term = None
        while True:
            # signed: prefix signs, an atom and its powers; a binary + or
            # - is read as the sign of the term it starts
            neg = False
            tok = toks[i]
            while tok == "+" or tok == "-":
                neg ^= tok == "-"
                i += 1
                tok = toks[i]
            i += 1
            if tok == "x":
                val = [ctx.zero, ctx.one], None
            elif tok.isdigit():
                c = ctx.scalar(int(tok))
                val = [c] if c.key else [], None
            elif tok == "t":
                if ctx.n == 1:
                    self.fail("t names the extension generator, and %s has "
                              "none" % ctx.name, i - 1)
                val = [ctx.gen], None
            elif tok == "(":
                val, i = self.expr(i)
                if toks[i] != ")":
                    self.fail("expected a closing parenthesis", i)
                i += 1
            else:
                self.fail("expected an operand: a number, x, t or a "
                          "parenthesized expression", i - 1)
            while toks[i] == "^":
                caret = i
                i += 1
                inverse = toks[i] == "-"
                if inverse:
                    i += 1
                if not toks[i].isdigit():
                    self.fail("expected an integer exponent", i)
                e = int(toks[i])
                i += 1
                num, den = val
                if inverse:
                    if not num:
                        self.fail("negative power of an identically zero "
                                  "expression", caret)
                    num, den = den or [ctx.one], num
                d = e * (max(len(num), len(den or ())) - 1)
                check_desk_scale(d * d, "field operations (degree squared) "
                                 "in a power")
                val = _pow(num, e, ctx), den and _pow(den, e, ctx)
            if neg:
                val = [-c for c in val[0]], val[1]
            # fold the operand into its term, and a finished term into the sum
            if term is None:
                term = val
            elif op == "/":
                if not val[0]:
                    self.fail("division by an identically zero expression",
                              slash)
                term = _times(term[0], val[1]), _times(term[1], val[0])
            else:
                term = _times(term[0], val[0]), _times(term[1], val[1])
            tok = toks[i]
            if tok == "*" or tok == "/":
                op, slash = tok, i
                i += 1
            elif tok == "x" or tok == "(" or tok == "t" or tok.isdigit():
                op = "*"  # juxtaposition
            else:
                if total is None:
                    total = term
                else:
                    num, den = term
                    total = (_add(_times(total[0], den),
                                  _times(num, total[1])),
                             _times(total[1], den))
                if tok != "+" and tok != "-":
                    return total, i
                term = None


def parse_expression(text, ctx, require_map=False):
    """Parse text into a normalized expression over ctx.

    With require_map, constants (which no Moebius pair can move) are
    rejected.  Raises ParseError with the exact offending position, and
    ffield.ScaleLimitError for a power or product of degree d in x with
    d^2 beyond the desk-scale bound.
    """
    parser = _Parser(text, ctx)
    (num, den), i = parser.expr(0)
    if parser.toks[i]:
        parser.fail("expected an operator or end of input", i)
    R = RatExpr(_mk(ctx, num), _mk(ctx, den or (ctx.one,)))
    if require_map and R.degree == 0:
        raise ParseError("constant expression where a map is required",
                         text, 0)
    return R
