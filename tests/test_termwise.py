"""Term-wise maps against the polynomial-arithmetic routes they replace.

``RingPolyT.eval_at_T`` and ``reverse_T`` send each term to a fixed set of
output terms in one pass; the oracle substitutes T by raising its image to
every power t as a ring element and multiplying each T^t slice by it.  The
text parser sums every term into one dict of raw coefficients; the oracle
builds an ``MPoly`` product per factor and an ``MPoly`` sum per term.
Both must give equal values in canonical (terms, den) form, and the parser
the same ``ParseError`` text and position on malformed input.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.errors import DivisionByZero, ParseError
from jouanolou.field import Fp, QQ
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.polys import MPoly, canonical
from jouanolou.textio import _Parser, parse_poly

F7 = Fp(7)
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7")]
CHECKS = settings(max_examples=80, deadline=None, derandomize=True)


# --- the substitution oracle ----------------------------------------------------


def substitute_T(p: RingPolyT, image: RingPolyT) -> RingPolyT:
    """T replaced by ``image``, an element of k[T]: each T^t slice of the
    terms is multiplied by image^t."""
    ctx, yzT = p.ctx, RingPolyT.PARTS
    parts = []
    for part in (p.a, p.b):
        slices: dict = {}
        for (i, j, t), c in part.terms.items():
            slices.setdefault(t, {})[i, j, 0] = c
        out = MPoly.zero(ctx, yzT)
        for t, terms in slices.items():
            out = out + MPoly(ctx, yzT, *canonical(terms, part.den)) * (image**t).a
        parts.append(out)
    return RingPolyT(*parts)


def eval_oracle(p: RingPolyT, t) -> RingElement:
    at = substitute_T(p, RingPolyT.from_raw(p.ctx, t.val))
    a, b = (MPoly(at.ctx, RingElement.PARTS, {m[:2]: c for m, c in q.terms.items()}, q.den)
            for q in (at.a, at.b))
    return RingElement(a, b)


def reverse_oracle(p: RingPolyT) -> RingPolyT:
    return substitute_T(p, RingPolyT.one(p.ctx) - RingPolyT.gen_T(p.ctx))


def assert_canonical(r):
    ctx = r.ctx
    for part in (r.a, r.b):
        terms, den = part.terms, part.den
        assert type(den) is int and den > 0
        assert all(type(c) is int and c for c in terms.values())
        if ctx.p is None:
            assert gcd(den, *terms.values()) == 1
        else:
            assert den == 1 and all(0 < c < ctx.p for c in terms.values())


def scalars(ctx):
    if ctx.p is not None:
        return st.integers(1, ctx.p - 1)
    big = st.integers(-(2**64), 2**64).filter(bool)
    return st.one_of(
        st.builds(Fraction, big, st.integers(1, 2**64)),
        st.integers(-3, 3).filter(bool).map(Fraction),
    )


def polyts(ctx, max_t=6):
    """Elements of R[T] of T-degree up to ``max_t``: zero, T-free and dense
    in T among them."""
    mon = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, max_t))
    part = st.dictionaries(mon, scalars(ctx), max_size=6).map(
        lambda raw: MPoly(ctx, RingPolyT.PARTS, raw))
    return st.tuples(part, part).map(lambda ab: RingPolyT(*ab))


def parameters(ctx):
    """t = 0, 1 and n/d with d up to 2^64 (d a unit over F_p)."""
    frac = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))
    if ctx.p is not None:
        frac = frac.filter(lambda f: f.denominator % ctx.p)
    return st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), frac).map(ctx.elem)


@pytest.mark.parametrize("ctx", FIELDS)
def test_eval_at_T_matches_substitution(ctx):
    @CHECKS
    @given(polyts(ctx), parameters(ctx))
    def check(p, t):
        got = p.eval_at_T(t)
        assert type(got) is RingElement
        assert_canonical(got)
        assert got == eval_oracle(p, t)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_eval_at_T_of_T_free_elements_keeps_them(ctx):
    @CHECKS
    @given(polyts(ctx, max_t=0), parameters(ctx))
    def check(p, t):
        got = p.eval_at_T(t)
        assert RingPolyT.from_ring(got) == p

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_reverse_T_matches_substitution_and_is_an_involution(ctx):
    @CHECKS
    @given(polyts(ctx))
    def check(p):
        got = p.reverse_T()
        assert type(got) is RingPolyT
        assert_canonical(got)
        assert got == reverse_oracle(p)
        assert got.reverse_T() == p

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_zero_maps_to_zero(ctx):
    zero = RingPolyT.zero(ctx)
    assert zero.reverse_T() == zero
    assert zero.eval_at_T(ctx.elem(Fraction(2, 3))) == RingElement.zero(ctx)


# --- the parser oracle ------------------------------------------------------------


class OracleParser(_Parser):
    """The parser that builds an ``MPoly`` per factor and per term."""

    def parse_poly(self) -> MPoly:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        out = self.parse_term()
        if negate:
            out = -out
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            term = self.parse_term()
            out = out + term if op == "+" else out - term
        return out

    def parse_term(self) -> MPoly:
        t = self.peek()
        if t.kind == "int":
            coeff = self.parse_coeff()
            mon = MPoly.const(self.ctx, self.vars, self.ctx.rone)
            while self.peek().kind == "*":
                self.take()
                mon = mon * self.parse_factor()
            return mon.scale(coeff)
        if t.kind == "name":
            out = self.parse_factor()
            while self.peek().kind == "*":
                self.take()
                out = out * self.parse_factor()
            return out
        raise ParseError(f"unexpected token {t.text!r}", position=t.pos, expected="term")

    def parse_factor(self) -> MPoly:
        t = self.take("name")
        if t.text not in self.vars:
            raise ParseError(
                f"unknown variable {t.text!r}", position=t.pos, expected="|".join(self.vars)
            )
        e = 1
        if self.peek().kind == "^":
            self.take()
            e = int(self.take("int").text)
        return MPoly.var(self.ctx, self.vars, t.text, e)


def oracle_parse(text, ctx, allow_T=True):
    p = OracleParser(text, ctx, allow_T)
    out = p.parse_poly()
    p.expect_end()
    return out


def outcome(parse, text, ctx, allow_T):
    """The parsed value in canonical form, or the error's type, text and
    position."""
    try:
        p = parse(text, ctx, allow_T)
    except (ParseError, DivisionByZero) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return p.vars, p.den, p.terms


def assert_same_parse(text, ctx, allow_T=True):
    got = outcome(parse_poly, text, ctx, allow_T)
    assert got == outcome(oracle_parse, text, ctx, allow_T)
    return got


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize(
    "text",
    [
        "y + 2*y - 3*y",
        "y + 2*y - 3*y + x",
        "x - x",
        "x*x^2*x",
        "7*x",
        "7*x + 14",
        "-x + 1",
        "-3/4*x*y^2 + 1/2",
        "1/2*w*T - 1/3*T^2*y*z + w^3",
        "x^0*y",
        "0*x + 0",
        "2*3",
        "T*T*w - w*T^2",
        "1/7*x",
    ],
)
def test_parser_matches_oracle(ctx, text):
    assert_same_parse(text, ctx)


def test_cancelling_and_repeated_terms():
    assert parse_poly("y + 2*y - 3*y", QQ).is_zero
    assert parse_poly("7*x", F7).is_zero
    assert parse_poly("x*x^2*x", QQ) == MPoly.var(QQ, ("x", "y", "z", "w", "T"), "x", 4)


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize(
    "text",
    [
        "",
        "-",
        "2*x -",
        "x + q",
        "x*3",
        "3*",
        "x^",
        "x^y",
        "1/",
        "1/0*x",
        "+x",
        "x + -y",
        "x y",
        "x + (y)",
        "2/3/4",
        "x^2^3",
    ],
)
def test_parser_errors_match_oracle(ctx, text):
    got = assert_same_parse(text, ctx)
    assert got[0] in (ParseError, DivisionByZero)


def test_T_outside_R_is_an_error_in_both_parsers():
    got = assert_same_parse("x + T", QQ, allow_T=False)
    assert got[0] is ParseError and got[2] == 4


ALPHABET = "xyzwT0123456789/+-*^ "


def poly_texts():
    """Texts of the grammar, nearly all well formed."""
    coeff = st.one_of(
        st.integers(0, 20).map(str),
        st.tuples(st.integers(0, 30), st.integers(1, 12)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    )
    factor = st.tuples(st.sampled_from("xyzwT"), st.integers(0, 4)).map(
        lambda ve: ve[0] if ve[1] == 1 else f"{ve[0]}^{ve[1]}"
    )
    factors = st.lists(factor, min_size=1, max_size=4).map("*".join)
    term = st.one_of(
        coeff,
        factors,
        st.tuples(coeff, factors).map("*".join),
    )
    return st.tuples(
        st.booleans(), st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=8)
    ).map(lambda lt: ("-" if lt[0] else "") + " ".join(
        t if k == 0 else f"{s} {t}" for k, (s, t) in enumerate(lt[1])
    ))


@pytest.mark.parametrize("ctx", FIELDS)
def test_parser_matches_oracle_on_random_texts(ctx):
    @CHECKS
    @given(poly_texts())
    def check(text):
        assert_same_parse(text, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_parser_matches_oracle_on_damaged_texts(ctx):
    @CHECKS
    @given(poly_texts(), st.integers(0, 200), st.sampled_from(ALPHABET + "qX()"),
           st.booleans())
    def check(text, at, ch, insert):
        at %= len(text) + 1
        damaged = text[:at] + ch + text[at + (0 if insert else 1):]
        assert_same_parse(damaged, ctx)
        assert_same_parse(damaged, ctx, allow_T=False)

    check()
