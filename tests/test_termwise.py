"""Term-wise maps against the polynomial-arithmetic routes they replace.

``RingPolyT.eval_at_T`` and ``reverse_T`` send each term to a fixed set of
output terms in one pass; the oracle substitutes T by raising its image to
every power t as a ring element and multiplying each T^t slice by it.  The
text parser sums every term into one dict of raw coefficients; the oracle
builds an ``MPoly`` product per factor and an ``MPoly`` sum per term.
Both must give equal values in canonical (terms, den) form, and the parser
the same ``ParseError`` text and position on malformed input.  The parser
oracle runs on a copy of the character-loop tokenizer and the bracket
splitter that the regex tokenizer replaced, which also reads the composite
literals and ``--pair`` bodies the one reader now reads by token.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.errors import DivisionByZero, ParseError
from jouanolou.field import Fp, QQ, ascii_int
from jouanolou.homgrp import ReferenceFamily
from jouanolou.jring import RingElement, RingPolyT, mpoly_to_ring
from jouanolou.morphism import g_uv, make_map, make_row, n_pi
from jouanolou.polys import MPoly, canonical
from jouanolou.sl2 import PointedSL2, act, m_uv
from jouanolou.textio import parse_map, parse_pair, parse_poly, parse_sl2

F7 = Fp(7)
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7")]
CHECKS = settings(max_examples=80, deadline=None, derandomize=True)


# --- the substitution oracle ----------------------------------------------------


def substitute_T(p: RingPolyT, image: RingPolyT) -> RingPolyT:
    """T replaced by ``image``, an element of k[T]: each T^t slice of the
    terms is multiplied by image^t."""
    slices: dict = {}
    for (e, i, j, t), c in p.terms.items():
        slices.setdefault(t, {})[e, i, j, 0] = c
    out = RingPolyT.zero(p.ctx)
    for t, terms in slices.items():
        out = out + RingPolyT(p.ctx, *canonical(terms, p.den)) * image**t
    return out


def eval_oracle(p: RingPolyT, t) -> RingElement:
    at = substitute_T(p, RingPolyT.from_raw(p.ctx, t.val))
    return RingElement(at.ctx, {m[:3]: c for m, c in at.terms.items()}, at.den)


def reverse_oracle(p: RingPolyT) -> RingPolyT:
    return substitute_T(p, RingPolyT.one(p.ctx) - RingPolyT.gen_T(p.ctx))


def assert_canonical(r):
    ctx, terms, den = r.ctx, r.terms, r.den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in terms.values())
    assert all(len(m) == len(r.VARS) and m[0] <= 1 for m in terms)
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
    mon = st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2), st.integers(0, max_t))
    return st.dictionaries(mon, scalars(ctx), max_size=12).map(lambda raw: RingPolyT(ctx, raw))


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


# The reference reader: the character-loop tokenizer, the parser and the
# bracket splitter the regex tokenizer replaced, kept whole so that a change
# to either tokenizer shows.


class RefTok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def ref_tokenize(text: str) -> list[RefTok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if ascii_int(text[i:j], signed=False) is None:
                raise ParseError(f"bad number {text[i:j]!r}", position=i, expected="digits 0-9")
            toks.append(RefTok("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            toks.append(RefTok("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^[]|;":
            toks.append(RefTok(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", position=i)
    toks.append(RefTok("end", "", n))
    return toks


class RefParser:
    def __init__(self, text: str, ctx, allow_T: bool):
        self.toks = ref_tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.vars = ("x", "y", "z", "w", "T") if allow_T else ("x", "y", "z", "w")

    def peek(self) -> RefTok:
        return self.toks[self.i]

    def take(self, kind=None) -> RefTok:
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise ParseError(f"unexpected token {t.text!r}", position=t.pos, expected=kind)
        self.i += 1
        return t

    def parse_poly(self) -> MPoly:
        raw: dict = {}
        op = self.take().kind if self.peek().kind == "-" else "+"
        while True:
            mon, c = self.parse_term()
            raw[mon] = raw.get(mon, 0) + (c if op == "+" else -c)
            if self.peek().kind not in ("+", "-"):
                return MPoly(self.ctx, self.vars, raw)
            op = self.take().kind

    def parse_term(self):
        t = self.peek()
        mon = [0] * len(self.vars)
        if t.kind == "int":
            coeff = self.parse_coeff()
        elif t.kind == "name":
            coeff = self.ctx.rone
            self.parse_factor(mon)
        else:
            raise ParseError(f"unexpected token {t.text!r}", position=t.pos, expected="term")
        while self.peek().kind == "*":
            self.take()
            self.parse_factor(mon)
        return tuple(mon), coeff

    def parse_coeff(self):
        num = int(self.take("int").text)
        if self.peek().kind == "/":
            self.take()
            den = int(self.take("int").text)
            return self.ctx.rfrom_fraction(num, den)
        return self.ctx.rfrom_int(num)

    def parse_factor(self, mon: list):
        t = self.take("name")
        if t.text not in self.vars:
            raise ParseError(
                f"unknown variable {t.text!r}", position=t.pos, expected="|".join(self.vars)
            )
        e = 1
        if self.peek().kind == "^":
            self.take()
            e = int(self.take("int").text)
        mon[self.vars.index(t.text)] += e

    def expect_end(self):
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", position=t.pos, expected="end of input")


def ref_split_bracket(text: str):
    lb = text.find("[")
    rb = text.find("]", lb + 1)
    if lb < 0 or rb < 0:
        raise ParseError("unbalanced brackets in literal", position=len(text))
    tail = text[rb + 1 :]
    if tail.strip():
        position = len(text) - len(tail.lstrip())
        raise ParseError("trailing text after literal", position=position, expected="end of input")
    head = text[:lb].split()
    body = text[lb + 1 : rb]
    rows = [[cell.strip() for cell in row.split(";")] for row in body.split("|")]
    return head, rows


def ref_parse_ring(text, ctx):
    p = RefParser(text, ctx, False)
    out = p.parse_poly()
    p.expect_end()
    return mpoly_to_ring(out)


def ref_parse_map(text, ctx):
    text = text.strip()
    if "[" not in text:
        raise ParseError("expected a map or row literal", expected="map ... [...] or row [...]")
    head, rows = ref_split_bracket(text)
    if not head:
        raise ParseError("missing literal keyword", expected="map or row")
    if head[0] == "row":
        if len(head) != 1:
            raise ParseError("row literal takes no words before [", expected="row [A; B]")
        if len(rows) != 1 or len(rows[0]) != 2:
            raise ParseError("row literal needs [A; B]")
        A, B = (ref_parse_ring(s, ctx) for s in rows[0])
        return make_row(A, B)
    if head[0] == "map":
        if len(head) != 2:
            raise ParseError("map literal needs a degree", expected="map <n> [...]")
        n = ascii_int(head[1])
        if n is None:
            raise ParseError(f"bad map degree {head[1]!r}", expected="an integer")
        if n == 0:
            raise ParseError("a degree-0 map is a row literal", expected="row [A; B]")
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ParseError("map literal needs [a0; a1 | b0; b1]")
        a0, a1 = (ref_parse_ring(s, ctx) for s in rows[0])
        b0, b1 = (ref_parse_ring(s, ctx) for s in rows[1])
        return make_map(n, a0, a1, b0, b1)
    raise ParseError(f"unknown literal {head[0]!r}", expected="map or row")


def ref_parse_sl2(text, ctx):
    head, rows = ref_split_bracket(text.strip())
    if head != ["sl2"] or len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ParseError("matrix literal needs sl2 [A; -V | B; U]")
    e00, e01 = (ref_parse_ring(s, ctx) for s in rows[0])
    e10, e11 = (ref_parse_ring(s, ctx) for s in rows[1])
    return PointedSL2(((e00, e01), (e10, e11)))


def ref_parse_pair(text, ctx):
    """The --pair reading of ``jou resultant`` before the one reader."""
    parts = text.split("|")
    if len(parts) != 2:
        raise ParseError('pair must be "<S0>|<S1>"')
    return tuple([ref_parse_ring(t, ctx) for t in part.split(";")] for part in parts)


class OracleParser(RefParser):
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
        "x\u00a0+\u2003y",
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


def poly_texts(names="xyzwT"):
    """Texts of the grammar over the variables ``names``, nearly all well
    formed."""
    coeff = st.one_of(
        st.integers(0, 20).map(str),
        st.tuples(st.integers(0, 30), st.integers(1, 12)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    )
    factor = st.tuples(st.sampled_from(names), st.integers(0, 4)).map(
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


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x^\u00b2", "digits 0-9"),
        ("\u0663*x", "digits 0-9"),
        ("y + \uff17", "digits 0-9"),
        ("2/\u0663*y", "digits 0-9"),
        ("\u00e9", "x|y|z|w|T"),
        ("x + 2*\u00e9", "x|y|z|w|T"),
        ("x\u00b2 + 1", "x|y|z|w|T"),
        ("\u00bd*x", None),
    ],
)
def test_non_ascii_text_matches_oracle(text, expected):
    # the regex's classes are not str's: \d misses '²', which isdigit
    # takes, and a name starts at an isalpha character only
    got = assert_same_parse(text, QQ)
    assert got[0] is ParseError and (expected is None or f"(expected {expected})" in got[1])


# --- composite texts: the one reader against the splitting reference ------------

DAMAGE = ALPHABET + "qX()[];|,:\t\u00e9\u00b2\u0663"


def literal_texts(ctx):
    """The texts of valid map, row and matrix literals over ``ctx``."""
    from jouanolou.textio import map_str, sl2_str

    refs = ReferenceFamily(ctx)
    M = m_uv(ctx.elem(3), ctx.elem(2))
    maps = [n_pi(1, ctx), n_pi(2, ctx), refs.ref(-1), g_uv(ctx.elem(3), ctx.elem(2)),
            act(M, n_pi(1, ctx))]
    return [map_str(f) for f in maps] + [sl2_str(M), "map 1 [1;0|0;1]", "  row  [1; 0]  "]


def read_outcome(read, text, ctx):
    """ParseError, or another error's type and text, or the value read."""
    try:
        value = read(text, ctx)
    except ParseError:
        return ParseError
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, PointedSL2):
        return value
    return value if isinstance(value, tuple) else (value.degree, value.data)


def read_literal(read_map, read_sl2):
    return lambda text, ctx: (read_sl2 if text.startswith("sl2") else read_map)(text, ctx)


def damaged(text, at, ch, insert):
    at %= len(text) + 1
    return text[:at] + ch + text[at + (0 if insert else 1):]


@pytest.mark.parametrize("ctx", FIELDS)
def test_literals_match_the_splitting_reader_on_damaged_texts(ctx):
    new = read_literal(parse_map, parse_sl2)
    ref = read_literal(ref_parse_map, ref_parse_sl2)
    texts = literal_texts(ctx)
    for text in texts:
        assert read_outcome(new, text, ctx) == read_outcome(ref, text, ctx) != ParseError

    @CHECKS
    @given(st.sampled_from(texts), st.integers(0, 200), st.sampled_from(DAMAGE), st.booleans())
    def check(text, at, ch, insert):
        text = damaged(text, at, ch, insert)
        assert read_outcome(new, text, ctx) == read_outcome(ref, text, ctx)

    check()


@pytest.mark.parametrize(
    "text, want",
    [
        # the layout is refused before any cell is read ...
        ("map 1 [1/0; 0 | 0; 1] junk", ParseError),
        ("map 1 [1/0; 0 | 0; 1", ParseError),
        ("map 1 [1/0; 0 | 0]", ParseError),
        ("map x [1/0; 0 | 0; 1]", ParseError),
        ("sl2 [1/0; 0 | 0; 1; 0]", ParseError),
        ("1/0; x | y | z", ParseError),
        # ... then the cells in reading order, each a bad character first
        ("map 1 [1/0; 0 | 0; (]", DivisionByZero),
        ("map 1 [1; (1/0) | 0; 1]", ParseError),
        ("map 1 [1; 0 | 1/0 + q; \u00b2]", DivisionByZero),
        ("1/0; x | y; \u0663", DivisionByZero),
        ("x; y + ( | 1/0; z", ParseError),
    ],
)
def test_layout_first_then_cells_in_order(text, want):
    read = parse_pair if "[" not in text else read_literal(parse_map, parse_sl2)
    ref = ref_parse_pair if "[" not in text else read_literal(ref_parse_map, ref_parse_sl2)
    got = read_outcome(read, text, QQ)
    assert got == read_outcome(ref, text, QQ)
    assert (got if got is ParseError else got[0]) is want


def pair_texts():
    """Bare bodies ``c0; ...; cn | d0; ...; dm`` of T-free polynomials."""
    cells = st.lists(poly_texts("xyzw"), min_size=1, max_size=3).map("; ".join)
    return st.tuples(cells, cells).map(" | ".join)


@pytest.mark.parametrize("ctx", FIELDS)
def test_pair_bodies_match_the_splitting_reader_on_damaged_texts(ctx):
    # over F_7 a coefficient n/7 is a DivisionByZero: the layout is still
    # refused first, and the cells are read in order, as by the reference
    @CHECKS
    @given(pair_texts(), st.integers(0, 400), st.sampled_from(DAMAGE), st.booleans())
    def check(text, at, ch, insert):
        assert read_outcome(parse_pair, text, ctx) == read_outcome(ref_parse_pair, text, ctx)
        text = damaged(text, at, ch, insert)
        assert read_outcome(parse_pair, text, ctx) == read_outcome(ref_parse_pair, text, ctx)

    check()
