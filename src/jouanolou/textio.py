"""Canonical text grammar: parsing and bit-stable serialization.

Grammar (whitespace-insensitive)::

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := ('x'|'y'|'z'|'w'|'T') ('^' uint)?
    coeff  := int | int '/' int

Serialization is canonical: w eliminated, monomials sorted degrevlex
descending on (x, y, z, T), so golden files are stable and
``parse(serialize(v)) == v`` holds bit-exactly.

Composite literals: ``map <n> [a0; a1 | b0; b1]``, ``row [A; B]``,
``sl2 [A; -V | B; U]``.  Witness files carry a one-line header
``jouanolou/v1 field=<Q|Fp=p>`` followed by segment blocks.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .field import FieldCtx
from .jring import RingElement, RingPolyT, mpoly_to_ring, mpoly_to_ringpolyt
from .polys import MPoly

POLY_VARS = ("x", "y", "z", "w")
POLY_VARS_T = ("x", "y", "z", "w", "T")
PRINT_VARS = ("x", "y", "z")
PRINT_VARS_T = ("x", "y", "z", "T")


# ---------------------------------------------------------------------------
# tokenizer


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
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
            toks.append(_Tok("int", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^[]|;":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", position=i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, ctx: FieldCtx, allow_T: bool):
        self.toks = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.vars = POLY_VARS_T if allow_T else POLY_VARS

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self, kind=None) -> _Tok:
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise ParseError(f"unexpected token {t.text!r}", position=t.pos, expected=kind)
        self.i += 1
        return t

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

    def parse_coeff(self):
        num = int(self.take("int").text)
        if self.peek().kind == "/":
            self.take()
            den = int(self.take("int").text)
            return self.ctx.rfrom_fraction(num, den)
        return self.ctx.rfrom_int(num)

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

    def expect_end(self):
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", position=t.pos, expected="end of input")


def parse_poly(text: str, ctx: FieldCtx, allow_T: bool = True) -> MPoly:
    p = _Parser(text, ctx, allow_T)
    out = p.parse_poly()
    p.expect_end()
    return out


def parse_ring(text: str, ctx: FieldCtx) -> RingElement:
    return mpoly_to_ring(parse_poly(text, ctx, allow_T=False))


def parse_polyt(text: str, ctx: FieldCtx) -> RingPolyT:
    return mpoly_to_ringpolyt(parse_poly(text, ctx, allow_T=True))


# ---------------------------------------------------------------------------
# serialization


def _coeff_str(raw) -> str:
    if isinstance(raw, Fraction) and raw.denominator != 1:
        return f"{raw.numerator}/{raw.denominator}"
    return str(raw)


def _mon_str(vars, mon) -> str:
    parts = []
    for name, e in zip(vars, mon):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def mpoly_str(p: MPoly) -> str:
    if p.is_zero:
        return "0"
    rationals = p.ctx.is_rationals
    pieces = []
    for mon, c in p.sorted_terms():
        neg = rationals and c < 0
        mag = -c if neg else c
        ms = _mon_str(p.vars, mon)
        if not ms:
            body = _coeff_str(mag)
        elif mag == 1:
            body = ms
        else:
            body = f"{_coeff_str(mag)}*{ms}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def ring_str(r: RingElement) -> str:
    return mpoly_str(r.to_mpoly(PRINT_VARS))


def polyt_str(p: RingPolyT) -> str:
    return mpoly_str(p.to_mpoly(PRINT_VARS_T))


def field_str(ctx: FieldCtx) -> str:
    return "Q" if ctx.is_rationals else f"Fp={ctx.p}"


def parse_field(text: str) -> FieldCtx:
    text = text.strip()
    if text == "Q":
        return FieldCtx()
    if text.startswith("Fp="):
        return FieldCtx(int(text[3:]))
    raise ParseError(f"unknown field {text!r}", expected="Q or Fp=<prime>")


# ---------------------------------------------------------------------------
# composite literals


def _split_bracket(text: str):
    """Return (head, cells) for ``head [c0; c1 | c2; c3]`` style literals."""
    lb = text.find("[")
    rb = text.rfind("]")
    if lb < 0 or rb < lb:
        raise ParseError("unbalanced brackets in literal", position=len(text))
    head = text[:lb].split()
    body = text[lb + 1 : rb]
    rows = [[cell.strip() for cell in row.split(";")] for row in body.split("|")]
    return head, rows


def map_str(f) -> str:
    if f.degree == 0:
        return f"row [{ring_str(f.row[0])}; {ring_str(f.row[1])}]"
    a0, a1, b0, b1 = f.coeffs
    return (
        f"map {f.degree} [{ring_str(a0)}; {ring_str(a1)} | {ring_str(b0)}; {ring_str(b1)}]"
    )


def parse_map(text: str, ctx: FieldCtx):
    from . import morphism

    text = text.strip()
    if "[" not in text:
        raise ParseError("expected a map or row literal", expected="map ... [...] or row [...]")
    head, rows = _split_bracket(text)
    if not head:
        raise ParseError("missing literal keyword", expected="map or row")
    if head[0] == "row":
        if len(rows) != 1 or len(rows[0]) != 2:
            raise ParseError("row literal needs [A; B]")
        A, B = (parse_ring(s, ctx) for s in rows[0])
        return morphism.make_row(A, B)
    if head[0] == "map":
        if len(head) != 2:
            raise ParseError("map literal needs a degree", expected="map <n> [...]")
        n = int(head[1])
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ParseError("map literal needs [a0; a1 | b0; b1]")
        a0, a1 = (parse_ring(s, ctx) for s in rows[0])
        b0, b1 = (parse_ring(s, ctx) for s in rows[1])
        return morphism.make_map(n, a0, a1, b0, b1)
    raise ParseError(f"unknown literal {head[0]!r}", expected="map or row")


def sl2_str(m) -> str:
    e = m.entries
    return (
        f"sl2 [{ring_str(e[0][0])}; {ring_str(e[0][1])} | {ring_str(e[1][0])}; {ring_str(e[1][1])}]"
    )


def parse_sl2(text: str, ctx: FieldCtx):
    from . import sl2 as _sl2

    head, rows = _split_bracket(text.strip())
    if head != ["sl2"] or len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ParseError("matrix literal needs sl2 [A; -V | B; U]")
    e00, e01 = (parse_ring(s, ctx) for s in rows[0])
    e10, e11 = (parse_ring(s, ctx) for s in rows[1])
    return _sl2.PointedSL2(((e00, e01), (e10, e11)))


# ---------------------------------------------------------------------------
# witness files

WITNESS_HEADER = "jouanolou/v1"


def witness_str(w, ctx: FieldCtx) -> str:
    lines = [f"{WITNESS_HEADER} field={field_str(ctx)}", f"segments {len(w.segments)}"]
    for seg in w.segments:
        lines.append(f"segment degree {seg.degree}")
        labels = ("A", "B") if seg.degree == 0 else ("a0", "a1", "b0", "b1")
        for label, poly in zip(labels, seg.data):
            lines.append(f"{label}: {polyt_str(poly)}")
    return "\n".join(lines) + "\n"


def _header_int(line: str, expected: str) -> int:
    """The integer in the last slot of ``expected`` on a witness line."""
    try:
        return int(line.split()[len(expected.split()) - 1])
    except (IndexError, ValueError):
        raise ParseError(f"bad witness line {line!r}", expected=expected) from None


def parse_witness(text: str):
    """Parse a witness file; returns (ctx, HomotopyWitness)."""
    from .homotopy import HomotopyWitness, Segment

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(WITNESS_HEADER):
        raise ParseError("missing witness header", expected=WITNESS_HEADER)
    fields = lines[0].split(None, 1)
    if len(fields) != 2 or not fields[1].startswith("field="):
        raise ParseError("witness header needs field=<...>")
    ctx = parse_field(fields[1][len("field=") :])
    if len(lines) < 2 or not lines[1].startswith("segments"):
        raise ParseError("missing segment count", expected="segments <k>")
    count = _header_int(lines[1], "segments <k>")
    segments = []
    i = 2
    for _ in range(count):
        if i >= len(lines) or not lines[i].startswith("segment degree"):
            raise ParseError("missing segment block", expected="segment degree <n>")
        degree = _header_int(lines[i], "segment degree <n>")
        i += 1
        width = 2 if degree == 0 else 4
        data = []
        for _ in range(width):
            if i >= len(lines) or ":" not in lines[i]:
                raise ParseError("missing segment polynomial line")
            _, poly_text = lines[i].split(":", 1)
            data.append(parse_polyt(poly_text, ctx))
            i += 1
        segments.append(Segment(degree, tuple(data)))
    if i != len(lines):
        raise ParseError("trailing lines after last segment")
    return ctx, HomotopyWitness(segments)
