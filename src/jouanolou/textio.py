"""Canonical text grammar: parsing and bit-stable serialization.

Grammar (whitespace-insensitive)::

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := ('x'|'y'|'z'|'w'|'T') ('^' int)?
    coeff  := int | int '/' int
    int    := ('0'..'9')+

Every integer of the text formats (these, scalars, field markers, map and
segment degrees, segment counts) is read by one rule, ``field.ascii_int``:
ASCII digits, a leading '-' only where a sign is meaningful.

The parser sums every term, an exponent vector and a raw coefficient, into
one dict, which ``MPoly`` clears once.

Serialization is canonical: w eliminated, monomials sorted degrevlex
descending on (x, y, z, T), so golden files are stable and
``parse(serialize(v)) == v`` holds bit-exactly.

Composite literals: ``map <n> [a0; a1 | b0; b1]``, ``row [A; B]``,
``sl2 [A; -V | B; U]``.  Witness files carry a one-line header
``jouanolou/v1 field=<Q|Fp=p>`` followed by segment blocks; their data lines
carry checked labels, ``A``/``B`` in degree 0, else ``a0``/``a1``/``b0``/``b1``.
"""

from __future__ import annotations

from math import gcd

from .errors import ParseError
from .field import FieldCtx, ascii_int
from .jring import RingElement, RingPolyT, mpoly_to_ring, mpoly_to_ringpolyt
from .polys import MPoly

POLY_VARS = ("x", "y", "z", "w")
POLY_VARS_T = ("x", "y", "z", "w", "T")


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
            if ascii_int(text[i:j], signed=False) is None:
                raise ParseError(f"bad number {text[i:j]!r}", position=i, expected="digits 0-9")
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
        """Every term summed into one dict of raw coefficients, cleared once."""
        raw: dict = {}
        op = self.take().kind if self.peek().kind == "-" else "+"
        while True:
            mon, c = self.parse_term()
            raw[mon] = raw.get(mon, 0) + (c if op == "+" else -c)
            if self.peek().kind not in ("+", "-"):
                return MPoly(self.ctx, self.vars, raw)
            op = self.take().kind

    def parse_term(self) -> tuple[tuple[int, ...], object]:
        """(exponent vector, raw coefficient) of one term."""
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
        """Add one factor's exponent into the exponent vector ``mon``."""
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


def _mon_str(vars, mon) -> str:
    parts = []
    for name, e in zip(vars, mon):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _print_key(mon: tuple) -> tuple:
    """Sort key of the printed order: ascending keys are degrevlex
    descending, the order of ``drl_key`` with larger first."""
    return (-sum(mon),) + mon[::-1]


def _terms_str(vars, rationals: bool, terms) -> str:
    """The text of a polynomial given as (key, exponent vector, int value,
    den) tuples in printed order.  Over Q each value is reduced against its
    den by one gcd; over F_p den is 1 and values lie in [1, p)."""
    pieces = []
    for _, mon, c, den in terms:
        neg = rationals and c < 0
        if neg:
            c = -c
        if den != 1 and (g := gcd(c, den)) != 1:
            c //= g
            den //= g
        coeff = str(c) if den == 1 else f"{c}/{den}"
        ms = _mon_str(vars, mon)
        if not ms:
            body = coeff
        elif c == 1 and den == 1:
            body = ms
        else:
            body = f"{coeff}*{ms}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces) if pieces else "0"


def mpoly_str(p: MPoly) -> str:
    den = p.den
    terms = sorted((_print_key(m), m, c, den) for m, c in p.terms.items())
    return _terms_str(p.vars, p.ctx.is_rationals, terms)


# an element of R or R[T] is the polynomial of its normal form in its
# ring's VARS, and prints as one
ring_str = mpoly_str


def field_str(ctx: FieldCtx) -> str:
    return "Q" if ctx.is_rationals else f"Fp={ctx.p}"


def parse_field(text: str) -> FieldCtx:
    text = text.strip()
    if text == "Q":
        return FieldCtx()
    p = ascii_int(text[3:], signed=False) if text.startswith("Fp=") else None
    if p is not None:
        return FieldCtx(p)
    raise ParseError(f"unknown field {text!r}", expected="Q or Fp=<prime>")


# ---------------------------------------------------------------------------
# composite literals


def _split_bracket(text: str):
    """Return (head, cells) for ``head [c0; c1 | c2; c3]`` style literals;
    only blanks may follow the closing bracket."""
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


def map_str(f) -> str:
    if f.degree == 0:
        return f"row [{ring_str(f.data[0])}; {ring_str(f.data[1])}]"
    a0, a1, b0, b1 = f.data
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
        if len(head) != 1:
            raise ParseError("row literal takes no words before [", expected="row [A; B]")
        if len(rows) != 1 or len(rows[0]) != 2:
            raise ParseError("row literal needs [A; B]")
        A, B = (parse_ring(s, ctx) for s in rows[0])
        return morphism.make_row(A, B)
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
# the data line labels of a degree-0 segment and of any other
_LABELS = (("A", "B"), ("a0", "a1", "b0", "b1"))


def witness_str(w, ctx: FieldCtx) -> str:
    lines = [f"{WITNESS_HEADER} field={field_str(ctx)}", f"segments {len(w.segments)}"]
    for seg in w.segments:
        lines.append(f"segment degree {seg.degree}")
        for label, poly in zip(_LABELS[seg.degree != 0], seg.data):
            lines.append(f"{label}: {ring_str(poly)}")
    return "\n".join(lines) + "\n"


def _header_int(line: str, expected: str, signed: bool) -> int:
    """The integer in the last slot of ``expected`` on a witness line whose
    other words are those of ``expected``."""
    words, want = line.split(), expected.split()
    value = ascii_int(words[-1], signed) if len(words) == len(want) else None
    if value is None or words[:-1] != want[:-1]:
        raise ParseError(f"bad witness line {line!r}", expected=expected)
    return value


def parse_witness(text: str):
    """Parse a witness file; returns (ctx, HomotopyWitness)."""
    from .homotopy import HomotopyWitness, Segment

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    fields = lines[0].split(None, 1) if lines else []
    if not fields or fields[0] != WITNESS_HEADER:
        raise ParseError("missing witness header", expected=WITNESS_HEADER)
    if len(fields) != 2 or not fields[1].startswith("field="):
        raise ParseError("witness header needs field=<...>")
    ctx = parse_field(fields[1][len("field=") :])
    if len(lines) < 2 or not lines[1].startswith("segments"):
        raise ParseError("missing segment count", expected="segments <k>")
    count = _header_int(lines[1], "segments <k>", signed=False)
    if count == 0:
        raise ParseError("a witness needs at least one segment", expected="segments <k>, k >= 1")
    segments = []
    i = 2
    for _ in range(count):
        if i >= len(lines) or not lines[i].startswith("segment degree"):
            raise ParseError("missing segment block", expected="segment degree <n>")
        degree = _header_int(lines[i], "segment degree <n>", signed=True)
        i += 1
        data = []
        for label in _LABELS[degree != 0]:
            if i >= len(lines) or ":" not in lines[i]:
                raise ParseError("missing segment polynomial line")
            got, poly_text = lines[i].split(":", 1)
            if (got := got.rstrip()) != label:
                raise ParseError(f"bad segment line label {got!r}", expected=label)
            data.append(parse_polyt(poly_text, ctx))
            i += 1
        segments.append(Segment(degree, tuple(data)))
    if i != len(lines):
        raise ParseError("trailing lines after last segment")
    return ctx, HomotopyWitness(segments)
