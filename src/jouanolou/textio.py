"""Canonical text grammar: parsing and bit-stable serialization.

Grammar (whitespace-insensitive)::

    poly   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := ('x'|'y'|'z'|'w'|'T') ('^' int)?
    coeff  := int | int '/' int
    int    := ('0'..'9')+
    body   := poly (';' poly)* ('|' poly (';' poly)*)*

Every integer of the text formats (these, scalars, field markers, map and
segment degrees, segment counts) is read by one rule, ``field.ascii_int``:
ASCII digits, a leading '-' only where a sign is meaningful.

Reading is split in two.  The reader, ``_read``, matches a well-formed
polynomial term by term with one regular expression, ``_TERM`` (a sign, a
``num[/den]`` coefficient, a run of factors); each factor run is read as an
exponent vector, and the coefficients are summed as ints over the lcm of
the denominators (over F_p, as residues) into one dict, settled once.  The
token parser, ``_Parser`` over the tokens of the regular expression
``_TOKEN``, runs only on a span the reader refuses, to say why: a name
outside the ring's variables (T in R), a non-ASCII digit, a leading '+', a
missing sign, a character outside the grammar.  The reader raises nothing
before its whole span has matched, then converts the terms in text order,
so every text is accepted or refused as the token parser would, with its
value or its error (type, message, position): a ``DivisionByZero`` or the
``ValueError`` of an int too long to convert comes from the same term.
Both read the text a caller gives (a literal, a ``--pair`` or ``--gens``
value, a witness file) or a span of it in place, so a ``ParseError``
position is an offset into that text.  A ``body`` is laid out by its '[',
';', '|' and ']' characters, each always a token of its own, before any
cell is read as a ``poly``, so a malformed layout is refused before a
cell's arithmetic.

Serialization is canonical: w eliminated, monomials sorted degrevlex
descending on (x, y, z, T), so golden files are stable and
``parse(serialize(v)) == v`` holds bit-exactly.

Composite literals: ``map <n> [a0; a1 | b0; b1]``, ``row [A; B]``,
``sl2 [A; -V | B; U]``: head words, then a bracketed body.  Witness files
carry a one-line header ``jouanolou/v1 field=<Q|Fp=p>`` followed by segment
blocks; their data lines carry checked labels, ``A``/``B`` in degree 0, else
``a0``/``a1``/``b0``/``b1``.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .errors import ParseError
from .field import FieldCtx, ascii_int
from .jring import RingElement, RingPolyT, mpoly_to_ring, mpoly_to_ringpolyt
from .polys import MPoly, settled

POLY_VARS = ("x", "y", "z", "w")
POLY_VARS_T = ("x", "y", "z", "w", "T")


# ---------------------------------------------------------------------------
# the reader

# One term, its sign first: sign, numerator, denominator, a first factor in
# place of a coefficient, the run of factors after either.  Only ASCII digits
# and the names x, y, z, w, T match, each name a whole token since no term
# may follow without a sign; whitespace is \s, what _TOKEN skips.  Like
# _TOKEN, it is compiled on first use (re's own cache): importing builds
# nothing.
_TERM = (
    r"\s*(?:([-+])\s*)?(?:([0-9]+)(?:\s*/\s*([0-9]+))?|(F))((?:\s*\*\s*F)*)\s*"
).replace("F", r"[xyzwT](?:\s*\^\s*[0-9]+)?")


def _exponents(run: str, vars: tuple) -> tuple:
    """The exponent vector of a factor run that ``_TERM`` matched."""
    mon = [0] * len(vars)
    for factor in run.split("*"):
        name, _, e = factor.partition("^")
        if name := name.strip():
            mon[vars.index(name)] += int(e) if e else 1
    return tuple(mon)


def _read(text: str, ctx: FieldCtx, allow_T: bool, start: int, end: int):
    """(terms, den) of the polynomial text[start:end] read term by term by
    ``_TERM``, or None when that text is not well formed in the ring's
    variables (a T in R included).  Nothing is raised before every term has
    matched; then the terms are converted in text order, each numerator,
    denominator and exponent in turn, so a DivisionByZero or an int too long
    to convert is raised where ``_Parser`` raises it."""
    if not allow_T and text.find("T", start, end) >= 0:
        return None
    match = re.compile(_TERM).match
    m = match(text, start, end)
    if m is None or m[1] == "+":
        return None
    found = [m.groups()]
    while (pos := m.end()) < end:
        m = match(text, pos, end)
        if m is None or m[1] is None:
            return None
        found.append(m.groups())
    vars = POLY_VARS_T if allow_T else POLY_VARS
    p = ctx.p
    rows = []
    for sign, num, den, first, run in found:
        c, d = (1 if num is None else int(num)), 1
        if den is not None:
            d = int(den)
            if p is not None or d == 0:
                c, d = ctx.rfrom_fraction(c, d), 1
        if first is not None:
            run = first + run
        rows.append((_exponents(run, vars), -c if sign == "-" else c, d))
    lcd = lcm(*{d for _, _, d in rows})
    acc: dict = {}
    for mon, c, d in rows:
        if d != lcd:
            c *= lcd // d
        acc[mon] = acc.get(mon, 0) + c
    return settled(ctx, acc, lcd)


# The token parser: it runs only on text the reader refuses, to say why.
# \d is str.isdecimal, [^\W_] str.isalnum; finditer skips only what no group
# takes, isspace.  Non-ASCII ints, names from '²' (not \d) or '½' are bad.
_TOKEN = r"(?P<int>\d+)|(?P<name>[^\W\d_][^\W_]*)|(?P<op>[-+*/^\[\]|;])|(?P<bad>\S)"


class _Parser:
    """Recursive descent over the tokens of text[start:end]: (kind, text,
    position in ``text``), an operator's kind being itself, then an "end"."""

    def __init__(self, text: str, ctx: FieldCtx, allow_T: bool, start: int = 0, end=None):
        end = len(text) if end is None else end
        self.toks = []
        for m in re.compile(_TOKEN).finditer(text, start, end):
            kind, tok = m.lastgroup, m[0]
            if kind == "op":
                kind = tok
            elif kind == "int" and not tok.isascii() or kind == "name" and not tok[0].isalpha():
                kind = "bad"
            self.toks.append((kind, tok, m.start()))
        self.toks.append(("end", "", end))
        self.i = 0
        self.ctx = ctx
        self.vars = POLY_VARS_T if allow_T else POLY_VARS

    def peek(self) -> str:
        return self.toks[self.i][0]

    def take(self, kind=None) -> str:
        k, text, pos = self.toks[self.i]
        if kind is not None and k != kind:
            raise ParseError(f"unexpected token {text!r}", position=pos, expected=kind)
        self.i += 1
        return text

    def poly(self, stop: int) -> MPoly:
        """The polynomial of the tokens up to index ``stop``: a bad
        character is refused first, then every term is summed into one dict
        of raw coefficients, cleared once."""
        for kind, text, pos in self.toks[self.i : stop]:
            if kind == "bad" and text[0].isdigit():
                raise ParseError(f"bad number {text!r}", position=pos, expected="digits 0-9")
            if kind == "bad":
                raise ParseError(f"unexpected character {text[0]!r}", position=pos)
        raw: dict = {}
        op = self.take() if self.peek() == "-" else "+"
        while op:
            mon, c = self.parse_term()
            raw[mon] = raw.get(mon, 0) + (c if op == "+" else -c)
            op = self.take() if self.peek() in ("+", "-") else None
        _, text, pos = self.toks[self.i]
        if self.i != stop:
            raise ParseError(f"trailing input {text!r}", position=pos, expected="end of input")
        return MPoly(self.ctx, self.vars, raw)

    def parse_term(self) -> tuple[tuple[int, ...], object]:
        """(exponent vector, raw coefficient) of one term."""
        kind, text, pos = self.toks[self.i]
        mon = [0] * len(self.vars)
        if kind == "int":
            coeff = self.parse_coeff()
        elif kind == "name":
            coeff = self.ctx.rone
            self.parse_factor(mon)
        else:
            raise ParseError(f"unexpected token {text!r}", position=pos, expected="term")
        while self.peek() == "*":
            self.take()
            self.parse_factor(mon)
        return tuple(mon), coeff

    def parse_coeff(self):
        num = int(self.take("int"))
        if self.peek() == "/":
            self.take()
            den = int(self.take("int"))
            return self.ctx.rfrom_fraction(num, den)
        return self.ctx.rfrom_int(num)

    def parse_factor(self, mon: list):
        """Add one factor's exponent into the exponent vector ``mon``."""
        pos = self.toks[self.i][2]
        name = self.take("name")
        if name not in self.vars:
            raise ParseError(
                f"unknown variable {name!r}", position=pos, expected="|".join(self.vars)
            )
        e = 1
        if self.peek() == "^":
            self.take()
            e = int(self.take("int"))
        mon[self.vars.index(name)] += e


def _poly(text: str, ctx: FieldCtx, allow_T: bool, start: int, end: int, close: int = 0) -> MPoly:
    """The polynomial of text[start:end], whose cell ends at a delimiter
    token of ``close`` (0 or 1) characters; a refusal is explained by the
    tokens of the cell and its delimiter, so error positions count in
    ``text``."""
    got = _read(text, ctx, allow_T, start, end)
    if got is None:
        p = _Parser(text, ctx, allow_T, start, end + close)
        return p.poly(len(p.toks) - 1 - close)
    return MPoly(ctx, POLY_VARS_T if allow_T else POLY_VARS, *got)


def _body(text: str, ctx: FieldCtx, start: int, stop: int):
    """The body text[start:stop], which a "]" at ``stop`` or the end of the
    text ends: the kinds of the tokens that end its cells, and the cells as
    elements of R, read as they are iterated.  ';', '|' and ']' are tokens
    of their own whatever surrounds them, so the body is laid out by its
    characters before any cell is read."""
    cuts = [m.start() for m in re.compile(r"[;|]").finditer(text, start, stop)]
    ends = [text[k] for k in cuts] + ["]" if stop < len(text) else "end"]
    spans = zip([start] + [k + 1 for k in cuts], cuts + [stop])
    return ends, (mpoly_to_ring(_poly(text, ctx, False, s, e, e < len(text))) for s, e in spans)


def parse_poly(text: str, ctx: FieldCtx, allow_T: bool = True, start: int = 0, end=None) -> MPoly:
    """The polynomial of text[start:end]; error positions count in ``text``."""
    return _poly(text, ctx, allow_T, start, len(text) if end is None else end)


def parse_ring(text: str, ctx: FieldCtx) -> RingElement:
    return mpoly_to_ring(parse_poly(text, ctx, allow_T=False))


def parse_polyt(text: str, ctx: FieldCtx, start: int = 0, end=None) -> RingPolyT:
    return mpoly_to_ringpolyt(parse_poly(text, ctx, True, start, end))


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


def _literal(text: str, ctx: FieldCtx, expected: str):
    """(head words, cell ends, cells) of ``head [body]``."""
    lb = text.find("[")
    if lb < 0:
        raise ParseError("literal has no '['", expected=expected)
    rb = text.find("]", lb)
    if rb < 0:
        raise ParseError("unbalanced brackets in literal", position=len(text))
    if text[rb + 1 :].strip():
        m = re.compile(_TOKEN).search(text, rb + 1)
        raise ParseError(f"trailing input {m[0]!r}", position=m.start(), expected="end of input")
    return (text[:lb].split(), *_body(text, ctx, lb + 1, rb))


def map_str(f) -> str:
    if f.degree == 0:
        return f"row [{ring_str(f.data[0])}; {ring_str(f.data[1])}]"
    a0, a1, b0, b1 = f.data
    return (
        f"map {f.degree} [{ring_str(a0)}; {ring_str(a1)} | {ring_str(b0)}; {ring_str(b1)}]"
    )


def parse_map(text: str, ctx: FieldCtx):
    from . import morphism

    head, ends, cells = _literal(text, ctx, "map ... [...] or row [...]")
    if not head:
        raise ParseError("missing literal keyword", expected="map or row")
    if head[0] == "row":
        if len(head) != 1:
            raise ParseError("row literal takes no words before [", expected="row [A; B]")
        if ends != [";", "]"]:
            raise ParseError("row literal needs [A; B]")
        return morphism.make_row(*cells)
    if head[0] == "map":
        if len(head) != 2:
            raise ParseError("map literal needs a degree", expected="map <n> [...]")
        n = ascii_int(head[1])
        if n is None:
            raise ParseError(f"bad map degree {head[1]!r}", expected="an integer")
        if n == 0:
            raise ParseError("a degree-0 map is a row literal", expected="row [A; B]")
        if ends != [";", "|", ";", "]"]:
            raise ParseError("map literal needs [a0; a1 | b0; b1]")
        return morphism.make_map(n, *cells)
    raise ParseError(f"unknown literal {head[0]!r}", expected="map or row")


def sl2_str(m) -> str:
    e = m.entries
    return (
        f"sl2 [{ring_str(e[0][0])}; {ring_str(e[0][1])} | {ring_str(e[1][0])}; {ring_str(e[1][1])}]"
    )


def parse_sl2(text: str, ctx: FieldCtx):
    from . import sl2 as _sl2

    head, ends, cells = _literal(text, ctx, "sl2 [A; -V | B; U]")
    if head != ["sl2"] or ends != [";", "|", ";", "]"]:
        raise ParseError("matrix literal needs sl2 [A; -V | B; U]")
    e00, e01, e10, e11 = cells
    return _sl2.PointedSL2(((e00, e01), (e10, e11)))


def parse_pair(text: str, ctx: FieldCtx) -> tuple[list[RingElement], list[RingElement]]:
    """The two coefficient lists of a bare body ``c0; ...; cn | d0; ...; dm``."""
    ends, cells = _body(text, ctx, 0, len(text))
    if ends.count("|") != 1:
        raise ParseError('pair must be "<S0>|<S1>"')
    cells, n = list(cells), ends.index("|") + 1
    return cells[:n], cells[n:]


# ---------------------------------------------------------------------------
# witness files

WITNESS_HEADER = "jouanolou/v1"
# the data line labels of a degree-0 segment and of any other
_LABELS = (("A", "B"), ("a0", "a1", "b0", "b1"))
# a line: a run of characters that are not str.splitlines boundaries
_LINE = re.compile(r"[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]+")


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

    spans = [m.span() for m in _LINE.finditer(text) if not m[0].isspace()]
    lines = [text[s:e].strip() for s, e in spans]
    fields = lines[0].split(None, 1) if lines else []
    if not fields or fields[0] != WITNESS_HEADER:
        raise ParseError("missing witness header", expected=WITNESS_HEADER)
    if len(fields) != 2 or not fields[1].startswith("field="):
        raise ParseError("witness header needs field=<...>")
    ctx = parse_field(fields[1][len("field=") :])
    if len(lines) < 2 or lines[1].split()[:1] != ["segments"]:
        raise ParseError("missing segment count", expected="segments <k>")
    count = _header_int(lines[1], "segments <k>", signed=False)
    if count == 0:
        raise ParseError("a witness needs at least one segment", expected="segments <k>, k >= 1")
    segments = []
    i = 2
    for _ in range(count):
        if i >= len(lines) or lines[i].split()[:2] != ["segment", "degree"]:
            raise ParseError("missing segment block", expected="segment degree <n>")
        degree = _header_int(lines[i], "segment degree <n>", signed=True)
        i += 1
        data = []
        for label in _LABELS[degree != 0]:
            if i >= len(lines) or ":" not in lines[i]:
                raise ParseError("missing segment polynomial line")
            start, end = spans[i]
            colon = text.index(":", start, end)
            if (got := text[start:colon].strip()) != label:
                raise ParseError(f"bad segment line label {got!r}", expected=label)
            data.append(parse_polyt(text, ctx, colon + 1, end))
            i += 1
        segments.append(Segment(degree, tuple(data)))
    if i != len(lines):
        raise ParseError("trailing lines after last segment")
    return ctx, HomotopyWitness(segments)
