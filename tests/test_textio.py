import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.errors import DivisionByZero, ParseError
from jouanolou.field import Fp, QQ
from jouanolou.homotopy import constant_witness, scaling_witness, verify
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import g_uv, make_map, map_equal, n_pi
from jouanolou.polys import MPoly
from jouanolou.sl2 import act, complete_pointed, m_uv
from jouanolou import textio


def test_ring_round_trip_examples():
    cases = ["0", "1", "x", "2*x - 1", "-y*z + x", "1/2*x*y^2 - 3", "y*z + 3"]
    for text in cases:
        e = textio.parse_ring(text, QQ)
        assert textio.parse_ring(textio.ring_str(e), QQ) == e


def test_serialization_is_canonical_and_stable():
    e1 = textio.parse_ring("x + y*z", QQ)
    e2 = textio.parse_ring("y*z + x", QQ)
    assert textio.ring_str(e1) == textio.ring_str(e2) == "y*z + x"


def test_normal_form_in_parser():
    assert textio.ring_str(textio.parse_ring("x*w", QQ)) == "y*z"
    assert textio.ring_str(textio.parse_ring("x^2", QQ)) == "-y*z + x"
    assert textio.ring_str(textio.parse_ring("w", QQ)) == "-x + 1"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        textio.parse_ring("2*x -", QQ)
    with pytest.raises(ParseError):
        textio.parse_ring("x + q", QQ)
    with pytest.raises(ParseError):
        textio.parse_ring("T", QQ)  # T excluded from plain ring expressions
    with pytest.raises(ParseError):
        textio.parse_map("row [2*x-1; 2*y", QQ)


def test_leading_minus_allowed():
    assert textio.parse_ring("-x + 1", QQ) == textio.parse_ring("1 - x", QQ)


def test_map_literals():
    pi = textio.parse_map("map 1 [1; 0 | 0; 1]", QQ)
    assert map_equal(pi, n_pi(1, QQ))
    tilde = textio.parse_map("map -1 [1; 0 | 0; -1]", QQ)
    assert tilde.degree == -1
    row = textio.parse_map("row [2*x - 1; 2*y]", QQ)
    assert map_equal(row, g_uv(QQ.one, QQ.elem(-1)))


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (textio.parse_map, "map 1 [1; 0 | 0; 1] trailing junk", 20),
        (textio.parse_map, "map 1 [1; 0 | 0; 1]]", 19),
        (textio.parse_map, "row [1; 0] 17", 11),
        (textio.parse_sl2, "sl2 [1; 0 | 0; 1] extra", 18),
    ],
)
def test_text_after_a_literal_is_a_parse_error(parse, text, position):
    with pytest.raises(ParseError, match="end of input") as info:
        parse(text, QQ)
    assert info.value.position == position
    assert parse(text[: text.index("]") + 1] + "  ", QQ) is not None


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (textio.parse_map, "map 1 [1; 0 | 0; 1 + q]", 21),
        (textio.parse_map, "map 1 [[1; 0 | 0; 1]", 7),
        (textio.parse_map, "  row [1; 2*q]", 12),
        (textio.parse_sl2, "sl2 [1; 0 | 0; 1 + q]", 19),
        (textio.parse_sl2, " sl2 [1; 0 | 0; 1]  x", 20),
    ],
)
def test_parse_error_positions_count_in_the_text_given(parse, text, position):
    # a cell's error is placed in the whole literal, not in the cut-out cell
    with pytest.raises(ParseError) as info:
        parse(text, QQ)
    assert info.value.position == position
    assert text[position] in "q[x"


def test_witness_parse_error_positions_count_in_the_file():
    text = textio.witness_str(constant_witness(n_pi(1, QQ)), QQ)
    bad = text.replace("\nb1: 1\n", "\nb1: 1 + q\n")
    with pytest.raises(ParseError, match="unknown variable 'q'") as info:
        textio.parse_witness(bad)
    assert info.value.position == 75 and bad[75] == "q"


@pytest.mark.parametrize("degree", ["x", "1.5", "2a", "1_0", "+1", "\u0661"])
def test_map_degree_must_be_an_integer(degree):
    with pytest.raises(ParseError, match="expected an integer"):
        textio.parse_map(f"map {degree} [1; 0 | 0; 1]", QQ)


@pytest.mark.parametrize("degree", ["0", "-0", "00"])
def test_a_degree_zero_map_literal_points_to_the_row_form(degree):
    with pytest.raises(ParseError, match="expected row") as info:
        textio.parse_map(f"map {degree} [1; 0 | 0; 1]", QQ)
    assert info.value.expected == "row [A; B]"
    assert textio.parse_map("row [1; 0]", QQ).degree == 0


@pytest.mark.parametrize("text", ["row junk words [1; 0]", "row 0 [1; 0]", "row row [1; 0]"])
def test_row_literals_take_no_words_before_the_bracket(text):
    with pytest.raises(ParseError) as info:
        textio.parse_map(text, QQ)
    assert info.value.expected == "row [A; B]"
    assert textio.map_str(textio.parse_map("  row  [1; 0]", QQ)) == "row [1; 0]"


def test_map_round_trip():
    maps = [
        n_pi(1, QQ),
        n_pi(2, QQ),
        g_uv(QQ.elem(3), QQ.elem(2)),
        make_map(-1, RingElement.one(QQ), RingElement.zero(QQ), RingElement.zero(QQ), -RingElement.one(QQ)),
    ]
    for f in maps:
        assert map_equal(textio.parse_map(textio.map_str(f), QQ), f)


def test_sl2_round_trip():
    M = m_uv(QQ.elem(3), QQ.elem(2))
    assert textio.parse_sl2(textio.sl2_str(M), QQ) == M


def test_field_markers():
    assert textio.field_str(QQ) == "Q"
    assert textio.field_str(Fp(7)) == "Fp=7"
    assert textio.parse_field("Fp=11") == Fp(11)
    with pytest.raises(ParseError):
        textio.parse_field("R")


def test_witness_file_round_trip():
    g = g_uv(QQ.elem(3), QQ.one)
    w = scaling_witness(complete_pointed(g), QQ.elem(2))
    text = textio.witness_str(w, QQ)
    assert text.startswith("jouanolou/v1 field=Q\n")
    ctx, loaded = textio.parse_witness(text)
    assert ctx == QQ
    # the reloaded witness (certificates are not serialized) still verifies
    assert verify(loaded, g, g_uv(QQ.elem(12), QQ.elem(4)))
    # bit-stable
    assert textio.witness_str(loaded, ctx) == text


def test_witness_file_over_prime_field():
    F5 = Fp(5)
    pi = n_pi(1, F5)
    text = textio.witness_str(constant_witness(pi), F5)
    ctx, loaded = textio.parse_witness(text)
    assert ctx == F5
    assert verify(loaded, pi, pi)


def test_witness_header_required():
    with pytest.raises(ParseError):
        textio.parse_witness("segments 1\n")


@pytest.mark.parametrize("header", ["jouanolou/v1junk field=Q", "jouanolou/v10 field=Q"])
def test_witness_header_word_must_equal_the_version(header):
    # the first word is the format version itself, not a prefix of it
    good = textio.witness_str(constant_witness(n_pi(1, QQ)), QQ)
    assert good.startswith(f"{textio.WITNESS_HEADER} field=Q\n")
    with pytest.raises(ParseError) as exc:
        textio.parse_witness(good.replace(f"{textio.WITNESS_HEADER} field=Q", header, 1))
    assert exc.value.expected == textio.WITNESS_HEADER
    assert textio.parse_witness(good)[0] == QQ


@pytest.mark.parametrize(
    "body, expected",
    [
        ("segments\n", "segments <k>"),
        ("segments abc\n", "segments <k>"),
        ("segments 1\nsegment degree\n", "segment degree <n>"),
        ("segments 1\nsegment degree one\n", "segment degree <n>"),
        # int() alone takes a plus sign, underscores and non-ASCII digits
        ("segments \u0661\n", "segments <k>"),
        ("segments +1\n", "segments <k>"),
        ("segments 0\n", "segments <k>, k >= 1"),
        ("segments 1\nsegment degree \u0661\n", "segment degree <n>"),
        ("segments 1\nsegment degree 1_0\n", "segment degree <n>"),
        # header words are whole words
        ("segmentsX 1\n", "segments <k>"),
        ("segments1\n", "segments <k>"),
        ("segments 1\nsegmentdegree 1\n", "segment degree <n>"),
        ("segments 1\nsegment degrees 1\n", "segment degree <n>"),
        ("segments 1\nsegments degree 1\n", "segment degree <n>"),
    ],
)
def test_witness_counts_must_be_integers(body, expected):
    with pytest.raises(ParseError) as exc:
        textio.parse_witness(f"{textio.WITNESS_HEADER} field=Q\n{body}")
    assert exc.value.expected == expected


@pytest.mark.parametrize("sep", ["  ", "\t", " \t "])
def test_witness_header_words_split_at_any_blanks(sep):
    good = textio.witness_str(constant_witness(n_pi(1, QQ)), QQ)
    text = good.replace("segments 1", f"segments{sep}1").replace(
        "segment degree 1", f"segment{sep}degree{sep}1")
    assert text != good
    _, w = textio.parse_witness(text)
    assert [(s.degree, s.data) for s in w.segments] == [
        (s.degree, s.data) for s in textio.parse_witness(good)[1].segments
    ]


@pytest.mark.parametrize(
    "text", ["Fp=abc", "Fp=", "Fp=-7", "Fp=7x", "F7", "Fp=\u0667", "Fp=\uff17"]
)
def test_malformed_field_markers_are_parse_errors(text):
    with pytest.raises(ParseError) as exc:
        textio.parse_field(text)
    assert exc.value.expected == "Q or Fp=<prime>"
    with pytest.raises(ParseError) as exc:
        textio.parse_witness(f"{textio.WITNESS_HEADER} field={text}\nsegments 0\n")
    assert exc.value.expected == "Q or Fp=<prime>"


@pytest.mark.parametrize("text", ["\u0663*x", "x^\u0662", "x^\u00b2", "2/\u0663*y"])
def test_ring_text_takes_ascii_digits_only(text):
    with pytest.raises(ParseError, match="expected digits 0-9"):
        textio.parse_ring(text, QQ)


def _relabelled(text: str, labels) -> str:
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ":" in ln]
    for i, label in zip(data, labels):
        lines[i] = label + ":" + lines[i].split(":", 1)[1]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "degree, labels",
    [
        (3, ("A", "B", "C", "D")),
        (3, ("a0", "a1", "b1", "b0")),
        (3, ("a0", "a1", "b0", "B")),
        (0, ("a0", "a1")),
        (0, ("B", "A")),
    ],
)
def test_witness_data_lines_must_carry_their_labels(degree, labels):
    f = n_pi(degree, QQ) if degree else g_uv(QQ.elem(3), QQ.one)
    text = textio.witness_str(constant_witness(f), QQ)
    ctx, loaded = textio.parse_witness(text)
    assert textio.witness_str(loaded, ctx) == text
    with pytest.raises(ParseError):
        textio.parse_witness(_relabelled(text, labels))


def test_witness_denominator_divisible_by_p():
    text = textio.witness_str(constant_witness(n_pi(1, Fp(7))), Fp(7))
    lines = text.splitlines()
    assert lines[0].endswith("field=Fp=7") and lines[3].startswith("a0: ")
    lines[3] = "a0: 1/7*x"
    with pytest.raises(DivisionByZero):
        textio.parse_witness("\n".join(lines) + "\n")


def test_round_trip_random_maps_over_f7():
    rng = random.Random(23)
    ctx = Fp(7)
    for _ in range(10):
        u = ctx.elem(rng.randrange(1, 7))
        v = ctx.elem(rng.randrange(1, 7))
        f = g_uv(u, v)
        assert map_equal(textio.parse_map(textio.map_str(f), ctx), f)


def test_bit_exact_round_trips():
    # serialize twice through a parse: the strings must be identical
    cases_ring = ["y*z + 3*x - 1", "-1/2*x*y^2 + z"]
    for text in cases_ring:
        e = textio.parse_ring(text, QQ)
        assert textio.ring_str(textio.parse_ring(textio.ring_str(e), QQ)) == textio.ring_str(e)
    f = g_uv(QQ.elem(3), QQ.elem(2))
    s = textio.map_str(f)
    assert textio.map_str(textio.parse_map(s, QQ)) == s
    M = m_uv(QQ.elem(3), QQ.elem(2))
    sm = textio.sl2_str(M)
    assert textio.sl2_str(textio.parse_sl2(sm, QQ)) == sm


def test_canonical_form_of_mixed_expression():
    # 2*x - 1 + 3*y*z has normal form (3yz - 1) + x*2, printed degrevlex
    e = textio.parse_ring("2*x - 1 + 3*y*z", QQ)
    assert textio.ring_str(e) == "3*y*z + 2*x - 1"
    assert e.terms == {(0, 1, 1): 3, (0, 0, 0): -1, (1, 0, 0): 2} and e.den == 1


# --- ring text straight from the term dicts, against the MPoly route ---------

PRINT_FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Fp(7), id="F7"),
                pytest.param(Fp(1000003), id="F1000003")]
PRINT_CHECKS = settings(max_examples=80, deadline=None, derandomize=True)


def print_scalars(ctx):
    """Raw nonzero scalars: +-1 and small ones, p - 1 (that is -1) over
    F_p, and over Q numerators and denominators up to 2^64."""
    if ctx.p is not None:
        return st.one_of(st.sampled_from([1, ctx.p - 1]), st.integers(1, ctx.p - 1))
    big = st.integers(-(2**64), 2**64).filter(bool)
    return st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1)]),
        st.builds(Fraction, big, st.integers(1, 2**64)),
        st.integers(-3, 3).filter(bool).map(Fraction),
    )


def printed_elements(ctx, cls):
    """Elements of R or R[T]: zero and constants among them (empty or
    one-key term dicts)."""
    mon = st.tuples(st.integers(0, 1), *(st.integers(0, 3) for _ in cls.VARS[1:]))
    return st.dictionaries(mon, print_scalars(ctx), max_size=10).map(lambda raw: cls(ctx, raw))


@pytest.mark.parametrize("ctx", PRINT_FIELDS)
@pytest.mark.parametrize("cls", [RingElement, RingPolyT], ids=["R", "RT"])
def test_ring_str_equals_the_mpoly_route(ctx, cls):
    @PRINT_CHECKS
    @given(printed_elements(ctx, cls), printed_elements(ctx, cls))
    def check(r, s):
        for out in (r, r * s, r - s):
            # a plain polynomial cleared afresh from the raw coefficients
            plain = MPoly(ctx, cls.VARS, dict(out.sorted_terms()))
            assert textio.ring_str(out) == textio.mpoly_str(plain)

    check()


@pytest.mark.parametrize("cls", [RingElement, RingPolyT], ids=["R", "RT"])
@pytest.mark.parametrize("text, want", [
    ("0", "0"),
    ("5", "5"),
    ("-1", "-1"),
    ("-x*y + 1/2", "-x*y + 1/2"),
    ("-1/18446744073709551616*y^2 - z + x", "-1/18446744073709551616*y^2 + x - z"),
    ("2/4*x*z - 6/4*y", "1/2*x*z - 3/2*y"),
])
def test_ring_str_edge_cases(cls, text, want):
    r = textio.parse_ring(text, QQ)
    if cls is RingPolyT:
        r = RingPolyT.from_ring(r)
    assert textio.ring_str(r) == textio.mpoly_str(r.to_mpoly()) == want


def test_ring_str_over_a_prime_field_has_no_signs():
    r = textio.parse_polyt("-x*T + 1/2*y - 1", Fp(7))
    assert textio.ring_str(r) == "6*x*T + 4*y + 6"
    assert textio.ring_str(r) == textio.mpoly_str(r.to_mpoly())


# --- blanks between tokens ----------------------------------------------------

# next to these characters a blank splits no word or number of the formats
GLUE = "*^;|[]:"
BLANKS = st.lists(
    st.tuples(st.integers(0, 10**4), st.sampled_from([" ", "\t", "  ", " \t", "\t\t"])),
    max_size=10,
)


def blanked(text: str, inserts) -> str:
    """``text`` with blanks inserted at token boundaries: at either end of a
    line, next to a GLUE character, and next to a blank, so between the
    words of a witness header line too."""
    points, start = [], 0
    for line in text.split("\n"):
        points += [start + i for i in range(len(line) + 1)
                   if i in (0, len(line)) or line[i - 1] in GLUE or line[i] in GLUE
                   or " " in line[i - 1 : i + 1]]
        start += len(line) + 1
    for at, blank in sorted(((points[a % len(points)], b) for a, b in inserts), reverse=True):
        text = text[:at] + blank + text[at:]
    return text


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_blanks_between_tokens_change_nothing(ctx):
    from jouanolou.homgrp import ReferenceFamily

    M = m_uv(ctx.elem(3), ctx.elem(2))
    maps = [n_pi(1, ctx), n_pi(2, ctx), ReferenceFamily(ctx).ref(-1),
            g_uv(ctx.elem(3), ctx.elem(2)), act(M, n_pi(1, ctx))]
    witnesses = [constant_witness(n_pi(2, ctx)),
                 scaling_witness(complete_pointed(maps[3]), ctx.elem(2))]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, len(maps) - 1), st.integers(0, len(witnesses) - 1), BLANKS)
    def check(k, j, inserts):
        f = maps[k]
        g = textio.parse_map(blanked(textio.map_str(f), inserts), ctx)
        assert (g.degree, g.data) == (f.degree, f.data)
        assert textio.parse_sl2(blanked(textio.sl2_str(M), inserts), ctx) == M
        w = witnesses[j]
        got_ctx, got = textio.parse_witness(blanked(textio.witness_str(w, ctx), inserts))
        assert got_ctx == ctx
        assert [(s.degree, s.data) for s in got.segments] == [
            (s.degree, s.data) for s in w.segments
        ]

    check()
