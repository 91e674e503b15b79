import random

import pytest

from jouanolou.errors import ParseError
from jouanolou.field import Fp, QQ
from jouanolou.homotopy import constant_witness, scaling_witness, verify
from jouanolou.jring import RingElement
from jouanolou.morphism import g_uv, make_map, map_equal, n_pi
from jouanolou.sl2 import complete_pointed, m_uv
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


@pytest.mark.parametrize(
    "body, expected",
    [
        ("segments\n", "segments <k>"),
        ("segments abc\n", "segments <k>"),
        ("segments 1\nsegment degree\n", "segment degree <n>"),
        ("segments 1\nsegment degree one\n", "segment degree <n>"),
    ],
)
def test_witness_counts_must_be_integers(body, expected):
    with pytest.raises(ParseError) as exc:
        textio.parse_witness(f"{textio.WITNESS_HEADER} field=Q\n{body}")
    assert exc.value.expected == expected


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
    assert e.a.terms == {(1, 1): QQ.rfrom_int(3), (0, 0): QQ.rfrom_int(-1)}
    assert e.b.terms == {(0, 0): QQ.rfrom_int(2)}
