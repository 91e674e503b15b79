from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.errors import ContextMismatch, DivisionByZero, NotPrimeField, ParseError, ZeroInput
from jouanolou.field import (
    Fp,
    QQ,
    FieldCtx,
    discrete_log,
    is_square,
    multiplicative_generator,
    sqrt_witness,
)


def test_rational_arithmetic():
    assert QQ.elem(Fraction(1, 2)) + QQ.elem(Fraction(1, 3)) == QQ.elem(Fraction(5, 6))


def test_prime_field_arithmetic():
    F7 = Fp(7)
    assert F7.elem(3) * F7.elem(5) == F7.elem(1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.one / QQ.zero


@pytest.mark.parametrize("value", ["3/14", "1/-7", Fraction(1, 7), Fraction(-5, 21)])
def test_prime_field_denominator_divisible_by_p(value):
    with pytest.raises(DivisionByZero):
        Fp(7).elem(value)


def test_prime_field_parse_scalar_denominator_divisible_by_p():
    with pytest.raises(DivisionByZero):
        Fp(7).parse_scalar("3/14")
    assert Fp(7).parse_scalar("3/15") == Fp(7).elem(3) / Fp(7).elem(15)


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        Fp(5).elem(1) + Fp(7).elem(1)


def test_primality_checked():
    with pytest.raises(NotPrimeField):
        FieldCtx(6)


@pytest.mark.parametrize(
    "n",
    [
        318665857834031151167461,  # 399165290221 * 798330580441
        3317044064679887385961981,  # 1287836182261 * 2575672364521
    ],
)
def test_strong_pseudoprimes_to_all_bases_rejected(n):
    # both pass Miller-Rabin to the twelve bases 2..37; the first is psi_12
    with pytest.raises(NotPrimeField):
        FieldCtx(n)


def test_scalar_parsing():
    assert QQ.parse_scalar("-3/4") == QQ.elem(Fraction(-3, 4))
    assert Fp(7).parse_scalar("10") == Fp(7).elem(3)
    assert QQ.parse_scalar(" -3 / 4 ") == QQ.elem(Fraction(-3, 4))


@pytest.mark.parametrize(
    "text",
    ["abc", "", "1/", "/2", "1/x", "3.5", "1/2/3", "1_000", "+3", "\u0663", "\uff11", "1/\u0662"],
)
def test_malformed_scalars_are_parse_errors(text):
    for ctx in (QQ, Fp(7)):
        with pytest.raises(ParseError, match="<int> or <int>/<int>"):
            ctx.parse_scalar(text)


rationals = st.fractions(max_denominator=50)


@settings(max_examples=60)
@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    x, y, z = QQ.elem(a), QQ.elem(b), QQ.elem(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == QQ.zero
    if not y.is_zero:
        assert (x / y) * y == x


@settings(max_examples=60)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_field_axioms_f13(a, b, c):
    F = Fp(13)
    x, y, z = F.elem(a), F.elem(b), F.elem(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero:
        assert (x / y) * y == x


def test_square_witnesses():
    assert sqrt_witness(QQ.elem(Fraction(9, 4))) == QQ.elem(Fraction(3, 2))
    assert not is_square(Fp(5).elem(2))
    w = sqrt_witness(Fp(5).elem(4))
    assert w is not None and w * w == Fp(5).elem(4)
    with pytest.raises(ZeroInput):
        is_square(QQ.zero)


def test_generator_and_dlog():
    F5 = Fp(5)
    g = multiplicative_generator(F5)
    assert g == F5.elem(2)
    assert discrete_log(g, F5.elem(4)) == 2
    F7 = Fp(7)
    g7 = multiplicative_generator(F7)
    assert g7 == F7.elem(3)
    assert discrete_log(g7, F7.elem(6)) == 3
    # trivial group
    F2 = Fp(2)
    assert multiplicative_generator(F2) == F2.one
    assert discrete_log(F2.one, F2.one) == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_square_iff_even_dlog(p):
    F = Fp(p)
    g = multiplicative_generator(F)
    for v in range(1, p):
        elem = F.elem(v)
        brute = any(c * c == elem for c in F.elements())
        assert is_square(elem) == brute
        assert is_square(elem) == (discrete_log(g, elem) % 2 == 0)


def test_dlog_brute_force_agreement():
    for p in (5, 7, 11, 13):
        F = Fp(p)
        g = multiplicative_generator(F)
        for v in range(1, p):
            e = discrete_log(g, F.elem(v))
            assert g**e == F.elem(v)
