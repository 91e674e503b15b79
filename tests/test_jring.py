import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.errors import ContextMismatch, DivisionByZero
from jouanolou.field import Fp, QQ
from jouanolou.jring import (
    RingElement,
    RingPolyT,
    chart_pullback,
    mpoly_to_ring,
    mpoly_to_ringpolyt,
    normal_form,
)
from jouanolou.polys import MPoly, eval_terms
from jouanolou.textio import mpoly_str, parse_polyt, parse_ring, ring_str


def R(s, ctx=QQ):
    return parse_ring(s, ctx)


def test_defining_relations():
    assert R("x*w") == R("y*z")
    assert R("x^2") == R("x - y*z")
    assert R("x + w") == R("1")


def test_hand_reduced_determinant():
    e = R("2*x - 1")
    assert e * e + R("4*y*z") == RingElement.one(QQ)


def test_normal_form_from_string():
    assert normal_form("x*w", QQ) == R("y*z")


def test_basepoint_evaluation():
    assert R("x").eval_basepoint() == QQ.one
    assert R("2*x - 1").eval_basepoint() == QQ.one
    assert (R("y*z") + R("w")).eval_basepoint() == QQ.zero


def test_tau():
    assert R("y").tau() == R("z")
    assert R("x + y*w").tau() == R("x + z*w")
    e = R("3*y^2*z")
    assert e.tau().tau() == e
    # automorphism fixing the basepoint
    rng = random.Random(1)
    for _ in range(20):
        a = _random_elem(QQ, rng)
        b = _random_elem(QQ, rng)
        assert (a * b).tau() == a.tau() * b.tau()
        assert a.tau().eval_basepoint() == a.eval_basepoint()


def _random_elem(ctx, rng, deg=4):
    out = RingElement.zero(ctx)
    gens = [RingElement.gen_x(ctx), RingElement.gen_y(ctx), RingElement.gen_z(ctx)]
    for _ in range(4):
        term = RingElement.from_raw(ctx, ctx.rfrom_int(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, deg)):
            term = term * rng.choice(gens)
        out = out + term
    return out


@pytest.mark.parametrize("ctx", [QQ, Fp(7)])
def test_ring_axioms_random(ctx):
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (_random_elem(ctx, rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a - a == RingElement.zero(ctx)


def test_normal_form_is_homomorphism():
    rng = random.Random(13)
    V = ("x", "y", "z", "w")
    for _ in range(20):
        terms1 = {tuple(rng.randint(0, 2) for _ in V): QQ.rfrom_int(rng.randint(-3, 3))}
        terms2 = {tuple(rng.randint(0, 2) for _ in V): QQ.rfrom_int(rng.randint(-3, 3))}
        p1 = MPoly(QQ, V, {k: v for k, v in terms1.items() if v})
        p2 = MPoly(QQ, V, {k: v for k, v in terms2.items() if v})
        assert mpoly_to_ring(p1 * p2) == mpoly_to_ring(p1) * mpoly_to_ring(p2)
        assert mpoly_to_ring(p1 + p2) == mpoly_to_ring(p1) + mpoly_to_ring(p2)


def test_basepoint_is_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        a, b = _random_elem(QQ, rng), _random_elem(QQ, rng)
        assert (a * b).eval_basepoint() == a.eval_basepoint() * b.eval_basepoint()
        assert (a + b).eval_basepoint() == a.eval_basepoint() + b.eval_basepoint()


def test_chart_relations_vanish():
    for chart in ("phi0", "phi1"):
        assert chart_pullback(R("x + w"), chart) == chart_pullback(R("1"), chart)
        xw_minus_yz = R("x") * R("w") - R("y") * R("z")
        assert chart_pullback(xw_minus_yz, chart).is_zero


def test_chart_named_images():
    assert mpoly_str(chart_pullback(R("y"), "phi1")) == "t"
    assert mpoly_str(chart_pullback(R("z"), "phi0")) == "b"


def test_chart_is_homomorphism():
    rng = random.Random(3)
    for chart in ("phi0", "phi1"):
        a, b = _random_elem(QQ, rng, deg=2), _random_elem(QQ, rng, deg=2)
        assert chart_pullback(a * b, chart) == chart_pullback(a, chart) * chart_pullback(b, chart)


def test_polyt_evaluation():
    p = parse_polyt("x + T*y", QQ)
    assert p.eval_at_T(QQ.zero) == R("x")
    assert p.eval_at_T(QQ.one) == R("x + y")


def test_basepoint_curve():
    p = parse_polyt("T*x - T + w + 1", QQ)  # T*(x-1) + w + 1
    curve = p.basepoint_curve()
    assert curve[0] == QQ.one and all(c.is_zero for c in curve[1:])
    assert p.basepoint_constant() == QQ.one


def test_polyt_reverse():
    p = parse_polyt("x + T*y + T^2*z", QQ)
    q = p.reverse_T()
    assert q.eval_at_T(QQ.zero) == p.eval_at_T(QQ.one)
    assert q.eval_at_T(QQ.one) == p.eval_at_T(QQ.zero)
    assert q.reverse_T() == p


def test_arithmetic_across_fields_is_refused():
    q, f7 = R("3*x"), R("5*y", Fp(7))
    qt, f7t = parse_polyt("x + T", QQ), parse_polyt("T*y", Fp(7))
    for a, b in ((q, f7), (qt, f7t), (q, f7t), (qt, f7), (RingPolyT.zero(QQ), f7t)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ContextMismatch):
                op(a, b)
            with pytest.raises(ContextMismatch):
                op(b, a)
    # equal fields built separately still combine
    assert R("y", Fp(7)) * R("y", Fp(7)) == R("y^2", Fp(7))


def test_scale_by_a_field_element_of_another_field_refuses():
    half = QQ.elem(Fraction(1, 2))
    for r in (RingElement.gen_y(Fp(7)), RingPolyT.gen_T(Fp(7))):
        with pytest.raises(ContextMismatch):
            r.scale(half)
    with pytest.raises(ContextMismatch):
        RingElement.gen_y(QQ).scale(Fp(7).elem(3))
    assert RingElement.gen_y(Fp(7)).scale(Fp(7).elem(3)) == R("3*y", Fp(7))
    assert RingElement.gen_y(QQ).scale(half) == R("1/2*y")


def test_evaluation_at_a_parameter_of_another_field_refuses():
    half = QQ.elem(Fraction(1, 2))
    with pytest.raises(ContextMismatch):
        parse_polyt("x*T + y*T^2", Fp(7)).eval_at_T(half)
    with pytest.raises(ContextMismatch):
        parse_polyt("x*T + y*T^2", QQ).eval_at_T(Fp(7).elem(3))
    assert parse_polyt("x*T + y*T^2", QQ).eval_at_T(half) == R("1/2*x + 1/4*y")
    assert parse_polyt("x*T + y*T^2", Fp(7)).eval_at_T(Fp(7).elem(3)) == R("3*x + 2*y", Fp(7))


def test_negative_powers_refuse():
    # square-and-multiply on e < 0 would shift -1 >> 1 == -1 forever
    for base in (RingElement.gen_y(QQ), RingPolyT.gen_T(Fp(7)), MPoly.var(QQ, ("y",), "y")):
        with pytest.raises(ValueError):
            base ** -1
        with pytest.raises(ValueError):
            base ** -4
    assert R("2*y") ** 0 == RingElement.one(QQ)


def test_canonical_serialization_round_trip():
    rng = random.Random(11)
    for ctx in (QQ, Fp(7)):
        for _ in range(25):
            e = _random_elem(ctx, rng)
            assert parse_ring(ring_str(e), ctx) == e


def test_charts_agree_on_overlap_numerically():
    # a point of the surface with x != 0 has phi0-coordinates (a, b) = (y/x, z)
    # and phi1-coordinates (s, t) = (z/w, y) when w != 0; evaluating a ring
    # element through either chart matches direct evaluation
    import math

    rng = random.Random(17)
    for _ in range(10):
        r = _random_elem(QQ, rng, deg=3)
        p0 = chart_pullback(r, "phi0")
        p1 = chart_pullback(r, "phi1")
        theta = rng.uniform(0.3, math.pi - 0.3)
        xv = (1 + math.cos(theta)) / 2
        yv = zv = math.sin(theta) / 2
        wv = 1 - xv
        direct = r.eval_float(xv, yv, zv)

        def eval2(p, u, v):
            total = 0.0
            for mon, c in p.sorted_terms():
                total += float(c) * u ** mon[0] * v ** mon[1]
            return total

        assert eval2(p0, yv / xv, zv) == pytest.approx(direct, abs=1e-9)
        assert eval2(p1, zv / wv, yv) == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("ctx", [pytest.param(QQ, id="Q"), pytest.param(Fp(7), id="F7")])
@pytest.mark.parametrize(
    "vars",
    [("x", "y", "z"), ("x", "y", "z", "w"), ("x", "y", "z", "T"), ("w", "T", "x", "y", "z")],
)
def test_conversion_matches_evaluation_by_ring_products(ctx, vars):
    """The one-pass normal form (x^e and w^f by recurrence in yz) against
    evaluating every term with ring products of x, y, z, w = 1 - x and T;
    a T-free polynomial also converts into R[T]."""
    coeff = (
        st.integers(1, ctx.p - 1)
        if ctx.p is not None
        else st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
    )
    mon = st.tuples(*(st.integers(0, 6) for _ in vars))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.dictionaries(mon, coeff, max_size=8))
    def check(terms):
        p = MPoly(ctx, vars, terms)
        targets = [RingPolyT] if "T" in vars else [RingElement, RingPolyT]
        for cls in targets:
            images = [getattr(cls, f"gen_{v}")(ctx) for v in vars]
            want = eval_terms(p.terms, p.den, images, lambda raw: cls.from_raw(ctx, raw))
            got = mpoly_to_ringpolyt(p) if cls is RingPolyT else mpoly_to_ring(p)
            assert type(got) is cls and got == want

    check()


def test_an_element_of_R_T_refuses_a_float_value_without_T():
    p = parse_polyt("x*T + y", QQ)
    with pytest.raises(TypeError, match="eval_at_T"):
        p.eval_float(0.5, 0.1, 0.2)
    # at T = 1/2 it is x/2 + y, an element of R, which evaluates
    at = p.eval_at_T(QQ.elem(Fraction(1, 2)))
    assert at.eval_float(0.5, 0.1, 0.2) == pytest.approx(0.5 / 2 + 0.1)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_every_part_is_an_mpoly_in_its_rings_parts(ctx):
    """Both parts of every element, however built, are ``MPoly`` in the
    ring's ``PARTS``; a part of R and one of R[T] do not add."""
    half = ctx.elem(Fraction(1, 2))
    r = R("3/2*x*y^2 - z + 1", ctx) * R("x*z - 2*y", ctx)
    p = parse_polyt("x*T^2 + y*T - 1/3*z", ctx) * RingPolyT.gen_T(ctx)
    built = [
        *(getattr(cls, f"gen_{v}")(ctx) for cls in (RingElement, RingPolyT) for v in "xyzw"),
        RingPolyT.gen_T(ctx), RingElement.from_raw(ctx, ctx.rone), RingElement.zero(ctx),
        r, r * r, r + r, -r, r.scale(half), r.tau(),
        mpoly_to_ring(r.to_mpoly()), mpoly_to_ringpolyt(p.to_mpoly()),
        RingPolyT.from_ring(r), p + r, p * r, p.eval_at_T(half), p.reverse_T(), p.tau(),
    ]
    for e in built:
        for part in (e.a, e.b):
            assert type(part) is MPoly and part.vars == type(e).PARTS
    with pytest.raises(ValueError, match="different rings"):
        RingElement.gen_y(ctx).a + RingPolyT.gen_T(ctx).a


# ---------------------------------------------------------------------------
# exact division through the norm N(b) = b * sigma(b)


def _random_element(rng, cls, ctx, count):
    """An element of R or R[T] with up to ``count`` terms in x, y, z (and T)."""
    raw = {}
    for _ in range(count):
        mon = tuple(rng.randint(0, 2) for _ in cls.VARS)
        value = rng.randint(-4, 4)
        raw[mon] = ctx.rfrom_fraction(value, rng.randint(1, 3)) if ctx.p is None else value % ctx.p
    p = MPoly(ctx, cls.VARS, raw)
    return mpoly_to_ringpolyt(p) if cls is RingPolyT else mpoly_to_ring(p)


@pytest.mark.parametrize("cls", [RingElement, RingPolyT], ids=["R", "R[T]"])
@pytest.mark.parametrize("ctx", [QQ, Fp(7), Fp(2)], ids=str)
def test_divexact_inverts_the_product(ctx, cls):
    rng = random.Random(f"divexact:{cls.__name__}:{ctx.p}")
    tested = 0
    for _ in range(30):
        a, b = _random_element(rng, cls, ctx, 5), _random_element(rng, cls, ctx, 4)
        if b.is_zero:
            continue
        tested += 1
        assert (a * b).divexact(b) == a
        divide = b.divider()
        assert divide(a * b) == a and divide(b) == cls.one(ctx) and divide(a - a).is_zero
        # sigma is an involution, and the norm b * sigma(b) has no x part
        assert b.sigma().sigma() == b
        assert (b * b.sigma()).b.is_zero
    assert tested >= 25


@pytest.mark.parametrize("ctx", [QQ, Fp(7), Fp(2)], ids=str)
def test_divexact_across_R_and_R_T(ctx):
    a, b = R("x*y + z - 1", ctx), R("x + y*z", ctx)
    at = parse_polyt("x*T + y*T^2 - 1", ctx)
    assert (at * b).divexact(b) == at
    assert (a * b).divexact(RingPolyT.from_ring(b)) == RingPolyT.from_ring(a)
    assert RingPolyT.from_ring(a * b).divexact(b) == RingPolyT.from_ring(a)


@pytest.mark.parametrize("ctx", [QQ, Fp(7), Fp(2)], ids=str)
def test_divexact_refuses_an_inexact_division(ctx):
    one, x = RingElement.one(ctx), RingElement.gen_x(ctx)
    # x is no unit: its norm x*w = yz is not a constant
    assert (x * x.sigma()) == R("y*z", ctx)
    for a, b in ((one, x), (R("x + y", ctx), R("y*z + 1", ctx)), (R("y", ctx), R("y^2", ctx))):
        with pytest.raises(ArithmeticError, match="not an exact division"):
            a.divexact(b)
    with pytest.raises(ArithmeticError):
        parse_polyt("T", ctx).divexact(parse_polyt("x*T^2 + y", ctx))
    with pytest.raises(DivisionByZero):
        one.divexact(RingElement.zero(ctx))
