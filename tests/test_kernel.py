"""Slow oracle for the arithmetic kernel: sympy expands what MPoly,
RingElement and RingPolyT compute, over Q and F_7.  For R[T], T is one more
free sympy variable.

Over F_7 the inputs are integer polynomials; sympy works over Q and its
coefficients are reduced mod 7 afterwards (reduction is a ring map, and the
divisor x^2 - x + yz is monic, so division commutes with it).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.field import Fp, QQ
from jouanolou.jring import RingPolyT, mpoly_to_ring, mpoly_to_ringpolyt
from jouanolou.polys import MPoly

sympy = pytest.importorskip("sympy")

F7 = Fp(7)
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")
XYZT = ("x", "y", "z", "T")
XYZWT = XYZW + ("T",)
SYMS = {name: sympy.Symbol(name) for name in XYZW + ("T",)}


def _terms(vars, ctx):
    coeff = (
        st.fractions(min_value=-4, max_value=4, max_denominator=3)
        if ctx.p is None
        else st.integers(1, ctx.p - 1)
    )
    mon = st.tuples(*(st.integers(0, 2) for _ in vars))
    return st.dictionaries(mon, coeff, max_size=4)


def polys(vars, ctx):
    return _terms(vars, ctx).map(
        lambda t: MPoly(ctx, vars, {m: ctx.rfrom_fraction(c.numerator, c.denominator)
                                    for m, c in t.items() if c})
    )


def to_sympy(p: MPoly):
    expr = sympy.Integer(0)
    for mon, c in p.terms.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(p.vars, mon):
            term *= SYMS[name] ** e
        expr += term
    return expr


def from_sympy(expr, vars, ctx) -> dict:
    """The term dict of a sympy polynomial, coefficients mapped into ctx."""
    out = {}
    poly = sympy.Poly(sympy.expand(expr), *(SYMS[v] for v in vars), domain="QQ")
    for mon, c in poly.terms():
        raw = ctx.rfrom_fraction(int(c.p), int(c.q))
        if raw:
            out[mon] = raw
    return out


def normal_form(expr):
    """sympy's normal form in R[T]: w = 1 - x, then the remainder in x by
    x^2 - x + yz."""
    x, y, z, w = (SYMS[v] for v in XYZW)
    expr = sympy.expand(expr.subs(w, 1 - x))
    return sympy.rem(expr, x**2 - x + y * z, x) if expr != 0 else expr


FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7")]
CHECKS = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.mark.parametrize("ctx", FIELDS)
def test_mpoly_arithmetic_matches_sympy_expand(ctx):
    @CHECKS
    @given(polys(XYZ, ctx), polys(XYZ, ctx), st.integers(0, 3))
    def check(p, q, e):
        sp, sq = to_sympy(p), to_sympy(q)
        assert (p + q).terms == from_sympy(sp + sq, XYZ, ctx)
        assert (p - q).terms == from_sympy(sp - sq, XYZ, ctx)
        assert (p * q).terms == from_sympy(sp * sq, XYZ, ctx)
        assert (p**e).terms == from_sympy(sp**e, XYZ, ctx)
        assert (-p).terms == from_sympy(-sp, XYZ, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_ring_products_match_sympy_remainder(ctx):
    x, y, z, w = (SYMS[v] for v in XYZW)

    @CHECKS
    @given(polys(XYZW, ctx), polys(XYZW, ctx))
    def check(p, q):
        got = (mpoly_to_ring(p) * mpoly_to_ring(q)).to_mpoly(XYZ)
        product = sympy.expand((to_sympy(p) * to_sympy(q)).subs(w, 1 - x))
        want = sympy.rem(product, x**2 - x + y * z, x) if product != 0 else product
        assert got.terms == from_sympy(want, XYZ, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_polyt_products_match_mpoly(ctx):
    @CHECKS
    @given(polys(XYZT, ctx), polys(XYZT, ctx))
    def check(p, q):
        got = mpoly_to_ringpolyt(p) * mpoly_to_ringpolyt(q)
        assert got.to_mpoly(XYZT) == mpoly_to_ringpolyt(p * q).to_mpoly(XYZT)
        total = mpoly_to_ringpolyt(p) + mpoly_to_ringpolyt(q)
        assert total.to_mpoly(XYZT) == mpoly_to_ringpolyt(p + q).to_mpoly(XYZT)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_polyt_arithmetic_matches_sympy_remainder(ctx):
    @CHECKS
    @given(polys(XYZWT, ctx), polys(XYZWT, ctx))
    def check(p, q):
        P, Q = mpoly_to_ringpolyt(p), mpoly_to_ringpolyt(q)
        sp, sq = to_sympy(p), to_sympy(q)
        for got, want in ((P, sp), (P + Q, sp + sq), (P - Q, sp - sq), (P * Q, sp * sq)):
            assert got.to_mpoly(XYZT).terms == from_sympy(normal_form(want), XYZT, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_mixed_r_and_polyt_operands_match_sympy_remainder(ctx):
    @CHECKS
    @given(polys(XYZW, ctx), polys(XYZWT, ctx))
    def check(p, q):
        r, t = mpoly_to_ring(p), mpoly_to_ringpolyt(q)
        sp, sq = to_sympy(p), to_sympy(q)
        cases = ((r * t, sp * sq), (t * r, sq * sp), (r + t, sp + sq),
                 (r - t, sp - sq), (t - r, sq - sp))
        for got, want in cases:
            assert type(got) is RingPolyT
            assert got.to_mpoly(XYZT).terms == from_sympy(normal_form(want), XYZT, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_polyt_substitutions_match_sympy(ctx):
    y, z, T = SYMS["y"], SYMS["z"], SYMS["T"]

    @CHECKS
    @given(polys(XYZWT, ctx), st.integers(-3, 3))
    def check(q, t):
        Q, sq = mpoly_to_ringpolyt(q), normal_form(to_sympy(q))
        at_t = Q.eval_at_T(ctx.elem(t)).to_mpoly(XYZ)
        assert at_t.terms == from_sympy(sq.subs(T, t), XYZ, ctx)
        reversed_ = Q.reverse_T().to_mpoly(XYZT)
        assert reversed_.terms == from_sympy(sq.subs(T, 1 - T), XYZT, ctx)
        swapped = sq.subs({y: z, z: y}, simultaneous=True)
        assert Q.tau().to_mpoly(XYZT).terms == from_sympy(swapped, XYZT, ctx)

    check()
