"""Slow oracle for the arithmetic kernel: sympy expands what MPoly,
RingElement and RingPolyT compute, over Q and F_7.  For R[T], T is one more
free sympy variable.

Over F_7 the inputs are integer polynomials; sympy works over Q and its
coefficients are reduced mod 7 afterwards (reduction is a ring map, and the
divisor x^2 - x + yz is monic, so division commutes with it).

``terms_mul``, and a sum of products with one addend ``acc`` (``acc``
times 1, through ``sum_of_scaled``), are also checked against the plain
loop on raw coefficients (large denominators, cancellation, every key
width): their operands are the stored int forms of the raw dicts, and the
canonical (terms, den) result must read back as the plain loop's
coefficients in the same key order.  Those
operands stay below ``PACK_MIN_PAIRS``, on the dict loop; the packed product
``packed_sum`` is called directly on small operands and must equal the dict
loop as dicts (its key order is its own), and the fused ``dot``, packed or
on the dict loop, must equal the running sum of products.  The two-level
route (``packed_sum`` split after a head) must equal the dict loop at
every split point, and the fold of ring sums in the packed integer the
loop's sum folded key by key (``fold_keys``).  The pairwise sum of
``eval_terms`` is checked against a running sum.

Two inner loops keep their plain forms here as oracles: ``_pack`` must
equal a byte-slice packing into two byte arrays at every slot width, and
``_mul_into``, one loop per key width, the one loop that adds keys by
``map``, key order included.
"""

import itertools
import random
import signal
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.field import Fp, QQ
from jouanolou.jring import RingElement, RingPolyT, mpoly_to_ring, mpoly_to_ringpolyt
from jouanolou import polys as kernel
from jouanolou.polys import (
    PACK_MIN_PAIRS,
    PACK_PAD_PER_PAIR,
    _mul_into,
    MPoly,
    cleared,
    dot,
    fold_keys,
    packed_sum,
    padded_work,
    raw_coeff,
    slot_bytes,
    settled,
    sum_of_scaled,
    terms_mul,
)

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


def raw_terms(p: MPoly) -> dict:
    """The boundary view of p: monomial -> raw coefficient (Fraction over Q),
    whatever the stored layout."""
    return dict(p.sorted_terms())


def to_sympy(p: MPoly):
    expr = sympy.Integer(0)
    for mon, c in raw_terms(p).items():
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
        assert raw_terms(p + q) == from_sympy(sp + sq, XYZ, ctx)
        assert raw_terms(p - q) == from_sympy(sp - sq, XYZ, ctx)
        assert raw_terms(p * q) == from_sympy(sp * sq, XYZ, ctx)
        assert raw_terms(p**e) == from_sympy(sp**e, XYZ, ctx)
        assert raw_terms(-p) == from_sympy(-sp, XYZ, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_ring_products_match_sympy_remainder(ctx):
    x, y, z, w = (SYMS[v] for v in XYZW)

    @CHECKS
    @given(polys(XYZW, ctx), polys(XYZW, ctx))
    def check(p, q):
        got = (mpoly_to_ring(p) * mpoly_to_ring(q)).to_mpoly()
        product = sympy.expand((to_sympy(p) * to_sympy(q)).subs(w, 1 - x))
        want = sympy.rem(product, x**2 - x + y * z, x) if product != 0 else product
        assert raw_terms(got) == from_sympy(want, XYZ, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_polyt_products_match_mpoly(ctx):
    @CHECKS
    @given(polys(XYZT, ctx), polys(XYZT, ctx))
    def check(p, q):
        got = mpoly_to_ringpolyt(p) * mpoly_to_ringpolyt(q)
        assert got.to_mpoly() == mpoly_to_ringpolyt(p * q).to_mpoly()
        total = mpoly_to_ringpolyt(p) + mpoly_to_ringpolyt(q)
        assert total.to_mpoly() == mpoly_to_ringpolyt(p + q).to_mpoly()

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_polyt_arithmetic_matches_sympy_remainder(ctx):
    @CHECKS
    @given(polys(XYZWT, ctx), polys(XYZWT, ctx))
    def check(p, q):
        P, Q = mpoly_to_ringpolyt(p), mpoly_to_ringpolyt(q)
        sp, sq = to_sympy(p), to_sympy(q)
        for got, want in ((P, sp), (P + Q, sp + sq), (P - Q, sp - sq), (P * Q, sp * sq)):
            assert raw_terms(got.to_mpoly()) == from_sympy(normal_form(want), XYZT, ctx)

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
            assert raw_terms(got.to_mpoly()) == from_sympy(normal_form(want), XYZT, ctx)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_polyt_substitutions_match_sympy(ctx):
    y, z, T = SYMS["y"], SYMS["z"], SYMS["T"]

    @CHECKS
    @given(polys(XYZWT, ctx), st.integers(-3, 3))
    def check(q, t):
        Q, sq = mpoly_to_ringpolyt(q), normal_form(to_sympy(q))
        at_t = Q.eval_at_T(ctx.elem(t)).to_mpoly()
        assert raw_terms(at_t) == from_sympy(sq.subs(T, t), XYZ, ctx)
        reversed_ = Q.reverse_T().to_mpoly()
        assert raw_terms(reversed_) == from_sympy(sq.subs(T, 1 - T), XYZT, ctx)
        swapped = sq.subs({y: z, z: y}, simultaneous=True)
        assert raw_terms(Q.tau().to_mpoly()) == from_sympy(swapped, XYZT, ctx)

    check()


# --- the product kernel against the plain coefficient loop -------------------


def plain_terms_mul(ctx, A, B, acc=None):
    """The product loop on raw coefficients: one Fraction multiply-add per
    pair of terms over Q, zero sums dropped at the end."""
    out = {} if acc is None else dict(acc)
    for m1, c1 in A.items():
        for m2, c2 in B.items():
            m = tuple(map(add, m1, m2))
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2
    if ctx.p is None:
        return {m: c for m, c in out.items() if c}
    return {m: r for m, c in out.items() if (r := c % ctx.p)}


BIG_PRIMES = [998244353, 2**31 - 1, 2**61 - 1, 2**64 - 59]


def _q_coefficients():
    """One coefficient family per operand: denominators up to 2^64 (pairwise
    coprime primes, or arbitrary), integers only, or small values that make
    sums cancel often."""
    big = st.integers(-(2**64), 2**64).filter(bool)
    return st.sampled_from([
        st.builds(Fraction, big, st.sampled_from(BIG_PRIMES)),
        st.builds(Fraction, big, st.integers(1, 2**64)),
        st.integers(-3, 3).filter(bool).map(Fraction),
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]),
    ])


def term_dicts(nvars, ctx, max_size=5):
    coeffs = st.just(st.integers(1, ctx.p - 1)) if ctx.p else _q_coefficients()
    mon = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    sizes = st.sampled_from([1, max_size])
    return st.tuples(coeffs, sizes).flatmap(
        lambda cs: st.dictionaries(mon, cs[0], min_size=1, max_size=cs[1])
    )


def stored_mul(ctx, A, B, acc=None):
    """terms_mul on the stored forms of the raw dicts A and B; with ``acc``,
    the settled sum of products acc * 1 + A * B (acc first, as the plain
    loop adds it)."""
    (a, dA), (b, dB) = cleared(ctx, A), cleared(ctx, B)
    if acc is None:
        return terms_mul(ctx, a, dA, b, dB)
    c, dC = cleared(ctx, acc)
    one = {(0,) * len(next(iter(c or a or b))): 1}
    return settled(ctx, *sum_of_scaled([(1, c, dC, one, 1), (1, a, dA, b, dB)]))


def _check_product(ctx, got, want):
    terms, den = got
    assert all(type(c) is int and c for c in terms.values())
    assert type(den) is int and den > 0 and gcd(den, *terms.values()) == 1
    if ctx.p is not None:
        assert den == 1
    # the plain loop's coefficients, in its key order
    assert [(m, raw_coeff(ctx, c, den)) for m, c in terms.items()] == list(want.items())


KEY_WIDTHS = [pytest.param(2, id="ij"), pytest.param(3, id="ijt"), pytest.param(4, id="mpoly4")]


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("nvars", KEY_WIDTHS)
def test_terms_mul_matches_plain_coefficient_loop(ctx, nvars):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        A = data.draw(term_dicts(nvars, ctx))
        B = data.draw(term_dicts(nvars, ctx))
        _check_product(ctx, stored_mul(ctx, A, B), plain_terms_mul(ctx, A, B))
        acc = data.draw(term_dicts(nvars, ctx, max_size=8))
        _check_product(ctx, stored_mul(ctx, A, B, acc), plain_terms_mul(ctx, A, B, acc))

    check()


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("nvars", KEY_WIDTHS)
def test_terms_mul_with_cancelling_acc(ctx, nvars):
    """acc = -(A B) cancels to zero; acc holding minus some of the product's
    terms and some other terms cancels those keys only."""
    neg = (lambda c: -c) if ctx.p is None else (lambda c: ctx.p - c)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        A = data.draw(term_dicts(nvars, ctx))
        B = data.draw(term_dicts(nvars, ctx))
        product = plain_terms_mul(ctx, A, B)
        minus = {m: neg(c) for m, c in product.items()}
        assert stored_mul(ctx, A, B, minus) == ({}, 1)
        keep = data.draw(st.sets(st.sampled_from(sorted(product)))) if product else set()
        acc = {m: c for m, c in minus.items() if m not in keep}
        acc.update(data.draw(term_dicts(nvars, ctx)))
        got = stored_mul(ctx, A, B, acc)
        _check_product(ctx, got, plain_terms_mul(ctx, A, B, acc))
        assert all(m in keep or m in acc for m in got[0])

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_terms_mul_products_that_cancel(ctx):
    """(y + z)(y - z) = y^2 - z^2 drops yz, and a product with nothing left
    is empty."""
    one, minus_one = ctx.rone, ctx.rneg(ctx.rone)
    half = ctx.rfrom_fraction(1, 2)
    A = {(1, 0): half, (0, 1): half}
    B = {(1, 0): one, (0, 1): minus_one}
    _check_product(ctx, stored_mul(ctx, A, B), {(2, 0): half, (0, 2): ctx.rneg(half)})
    assert stored_mul(ctx, A, B, {(2, 0): ctx.rneg(half), (0, 2): half}) == ({}, 1)
    assert stored_mul(ctx, {}, B) == ({}, 1)
    _check_product(ctx, stored_mul(ctx, A, {}, {(0, 0): one}), {(0, 0): one})


# --- the packed product against the dict loop ---------------------------------

# a slot bound no small product reaches: the packed path is always taken
ANY_SLOTS = 10**9


def shifted_dicts(nvars, ctx, max_size=5):
    """term_dicts with every key moved by one per-variable shift, so the
    exponent minima are not zero."""
    shift = st.tuples(*(st.integers(0, 6) for _ in range(nvars)))
    return st.tuples(term_dicts(nvars, ctx, max_size), shift).map(
        lambda ts: {tuple(map(add, m, ts[1])): c for m, c in ts[0].items()}
    )


def _unreduced(ctx):
    """Addend values as an unsettled sum holds them: over F_p any int,
    negative or above p; over Q the stored ints."""
    if ctx.p is None:
        return st.integers(-(2**70), 2**70)
    return st.integers(-10 * ctx.p, 10 * ctx.p)


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("nvars", KEY_WIDTHS)
def test_packed_product_equals_the_dict_loop(ctx, nvars):
    """Negative values, numerators above 2^64 (slots of several words),
    nonzero exponent minima, and an addend acc (a second product, acc * 1)
    that may cancel the product or hold unreduced F_p sums: the packed sum
    settles to the dict loop's pair."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        (a, dA), (b, dB) = (cleared(ctx, data.draw(shifted_dicts(nvars, ctx))) for _ in "AB")
        assert len(a) * len(b) < PACK_MIN_PAIRS  # terms_mul runs the dict loop
        want = terms_mul(ctx, a, dA, b, dB)
        assert settled(ctx, packed_sum([(1, a, b)], ANY_SLOTS), dA * dB) == want
        keys = st.sampled_from(sorted(set(want[0]) | {(0,) * nvars}))
        acc = data.draw(st.dictionaries(keys, _unreduced(ctx), max_size=6))
        if data.draw(st.booleans()):  # cancel the whole product; acc keys off it remain
            acc.update({m: -c for m, c in terms_mul(ctx, a, 1, b, 1)[0].items()})
        acc = {m: c for m, c in acc.items() if c}
        products = [(1, a, b)] + ([(1, acc, {(0,) * nvars: 1})] if acc else [])
        want = {}
        for s, A, B in products:
            _mul_into(want, A, B, s)
        got = settled(ctx, packed_sum(products, ANY_SLOTS), dA * dB)
        assert got == settled(ctx, want, dA * dB)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("nvars", KEY_WIDTHS)
def test_packed_sum_of_scaled_products_equals_the_dict_loop(ctx, nvars):
    """Several products with their own boxes and scales in one packed sum."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        count = data.draw(st.integers(1, 4))
        products = [
            (data.draw(st.integers(1, 2**66)),
             cleared(ctx, data.draw(shifted_dicts(nvars, ctx)))[0],
             cleared(ctx, data.draw(shifted_dicts(nvars, ctx)))[0])
            for _ in range(count)
        ]
        want: dict = {}
        for s, a, b in products:
            for m, c in terms_mul(ctx, a, 1, b, 1)[0].items():
                want[m] = want.get(m, 0) + s * c
        assert settled(ctx, packed_sum(products, ANY_SLOTS), 1) == settled(ctx, want, 1)

    check()


# --- the slot bound of packed_sum ---------------------------------------------

SLOT_FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7"),
               pytest.param(Fp(2**31 - 1), id="F2^31-1")]


def slot_bound(products):
    """The bound ``packed_sum`` sizes its slots by: the sum over the
    products of |s| * min(|A|_1 * max|b|, max|a| * |B|_1)."""
    def size(X):
        return max(map(abs, X.values())), sum(map(abs, X.values()))

    return sum(abs(s) * min(size(A)[1] * size(B)[0], size(A)[0] * size(B)[1])
               for s, A, B in products)


def _recorded_slot_bytes(monkeypatch):
    """The slot widths ``packed_sum`` picks from here on, in call order."""
    widths = []

    def recorded(bound):
        widths.append(real(bound))
        return widths[-1]

    real = kernel.slot_bytes
    monkeypatch.setattr(kernel, "slot_bytes", recorded)
    return widths


@pytest.mark.parametrize("ctx", SLOT_FIELDS)
def test_slot_bound_holds_sums_within_a_factor_two_of_it(ctx, monkeypatch):
    """Operands of one sign with values in [top/sqrt(2), top] on a line: the
    slot where min(|A|, |B|) term pairs meet holds at least half the bound,
    and no slot more than it.  The packed sum, in the slot bytes of that
    bound, equals the dict loop, at tops around every slot-width edge."""
    widths = _recorded_slot_bytes(monkeypatch)
    tops = [ctx.p - 1] if ctx.p is not None else [2**k for k in (3, 7, 15, 30, 31, 62, 63, 70)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        top = data.draw(st.sampled_from(tops))
        low = -(-top * 71 // 100)  # at least top / sqrt(2)
        n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        shift = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        signs = data.draw(st.sampled_from([(1, 1), (-1, -1), (1, -1), (-1, 1)]))
        values = st.integers(low, top)
        A = {(shift[0], i): signs[0] * data.draw(values) for i in range(n)}
        B = {(shift[1], j): signs[1] * data.draw(values) for j in range(m)}
        s = data.draw(st.sampled_from([1, 2, 3]))
        products = [(s, A, B)]
        want = {}
        _mul_into(want, A, B, s)
        bound = slot_bound(products)
        assert bound // 2 <= max(map(abs, want.values())) <= bound
        del widths[:]
        got = packed_sum(products, ANY_SLOTS)
        assert widths == [slot_bytes(bound)]
        assert got == want
        assert settled(ctx, got, 1) == settled(ctx, want, 1)

    check()


@pytest.mark.parametrize("ctx", SLOT_FIELDS)
def test_slot_bound_narrows_a_sixteen_byte_sum_to_eight(ctx, monkeypatch):
    """Eight values v = 2^31 - 2 times one v and seven ones: the bound
    max|a| * max|b| * min(|A|, |B|) = 8v^2 asks 16-byte slots, the bound
    min(|A|_1 * max|b|, max|a| * |B|_1) = v(v + 7) 8-byte ones, and the
    packed sum in them equals the dict loop."""
    widths = _recorded_slot_bytes(monkeypatch)
    v = 2**31 - 2
    A = {(0, i): v for i in range(8)}
    B = {(0, 0): v, **{(1, j): 1 for j in range(7)}}
    assert slot_bytes(max(A.values()) * max(B.values()) * min(len(A), len(B))) == 16
    assert slot_bound([(1, A, B)]) == v * (v + 7)
    want = {}
    _mul_into(want, A, B)
    got = packed_sum([(1, A, B)], ANY_SLOTS)
    assert widths == [8]
    assert got == want
    assert settled(ctx, got, 1) == settled(ctx, want, 1)


# the bits a bound needs with its sign bit, and the slot bytes they get
SLOT_EDGES = {8: 1, 9: 2, 16: 2, 17: 4, 32: 4, 33: 8, 64: 8, 65: 16}


@pytest.mark.parametrize(
    "ctx", [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7"), pytest.param(Fp(1000003), id="F1000003")]
)
@pytest.mark.parametrize("bits", list(SLOT_EDGES))
@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)], ids=["positive", "negative", "mixed"])
def test_packed_sum_at_the_slot_width_edges(ctx, bits, signs):
    """For the largest and the smallest bound that needs ``bits`` bits with
    its sign bit, a packed sum whose slot at x reaches the bound (same
    signs) or cancels (mixed) equals the dict loop, with an addend acc (acc
    times 1) that cancels that slot or not; the slot gets the bytes of
    ``SLOT_EDGES``."""
    field_top = 2**40 if ctx.p is None else ctx.p - 1  # the largest stored value
    for bound, with_acc in itertools.product((2 ** (bits - 1) - 1, 2 ** (bits - 2)), (False, True)):
        top = min(field_top, isqrt(bound // 2))
        a = {(0, 0): signs[0] * top, (1, 0): signs[1] * top}
        b = {(0, 0): top, (1, 0): top}
        s, r = divmod(bound, 2 * top * top)  # the bound is s * top * top * 2 + r
        products = [(s, a, b)] + ([(r, {(1, 0): signs[0]}, {(0, 0): 1})] if r else [])
        if with_acc:
            products.append((1, {(1, 0): -signs[0] * bound, (2, 2): 1}, {(0, 0): 1}))
        want = {}
        for scale, A, B in products:
            _mul_into(want, A, B, scale)
        if signs[0] == signs[1]:
            assert want[(1, 0)] == (0 if with_acc else signs[0] * bound)
        got = packed_sum(products, ANY_SLOTS)
        assert {m: c for m, c in got.items() if c} == {m: c for m, c in want.items() if c}
        assert settled(ctx, got, 1) == settled(ctx, want, 1)
        assert slot_bytes(bound) == SLOT_EDGES[bits]


# --- the two-level route and the big-integer fold -------------------------------

SPLIT_FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7"),
                pytest.param(Fp(1000003), id="F1000003")]
# operand values at the slot-width edges over Q, 2^k - 1 and 2^k for every
# width the slots take; over F_p any stored value below p
EDGE_VALUES = [2 ** k + d for k in (7, 15, 31, 63, 64) for d in (-1, 0)]


def split_operands(ctx, nvars):
    """Term dicts of one or two parts, each moved by a shift of its own, so
    that some heads lie in one operand only; stored values, of either sign
    and at the slot-width edges over Q."""
    if ctx.p is None:
        value = (st.sampled_from(EDGE_VALUES) | st.integers(1, 2**70)).flatmap(
            lambda v: st.sampled_from([v, -v]))
    else:
        value = st.integers(1, ctx.p - 1)
    mon = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    shift = st.tuples(*(st.integers(0, 8 // nvars) for _ in range(nvars)))
    part = st.tuples(st.dictionaries(mon, value, min_size=1, max_size=6), shift).map(
        lambda ds: {tuple(map(add, m, ds[1])): c for m, c in ds[0].items()})
    return st.lists(part, min_size=1, max_size=2).map(lambda ps: {k: v for p in ps for k, v in p.items()})


def loop_sum(products):
    want = {}
    for s, A, B in products:
        _mul_into(want, A, B, s)
    return {m: c for m, c in want.items() if c}


@pytest.mark.parametrize("ctx", SPLIT_FIELDS)
@pytest.mark.parametrize("nvars", [2, 3, 4, 5])
def test_two_level_route_equals_the_dict_loop(ctx, nvars):
    """At every split point (head 0 is full packing), sums of one to three
    scaled products whose operands have heads of their own equal the dict
    loop; with an addend acc (acc times 1) that cancels the whole sum,
    every split point returns nothing."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        count = data.draw(st.integers(1, 3))
        products = [(data.draw(st.sampled_from([1, -1, 3, 2**40])),
                     data.draw(split_operands(ctx, nvars)), data.draw(split_operands(ctx, nvars)))
                    for _ in range(count)]
        want = loop_sum(products)
        cancel = [(1, {m: -c for m, c in want.items()}, {(0,) * nvars: 1})] if want else []
        for head in range(nvars):
            got = packed_sum(products, ANY_SLOTS, None, head)
            assert got == want, head
            assert packed_sum(products + cancel, ANY_SLOTS, None, head) == {}

    check()


def ring_operands(ctx, nvars):
    """Stored dicts of ring elements, keys (e, i, j) or (e, i, j, t) with
    e <= 1: some have no x term, some only x terms."""
    value = st.integers(-(2**66), 2**66).filter(bool) if ctx.p is None else st.integers(1, ctx.p - 1)
    xs = st.sampled_from([(0, 1), (0,), (1,)])
    return xs.flatmap(lambda x: st.dictionaries(
        st.tuples(st.sampled_from(x), *(st.integers(0, 3) for _ in range(nvars - 1))),
        value, min_size=1, max_size=8))


@pytest.mark.parametrize("ctx", SPLIT_FIELDS)
@pytest.mark.parametrize("nvars", [pytest.param(3, id="R"), pytest.param(4, id="R[T]")])
def test_big_integer_fold_equals_the_key_fold_of_the_loop(ctx, nvars):
    """Ring sums folded in the packed integer, at every split point, equal
    the loop's sum with its x^2 keys folded by ``fold_keys``, zeros
    dropped; a sum that folds to nothing comes back empty."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        count = data.draw(st.integers(1, 3))
        products = [(data.draw(st.sampled_from([1, -1, 5])),
                     data.draw(ring_operands(ctx, nvars)), data.draw(ring_operands(ctx, nvars)))
                    for _ in range(count)]
        want = {m: c for m, c in fold_keys(loop_sum(products)).items() if c}
        assert all(m[0] <= 1 for m in want)
        cancel = [(1, {m: -c for m, c in want.items()}, {(0,) * nvars: 1})] if want else []
        for head in range(nvars):
            got = packed_sum(products, ANY_SLOTS, None, head, True)
            assert got == want, head
            assert packed_sum(products + cancel, ANY_SLOTS, None, head, True) == {}

    check()


def test_the_certificate_check_of_a_q_scaling_witness_file_takes_the_two_level_route(monkeypatch):
    """A scaling witness over Q written as a v1 file and read back carries
    no certificate, so verifying it decides the T-homotopy by Groebner
    membership.  The verifier keeps the answer only; the cofactors of the
    same decision, asked of the engine on each segment's generation
    columns, are re-expanded by ``Certificate.verify``: that check, on
    generators in (x, y, z, T), is a packed sum split after a head, and it
    verifies."""
    from jouanolou import groebner, textio
    from jouanolou.homotopy import scaling_witness, verify
    from jouanolou.morphism import groebner_certificate, make_row
    from jouanolou.sl2 import PointedSL2, m_uv

    one, zero = RingElement.one(QQ), RingElement.zero(QQ)
    y, z, w = RingElement.gen_y(QQ), RingElement.gen_z(QQ), RingElement.gen_w(QQ)
    r = y.scale(Fraction(2)) + z.scale(Fraction(-3)) + w
    M = m_uv(QQ.elem(2), QQ.elem(-1)) @ PointedSL2(((one, r), (zero, one)))
    u = QQ.elem(3)
    target = make_row(M.row_A, M.row_B.scale((u * u).val), (M.U, M.V.scale((u * u).inverse().val)))
    text = textio.witness_str(scaling_witness(M, u), QQ)
    assert text.startswith("jouanolou/v1 field=Q\n")
    _, parsed = textio.parse_witness(text)
    heads, checking = [], []

    def counted(*args):
        out = real(*args)
        if checking and out is not None:
            heads.append(args[3])
        return out

    def check(certificate):
        checking.append(True)
        try:
            return real_verify(certificate)
        finally:
            checking.pop()

    assert verify(parsed, M.row_map(), target, budget=300)
    real, real_verify = kernel.packed_sum, groebner.Certificate.verify
    monkeypatch.setattr(kernel, "packed_sum", counted)
    monkeypatch.setattr(groebner.Certificate, "verify", check)
    for seg in parsed.segments:
        assert seg.cert is None
        assert groebner_certificate(seg.expanded, 300) is not None
    assert heads and all(head > 0 for head in heads), heads


@pytest.mark.parametrize("ctx", FIELDS)
def test_a_sum_of_products_with_one_term_factors_stays_on_the_dict_loop(ctx, monkeypatch):
    """Three products of a 400-term operand by a one-term factor make 1200
    term pairs, but linear work: the fused sum is the dict loop's running
    sum, with no packed multiply.  With one two-term factor among them the
    pairs of that product alone (800) stay below the cutoff too."""
    rng = random.Random(5)
    big = [_dense_mpoly(rng, ctx, XYZ, 400, 9) for _ in range(3)]
    monos = [MPoly(ctx, XYZ, {(i, 1, 0): ctx.rfrom_fraction(i + 2, 3)}) for i in range(3)]
    monkeypatch.setattr(kernel, "packed_sum", None)  # a packed multiply fails
    for pairs in (list(zip(big, monos)), [(big[0], monos[0] + monos[1])] + list(zip(big, monos))[1:]):
        assert sum(len(a.terms) * len(b.terms) for a, b in pairs) >= PACK_MIN_PAIRS
        running = pairs[0][0] * pairs[0][1]
        for a, b in pairs[1:]:
            running = running + a * b
        got = dot(pairs)
        assert (got.terms, got.den) == (running.terms, running.den)


# --- slow oracles of the packing and the dict loop ------------------------------


def sliced_pack(A, low, high, strides, nbytes):
    """The oracle of ``_pack``: each value written by ``to_bytes`` into its
    slot of one of two byte arrays, positive and negative values apart, and
    the two read back and subtracted."""
    base = sum(map(mul, low, strides))
    size = (sum(map(mul, high, strides)) - base + 1) * nbytes
    pos, neg = bytearray(size), bytearray(size)
    for m, c in A.items():
        i = (sum(map(mul, m, strides)) - base) * nbytes
        if c > 0:
            pos[i:i + nbytes] = c.to_bytes(nbytes, "little")
        else:
            neg[i:i + nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


@pytest.mark.parametrize("nbytes", [1, 2, 4, 8, 16, 24])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_pack_equals_the_byte_slice_oracle(nbytes, nvars):
    """Values of either sign up to half the slot's range less one, in a box
    that may be wider than the keys', at every slot width of ``packed_sum``."""
    top = (1 << (8 * nbytes - 1)) - 1
    value = st.sampled_from([top, -top, 1, -1]) | st.integers(-top, top).filter(bool)
    mon = st.tuples(*(st.integers(0, 3) for _ in range(nvars)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.dictionaries(mon, value, min_size=1, max_size=12),
           st.tuples(*(st.integers(0, 2) for _ in range(nvars))))
    def check(A, widen):
        low, high = kernel._box(A)
        high = list(map(add, high, widen))
        spans = [h - l + 1 for l, h in zip(low, high)]
        strides = [prod(spans[v + 1:]) for v in range(nvars)]
        raw = kernel._pack(A, low, high, strides, nbytes)
        packed = int.from_bytes(raw, "little") - kernel._halves(nbytes, len(raw) // nbytes)
        assert packed == sliced_pack(A, low, high, strides, nbytes)

    check()


def generic_mul_into(out, A, B, s=1):
    """The oracle of ``_mul_into``: one loop for every key width, keys
    added by ``map``."""
    for m1, c1 in A.items():
        if s != 1:
            c1 *= s
        for m2, c2 in B.items():
            m = tuple(map(add, m1, m2))
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_mul_into_equals_the_generic_loop_in_key_order(width):
    """Signed values, a scale, and an ``out`` that already holds some keys:
    the same sums, inserted in the same order."""
    mon = st.tuples(*(st.integers(0, 2) for _ in range(width)))
    value = st.integers(-(2**70), 2**70).filter(bool)
    terms = st.dictionaries(mon, value, min_size=1, max_size=6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(terms, terms, st.dictionaries(mon, value, max_size=4), st.sampled_from([1, -1, 3, 2**65]))
    def check(A, B, out, s):
        got, want = dict(out), dict(out)
        _mul_into(got, A, B, s)
        generic_mul_into(want, A, B, s)
        assert list(got.items()) == list(want.items())

    check()


def _dense_mpoly(rng, ctx, vars, count, top):
    terms = {}
    while len(terms) < count:
        mon = tuple(rng.randint(0, top) for _ in vars)
        raw = ctx.rfrom_fraction(rng.randint(-(2**40), 2**40), rng.choice([1, 2, 3, 5, 2**31 - 1]))
        if raw:
            terms[mon] = raw
    return MPoly(ctx, vars, terms)


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("vars", [XYZ, XYZW], ids=["xyz", "xyzw"])
def test_large_products_and_fused_dot_equal_the_running_sum(ctx, vars):
    """Above the cutoff: terms_mul packs, and dot sums the products in one
    packed sum over the lcm of the pair denominators."""
    rng = random.Random(3)
    top = 6 - len(vars)
    pairs = [(_dense_mpoly(rng, ctx, vars, 40, top), _dense_mpoly(rng, ctx, vars, 30, top))
             for _ in range(3)]
    # pair denominators that differ, so each product is scaled to their lcm
    pairs[1] = (pairs[1][0].scale(ctx.rfrom_fraction(1, 11)), pairs[1][1])
    pairs[2] = (pairs[2][0], pairs[2][1].scale(ctx.rfrom_fraction(5, 13)))
    if ctx.p is None:
        assert len({a.den * b.den for a, b in pairs}) == 3
    for a, b in pairs:
        count = len(a.terms) * len(b.terms)
        assert count >= PACK_MIN_PAIRS and packed_sum([(1, a.terms, b.terms)], count) is not None
        assert a * b == MPoly(ctx, vars, plain_terms_mul(ctx, raw_terms(a), raw_terms(b)))
    running = pairs[0][0] * pairs[0][1] + pairs[1][0] * pairs[1][1] + pairs[2][0] * pairs[2][1]
    assert dot(pairs) == running
    # a cofactor identity sum(c_i g_i) - target cancels to nothing
    (a, b), (c, d) = pairs[:2]
    assert dot([(a, b), (c, d), (-(a * b + c * d), MPoly.const(ctx, vars, ctx.rone))]).is_zero


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("vars", [XYZ, XYZT], ids=["xyz", "xyzT"])
def test_small_fused_dot_equals_the_running_sum(ctx, vars):
    """Below the cutoff dot is one dict loop over the lcm of the pair
    denominators, settled once: the running sum of products, zero pairs and
    a sum that cancels to nothing included."""

    @CHECKS
    @given(st.lists(st.tuples(polys(vars, ctx), polys(vars, ctx)), min_size=1, max_size=4),
           st.booleans())
    def check(pairs, cancel):
        if cancel:
            a, b = pairs[0]
            pairs.append((-(a * b), MPoly.const(ctx, vars, ctx.rone)))
        assert sum(len(a.terms) * len(b.terms) for a, b in pairs) < PACK_MIN_PAIRS
        running = pairs[0][0] * pairs[0][1]
        for a, b in pairs[1:]:
            running = running + a * b
        got = dot(pairs)
        assert (got.terms, got.den) == (running.terms, running.den)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_a_sparse_large_product_keeps_to_the_dict_loop(ctx):
    """x^(10^6) times a dense operand of 1000+ terms: its slot range is far
    above its pair count, so it is not packed, and it returns at once."""
    a, _ = cleared(ctx, {(0, 0): ctx.rone, (10**6, 0): ctx.rfrom_fraction(3, 2)})
    b, _ = cleared(ctx, {(i, j): ctx.rfrom_fraction(i - j or 1, 1)
                         for i in range(1, 33) for j in range(1, 33)})
    assert len(a) * len(b) >= PACK_MIN_PAIRS
    assert packed_sum([(1, a, b)], len(a) * len(b)) is None

    def expire(signum, frame):
        raise TimeoutError("took more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        got = terms_mul(ctx, a, 1, b, 1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert got == settled(ctx, plain_terms_mul(ctx, a, b), 1)


@pytest.mark.parametrize("ctx", FIELDS)
def test_operands_that_fill_little_of_their_boxes_keep_to_the_dict_loop(ctx, monkeypatch):
    """100 by 100 terms spread over 700 and 500 exponents: the packed
    multiply would cost 35 times the 10^4 pairs in padded slot pairs, above
    PACK_PAD_PER_PAIR at every split point (a head of the exponent leaves a
    block per term), while the result box (1199 slots) passes the slot
    guard, so the loop runs.  Spread over 200 and 200 (4 times the pairs)
    the product packs in full.  Both equal the plain loop."""
    rng = random.Random(11)
    packed = []

    def counted(*args):
        out = real(*args)
        packed.extend([] if out is None else [len(packed)])
        return out

    real = kernel.packed_sum
    monkeypatch.setattr(kernel, "packed_sum", counted)
    for width_a, width_b, packs in ((700, 500, False), (200, 200, True)):
        a, b = ({(e, 0): rng.randint(1, 6) for e in [0, width - 1, *rng.sample(range(1, width - 1), 98)]}
                for width in (width_a, width_b))
        before = len(packed)
        assert terms_mul(ctx, a, 1, b, 1) == settled(ctx, plain_terms_mul(ctx, a, b), 1)
        assert (len(packed) > before) == packs
        box = {id(X): kernel._box(X) for X in (a, b)}
        strides = [1, 1]
        works = [padded_work([(1, a, b)], box, strides, head) for head in (0, 1)]
        assert [w > PACK_PAD_PER_PAIR * len(a) * len(b) for w in works] == [not packs] * 2


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("cls", [RingElement, RingPolyT])
def test_zero_and_constant_operands_scale_without_a_product(ctx, cls, monkeypatch):
    """c * p and p * c for a constant c (zero included) scale p in one pass:
    one term pair per term of p, no packed multiply, and the result is the
    sympy product."""
    vars = XYZW if cls is RingElement else XYZWT
    convert = mpoly_to_ring if cls is RingElement else mpoly_to_ringpolyt
    ring_vars = vars[:3] + vars[4:]  # w eliminated
    constants = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-5, 3)]

    @CHECKS
    @given(polys(vars, ctx), st.sampled_from(constants))
    def check(p, value):
        c = cls.from_raw(ctx, ctx.rfrom_fraction(value.numerator, value.denominator))
        r, pairs, real = convert(p), [], kernel._mul_into

        def counted(out, A, B, s=1):
            pairs.append(len(A) * len(B))
            real(out, A, B, s)

        monkeypatch.setattr(kernel, "_mul_into", counted)
        monkeypatch.setattr(kernel, "packed_sum", None)  # a packed multiply fails
        try:
            products = (r * c, c * r)
        finally:
            monkeypatch.undo()
        assert sum(pairs) == (2 * len(r.terms) if value else 0)
        want = normal_form(to_sympy(p) * sympy.Rational(value.numerator, value.denominator))
        for got in products:
            assert type(got) is cls
            assert raw_terms(got.to_mpoly()) == from_sympy(want, ring_vars, ctx)

    check()


# --- eval_terms: the pairwise sum equals the running sum -----------------------


def sequential_eval(terms, images, const):
    """eval_terms as a running sum, one term at a time."""
    out = None
    for m, c in terms.items():
        term = const(c)
        for image, e in zip(images, m):
            if e:
                term = term * image**e
        out = term if out is None else out + term
    return const(0) if out is None else out


def _random_terms(rng, ctx, nvars, count):
    terms = {}
    while len(terms) < count:
        mon = tuple(rng.randint(0, 6) for _ in range(nvars))
        terms[mon] = ctx.rfrom_fraction(rng.randint(1, 50), rng.randint(1, 6))
    return terms


@pytest.mark.parametrize("ctx", FIELDS)
def test_large_ringpolyt_conversion_equals_running_sum(ctx):
    p = MPoly(ctx, XYZWT, _random_terms(random.Random(5), ctx, 5, 2200))
    images = [getattr(RingPolyT, f"gen_{v}")(ctx) for v in XYZWT]
    want = sequential_eval(raw_terms(p), images, lambda raw: RingPolyT.from_raw(ctx, raw))
    assert mpoly_to_ringpolyt(p) == want


@pytest.mark.parametrize("ctx", FIELDS)
def test_conversion_with_cancelling_images_equals_running_sum(ctx):
    """(x + w - 1) q + (x w - y z) r is zero in R, and adding s leaves s: the
    images w = 1 - x and x^2 = x - yz make whole groups of terms cancel."""
    rng = random.Random(11)
    gens = {v: MPoly.var(ctx, XYZW, v) for v in XYZW}
    one = MPoly.const(ctx, XYZW, ctx.rone)
    q, r, s = (MPoly(ctx, XYZW, _random_terms(rng, ctx, 4, 40)) for _ in range(3))
    vanishing = (gens["x"] + gens["w"] - one) * q + (gens["x"] * gens["w"] - gens["y"] * gens["z"]) * r
    images = [getattr(RingElement, f"gen_{v}")(ctx) for v in XYZW]
    const = lambda raw: RingElement.from_raw(ctx, raw)  # noqa: E731
    assert len(vanishing.terms) > 100
    assert mpoly_to_ring(vanishing).is_zero
    assert sequential_eval(raw_terms(vanishing), images, const).is_zero
    total = vanishing + s
    want = sequential_eval(raw_terms(total), images, const)
    assert mpoly_to_ring(total) == want == mpoly_to_ring(s)
