"""The stored coefficient layout: int values over one denominator.

Over Q and F_7, with denominators up to 2^64:

* every kernel result is canonical: int values only, no zeros, den > 0,
  gcd(den, all values) = 1, and den = 1 with values in [1, p) over F_p;
* the ring product, on ints with each operand cleared once, equals the
  four-product composition on ``Fraction`` dicts, key order included;
* printed text equals the text of a ``Fraction``-dict oracle;
* the floats ``realize`` evaluates are bitwise those of ``float(Fraction)``.
"""

from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.field import Fp, QQ
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.polys import MPoly, drl_key, terms_add, terms_mul, terms_neg, terms_scale
from jouanolou.realize import _compile
from jouanolou.textio import mpoly_str, ring_str

F7 = Fp(7)
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7")]
CHECKS = settings(max_examples=50, deadline=None, derandomize=True)
BIG_PRIMES = [998244353, 2**31 - 1, 2**61 - 1, 2**64 - 59]


def scalars(ctx):
    """Raw nonzero scalars: over Q with denominators up to 2^64, or small."""
    if ctx.p is not None:
        return st.integers(1, ctx.p - 1)
    big = st.integers(-(2**64), 2**64).filter(bool)
    return st.one_of(
        st.builds(Fraction, big, st.sampled_from(BIG_PRIMES)),
        st.builds(Fraction, big, st.integers(1, 2**64)),
        st.integers(-3, 3).filter(bool).map(Fraction),
        st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(3, 2)]),
    )


def raw_dicts(ctx, width, max_size=4):
    mon = st.tuples(*(st.integers(0, 2) for _ in range(width)))
    return st.dictionaries(mon, scalars(ctx), max_size=max_size)


def parts(ctx, cls=RingElement):
    """Parts a, b of ``cls``: polynomials in its ``PARTS``."""
    return raw_dicts(ctx, len(cls.PARTS)).map(lambda raw: MPoly(ctx, cls.PARTS, raw))


def ring_elements(ctx, cls=RingElement):
    return st.tuples(parts(ctx, cls), parts(ctx, cls)).map(lambda ab: cls(*ab))


def assert_canonical(ctx, terms, den):
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in terms.values())
    if ctx.p is None:
        assert gcd(den, *terms.values()) == 1
    else:
        assert den == 1 and all(0 < c < ctx.p for c in terms.values())


def assert_ring_canonical(r):
    for part in (r.a, r.b):
        assert_canonical(r.ctx, part.terms, part.den)


def raw_items(ctx, terms, den) -> list:
    """The boundary view in stored key order."""
    return [(m, Fraction(c, den) if ctx.p is None else c) for m, c in terms.items()]


# --- the canonical invariant after every operation ----------------------------


@pytest.mark.parametrize("ctx", FIELDS)
def test_kernel_results_are_canonical(ctx):
    @CHECKS
    @given(parts(ctx), parts(ctx), scalars(ctx), st.data())
    def check(P, Q, c, data):
        for part in (P, Q):
            assert_canonical(ctx, part.terms, part.den)
        for negate in (False, True):
            assert_canonical(ctx, *terms_add(ctx, P.terms, P.den, Q.terms, Q.den, negate))
        assert_canonical(ctx, terms_neg(ctx, P.terms), P.den)
        assert_canonical(ctx, *terms_mul(ctx, P.terms, P.den, Q.terms, Q.den))
        assert_canonical(ctx, *terms_scale(ctx, P.terms, P.den, c))
        assert_canonical(ctx, *terms_scale(ctx, P.terms, P.den, c, (1, 2)))
        swapped = RingElement(P, Q).tau()
        for r in (P + Q, P - Q, -P, P * Q, P.scale(c), swapped.a, swapped.b):
            assert_canonical(ctx, r.terms, r.den)
        # a sum that cancels to a multiple of the denominator
        R = data.draw(parts(ctx))
        total = (P + R) - R
        assert total == P
        assert_canonical(ctx, total.terms, total.den)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("cls", [RingElement, RingPolyT])
def test_ring_results_are_canonical(ctx, cls):
    @CHECKS
    @given(ring_elements(ctx, cls), ring_elements(ctx, cls), scalars(ctx))
    def check(r, s, c):
        assert_ring_canonical(r)
        for out in (r + s, r - s, -r, r * s, r * r, r.scale(c), r.tau(), r**2):
            assert_ring_canonical(out)
        m = r.to_mpoly(cls.VARS)
        assert_canonical(ctx, m.terms, m.den)
        if cls is RingPolyT:
            assert_ring_canonical(r.reverse_T())
            assert_ring_canonical(r.eval_at_T(ctx.elem(c)))
        else:
            assert_ring_canonical(RingPolyT.from_ring(r))

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_mpoly_results_are_canonical(ctx):
    vars = ("x", "y", "z")

    @CHECKS
    @given(raw_dicts(ctx, 3), raw_dicts(ctx, 3), scalars(ctx))
    def check(rp, rq, c):
        p, q = MPoly(ctx, vars, rp), MPoly(ctx, vars, rq)
        for out in (p, q, p + q, p - q, -p, p * q, p**2, p.scale(c), p.mul_term((1, 0, 2), c)):
            assert_canonical(ctx, out.terms, out.den)
        assert dict(p.sorted_terms()) == rp

    check()


# --- the ring product against the composition on Fraction dicts ----------------


def plain_mul(ctx, A, B, acc=None):
    """A * B + acc on raw coefficients, zero sums dropped at the end."""
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


def composed_ring_mul(ctx, a1, b1, a2, b2):
    """The ring product as four products on raw dicts:
    a = a1 a2 - yz b1 b2, b = a1 b2 + (a2 b1 + b1 b2)."""
    bb = plain_mul(ctx, b1, b2)
    minus_yz_bb = {(m[0] + 1, m[1] + 1) + m[2:]: -c for m, c in bb.items()}
    a = plain_mul(ctx, a1, a2, minus_yz_bb)
    b = plain_mul(ctx, a1, b2, plain_mul(ctx, a2, b1, bb))
    return a, b


def raw_parts(r):
    return [dict(raw_items(r.ctx, p.terms, p.den)) for p in (r.a, r.b)]


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("cls", [RingElement, RingPolyT])
def test_ring_product_equals_composed_products(ctx, cls):
    @CHECKS
    @given(ring_elements(ctx, cls), ring_elements(ctx, cls))
    def check(r, s):
        got = r * s
        want = composed_ring_mul(ctx, *raw_parts(r), *raw_parts(s))
        for part, w in zip((got.a, got.b), want):
            assert raw_items(ctx, part.terms, part.den) == list(w.items())

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_ring_product_with_cancelling_parts(ctx):
    """Operands whose partial products cancel inside the composition, so
    that a key is dropped and re-enters at the end: r = 1/2 + x/2 and
    s = -1/2 + x (1/2 + y) give b1 b2 = 1/4 + y/2, whose constant a2 b1
    cancels, and a1 b2 brings it back after y."""
    half = ctx.rfrom_fraction(1, 2)
    yz = RingElement.PARTS
    r = RingElement(MPoly(ctx, yz, {(0, 0): half}), MPoly(ctx, yz, {(0, 0): half}))
    s = RingElement(MPoly(ctx, yz, {(0, 0): ctx.rneg(half)}),
                    MPoly(ctx, yz, {(0, 0): half, (1, 0): 1}))
    assert list((r * s).b.terms) == [(1, 0), (0, 0)]
    for u, v in ((r, s), (s, r), (r, r), (s, s), (r - s, r + s)):
        got = u * v
        want = composed_ring_mul(ctx, *raw_parts(u), *raw_parts(v))
        for part, w in zip((got.a, got.b), want):
            assert raw_items(ctx, part.terms, part.den) == list(w.items())
        assert_ring_canonical(got)


def test_terms_mul_loop_is_int_only():
    """The product loop multiplies the stored ints: no Fraction is built,
    and the product over dA * dB is divided by its gcd in one pass."""
    A, B = {(1, 0): 3, (0, 1): -2}, {(1, 0): 5, (0, 0): 7}
    assert terms_mul(QQ, A, 1, B, 1) == ({(2, 0): 15, (1, 0): 21, (1, 1): -10, (0, 1): -14}, 1)
    # (2y + 4z)/3 * (3y + 9)/2 = y^2 + 3y + 2yz + 6z
    A, B = {(1, 0): 2, (0, 1): 4}, {(1, 0): 3, (0, 0): 9}
    terms, den = terms_mul(QQ, A, 3, B, 2)
    assert (terms, den) == ({(2, 0): 1, (1, 0): 3, (1, 1): 2, (0, 1): 6}, 1)
    assert all(type(c) is int for c in terms.values())


# --- text and floats at the boundary -------------------------------------------


def oracle_str(vars, raw: dict, rationals: bool) -> str:
    """The canonical grammar printed from a dict of raw coefficients."""
    pieces = []
    for mon, c in sorted(raw.items(), key=lambda mc: drl_key(mc[0]), reverse=True):
        neg = rationals and c < 0
        mag = Fraction(-c if neg else c)
        coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        ms = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(vars, mon) if e)
        body = coeff if not ms else ms if mag == 1 else f"{coeff}*{ms}"
        sign = ("-" if neg else "") if not pieces else ("- " if neg else "+ ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def oracle_ring_raw(r) -> dict:
    """The normal form a + x b of r as one raw dict on (x, y, z[, T]) keys."""
    out = {}
    for xe, part in enumerate(raw_parts(r)):
        for key, c in part.items():
            out[(xe,) + key] = c
    return out


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("cls", [RingElement, RingPolyT])
def test_printed_text_equals_fraction_oracle(ctx, cls):
    @CHECKS
    @given(ring_elements(ctx, cls), ring_elements(ctx, cls))
    def check(r, s):
        for out in (r, r * s, r - s):
            want = oracle_str(cls.VARS, oracle_ring_raw(out), ctx.p is None)
            assert ring_str(out) == want
            assert mpoly_str(out.to_mpoly(cls.VARS)) == want

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_compiled_floats_are_bitwise_float_of_fraction(ctx):
    @CHECKS
    @given(ring_elements(ctx), ring_elements(ctx))
    def check(r, s):
        for out in (r, r * s):
            want = []
            for xe, part in enumerate(raw_parts(out)):
                want.extend((float(c), xe, i, j) for (i, j), c in part.items())
            got = _compile(out)
            assert [(c.hex(), *rest) for c, *rest in got] == [(c.hex(), *rest) for c, *rest in want]

    check()
