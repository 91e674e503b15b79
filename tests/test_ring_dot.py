"""The fused sum of products over R and R[T].

``polys.dot`` on ring elements is one accumulation at every size:
the dict loop below ``PACK_MIN_PAIRS`` term pairs, one packed multiply from
there on.  No result depends on key order (printing sorts, and ``realize``
reads terms in sorted key order), so the running sum of ``*`` and ``+``
is the oracle for values only.  Over Q and F_7:

* the value of ``dot`` equals the running sum of products, for pairs of R
  and R[T] elements (an R factor meeting an R[T] one is lifted), zero and
  constant operands included, and None for no pairs; with PACK_MIN_PAIRS
  at 1 the same holds on the packed path;
* no sum, small or large, runs the ring product;
* ``Mat2 @``, ``act`` and ``transform_cert`` equal the composition of
  products they replace.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou import polys
from jouanolou.field import Fp, QQ
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import JMap
from jouanolou.polys import dot
from jouanolou.sl2 import PointedSL2, act, transform_cert

F7 = Fp(7)
FIELDS = [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7")]
RINGS = [pytest.param(RingElement, id="R"), pytest.param(RingPolyT, id="RT")]
CHECKS = settings(max_examples=40, deadline=None, derandomize=True)


def elements(ctx, cls):
    """Elements of ``cls``, zero and constants among them."""
    coeff = (st.fractions(min_value=-4, max_value=4, max_denominator=3) if ctx.p is None
             else st.integers(1, ctx.p - 1))
    mon = st.tuples(st.integers(0, 1), *(st.integers(0, 2) for _ in cls.VARS[1:]))
    general = st.dictionaries(mon, coeff, max_size=8).map(lambda t: cls(ctx, {
        m: ctx.rfrom_fraction(c.numerator, c.denominator) for m, c in t.items() if c}))
    constant = st.integers(-3, 3).map(lambda c: cls.from_raw(ctx, ctx.rfrom_int(c)))
    return st.one_of(general, constant, st.just(cls.zero(ctx)))


def mixed_elements(ctx):
    return st.one_of(elements(ctx, RingElement), elements(ctx, RingPolyT))


def running_sum(pairs):
    acc = pairs[0][0] * pairs[0][1]
    for a, b in pairs[1:]:
        acc = acc + a * b
    return acc


def test_no_pairs_is_none():
    assert dot([]) is None
    assert dot(iter(())) is None


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("pack_min", [None, 1], ids=["default", "packed"])
def test_dot_equals_the_running_sum(ctx, pack_min, monkeypatch):
    """Mixed R and R[T] pairs, zero and constant factors: with the default
    PACK_MIN_PAIRS these small sums take the dict loop, with it at 1 every
    sum with a term pair packs."""
    if pack_min is not None:
        monkeypatch.setattr(polys, "PACK_MIN_PAIRS", pack_min)

    @CHECKS
    @given(st.lists(st.tuples(mixed_elements(ctx), mixed_elements(ctx)), min_size=1, max_size=4),
           st.booleans())
    def check(pairs, cancel):
        if cancel:
            a, b = pairs[0]
            pairs.append((-(a * b), RingElement.one(ctx)))
        got, want = dot(pairs), running_sum(pairs)
        assert type(got) is type(want)
        assert got == want

    check()


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("cls", RINGS)
def test_large_sums_take_the_fused_path(ctx, cls, monkeypatch):
    """Dense elements whose sum reaches PACK_MIN_PAIRS: dot does not run the
    ring product, and its value is the running sum's."""
    rng = random.Random(5)

    def dense(count):
        raw = {}
        while len(raw) < count:
            mon = (rng.randint(0, 1), *(rng.randint(0, 5) for _ in cls.VARS[1:]))
            raw[mon] = ctx.rfrom_fraction(rng.randint(-99, 99) or 1, rng.choice([1, 2, 3, 5]))
        return cls(ctx, raw)

    pairs = [(dense(35), dense(30)) for _ in range(2)]
    want = running_sum(pairs)
    monkeypatch.setattr(cls, "__mul__", lambda *_: pytest.fail("ring product ran"))
    assert dot(pairs) == want


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("cls", RINGS)
def test_small_sums_take_the_fused_path(ctx, cls, monkeypatch):
    """Sums of a few terms, constant and zero factors among them, take the
    fused path too: dot does not run the ring product."""
    x, y, one = cls.gen_x(ctx), cls.gen_y(ctx), cls.one(ctx)
    pairs = [(x, y), (one, x), (cls.zero(ctx), y), (y, y)]
    want = running_sum(pairs)
    monkeypatch.setattr(cls, "__mul__", lambda *_: pytest.fail("ring product ran"))
    assert dot(pairs) == want


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("cls", RINGS)
def test_matrix_products_and_the_action_equal_the_composition(ctx, cls):
    """``Mat2 @``, ``act`` (data and lift) and ``transform_cert`` equal the
    composition of products they replace."""

    @CHECKS
    @given(st.lists(elements(ctx, cls), min_size=12, max_size=12))
    def check(es):
        m1, m2 = PointedSL2._of(((es[0], es[1]), (es[2], es[3]))), \
            PointedSL2._of(((es[4], es[5]), (es[6], es[7])))
        (a, b), (c, d) = m1.entries
        (e, f), (g, h) = m2.entries
        want = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        assert tuple(r for row in (m1 @ m2).entries for r in row) == want
        assert dot([(a, e), (b, g)]) == want[0]

        s0, s1, t0, t1 = es[8:]
        moved = act(m1, JMap(1, (s0, s1, t0, t1), (s1, t0, t1, s0), ([s0, s1], [t0, t1])))
        want = (a * s0 + b * t0, a * s1 + b * t1, c * s0 + d * t0, c * s1 + d * t1)
        assert moved.data == want
        assert tuple(moved.homog[0] + moved.homog[1]) == want
        Ux, Vx, Uw, Vw = s1, t0, t1, s0
        want = (Ux * d - Vx * c, Vx * a - Ux * b, Uw * d - Vw * c, Vw * a - Uw * b)
        assert transform_cert(m1.entries, (Ux, Vx, Uw, Vw)) == want
        assert moved.cert == want

    check()
