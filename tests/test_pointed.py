"""One pointed check and one normalizer over R and R[T].

The oracles below are the inline normalization code that ``make_map``,
``make_row``, the segment record and ``lift_row_homotopy`` each carried
before they shared ``pointed_alpha`` and ``normalized``: every constructor
must return what its own copy returned, on pointed data scaled by a unit
c != 1.  ``PointedSL2`` and ``Sl2Path`` must refuse the same bad data with
the same messages.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou.errors import LiftMismatch, NoCertificate, NotPointed, NotUnimodular
from jouanolou.field import Fp, QQ
from jouanolou.homotopy import (
    Segment,
    Sl2Path,
    constant_witness,
    gu1_action_witness,
    interp_lift,
    lift_row_homotopy,
    scaling_witness,
    transpose_inverse_witness,
)
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import (
    JMap,
    RationalMapP1,
    cert_expands_to_one,
    g_uv,
    generation_columns,
    groebner_cofactors,
    make_map,
    make_row,
    n_pi,
    pullback_rational,
)
from jouanolou.sl2 import PointedSL2, act, complete_pointed, m_uv
from jouanolou.textio import parse_ring
from test_closure import lift_expands

CHECKS = settings(max_examples=20, deadline=None, derandomize=True)
FIELDS = [QQ, Fp(7)]


# ---------------------------------------------------------------------------
# the former inline code, kept as the oracle


def _old_pointed_alpha(first, second):
    if not second.eval_basepoint().is_zero:
        return None
    return first.eval_basepoint()


def _old_make_map(n, a0, a1, b0, b1, cert=None, homog=None):
    alpha = _old_pointed_alpha(a0, b0)
    if alpha is None:
        raise NotPointed("second section does not vanish at the basepoint")
    coeffs = (a0, a1, b0, b1)
    if alpha != alpha.ctx.one:
        inv = alpha.inverse()
        coeffs = tuple(c.scale(inv) for c in coeffs)
        if cert is not None:
            cert = tuple(c.scale(alpha) for c in cert)
        if homog is not None:
            homog = tuple([e.scale(inv) for e in lst] for lst in homog)
    cols = generation_columns(n, *coeffs)
    if cert is None:
        cert = groebner_cofactors(cols)
    assert cert_expands_to_one(cert, cols)
    return JMap(n, coeffs, tuple(cert), homog)


def _old_make_row(A, B, cert=None):
    alpha = _old_pointed_alpha(A, B)
    if alpha is None:
        raise NotPointed("row is not pointed")
    if cert is None:
        cert = groebner_cofactors((A, B))
        if cert is None:
            raise NotUnimodular("row does not generate the unit ideal")
    if alpha.is_zero:
        raise NotPointed("row evaluates to (0, 0) at the basepoint")
    U, V = cert
    if alpha != alpha.ctx.one:
        inv = alpha.inverse()
        A, B = A.scale(inv), B.scale(inv)
        U, V = U.scale(alpha), V.scale(alpha)
    if A * U + B * V != RingElement.one(A.ctx):
        raise NotUnimodular("Bezout certificate does not expand to 1")
    return JMap(0, (A, B), (U, V))


def _old_record(seg, t):
    vals = seg.at(t).data
    alpha = _old_pointed_alpha(vals[0], vals[len(vals) // 2])
    if alpha is None or alpha.is_zero:
        return None
    if seg.degree != 0:
        vals = generation_columns(seg.degree, *vals)
    inv = alpha.inverse()
    return (seg.degree, tuple(c.scale(inv) for c in vals))


def _record(seg, t):
    """The comparison record of a segment at t, read as the oracle's
    (degree, normalized generation columns)."""
    rec = seg.at(t).record()
    return None if rec is None else (rec.degree, rec.expanded)


def _old_lift_row_homotopy(seg, budget=None):
    A, B = seg.data
    alpha = A.basepoint_constant()
    if alpha is None or alpha.is_zero or not B.basepoint_is_zero():
        raise LiftMismatch("family is not pointed")
    cert = seg.cert
    if alpha != alpha.ctx.one:
        inv = alpha.inverse()
        A, B = A.scale(inv), B.scale(inv)
        if cert is not None:
            cert = tuple(c.scale(alpha) for c in cert)
    if cert is not None and not cert_expands_to_one(cert, (A, B)):
        cert = None
    if cert is None:
        cert = groebner_cofactors((A, B), budget)
        if cert is None:
            raise NoCertificate("family is not unimodular over R[T]")
    U1, V1 = cert
    U2 = U1 + B * V1
    V2 = V1 - A * V1
    return ((A, -V2), (B, U2))


# ---------------------------------------------------------------------------
# pointed data


def _elementary(ctx, rng, upper):
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    y, z, w = (g(ctx) for g in (RingElement.gen_y, RingElement.gen_z, RingElement.gen_w))
    r = y.scale(ctx.elem(rng.randint(1, 3))) + (z if rng.random() < 0.5 else w)
    return PointedSL2(((one, r), (zero, one)) if upper else ((one, zero), (r, one)))


@lru_cache(maxsize=None)
def _maps(ctx):
    """Pointed normalized maps of nonzero degree, with and without a lift."""
    rng = random.Random(f"pointed:{ctx.p}")
    rational = RationalMapP1(ctx, 2, [ctx.elem(2), ctx.one, ctx.one], [ctx.one, ctx.elem(3)])
    pull = pullback_rational(rational)
    moved = act(_elementary(ctx, rng, True) @ _elementary(ctx, rng, False), n_pi(1, ctx))
    return [n_pi(1, ctx), n_pi(3, ctx), pull, moved, n_pi(2, ctx).tau_transport()]


@lru_cache(maxsize=None)
def _rows(ctx):
    rng = random.Random(f"rows:{ctx.p}")
    M = _elementary(ctx, rng, False) @ m_uv(ctx.elem(2), ctx.elem(3)) @ _elementary(ctx, rng, True)
    return [g_uv(ctx.elem(2), ctx.one), g_uv(ctx.elem(3), ctx.elem(5)), M.row_map()]


@lru_cache(maxsize=None)
def _segments(ctx):
    """Witness segments of degree 0 and 2, plus families that leave the
    pointed maps at some T (second datum + T, or first datum times T)."""
    M = complete_pointed(g_uv(ctx.elem(2), ctx.one))
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    lift = PointedSL2(((one, RingElement.gen_y(ctx)), (zero, one)))
    rows = [
        scaling_witness(M, ctx.elem(3)).segments[0],
        transpose_inverse_witness(M).segments[0],
        interp_lift(make_row(one, zero), PointedSL2(((one, zero), (zero, one))), lift).segments[0],
    ]
    quads = [gu1_action_witness(ctx.elem(3), n_pi(1, ctx)).segments[0]]
    quads.append(constant_witness(_maps(ctx)[2]).segments[0])
    T = RingPolyT.gen_T(ctx)
    off = []
    for seg in rows[:1] + quads:
        data, half = list(seg.data), len(seg.data) // 2
        off.append(Segment(seg.degree, tuple(data[:half] + [data[half] + T] + data[half + 1 :])))
        off.append(Segment(seg.degree, tuple([data[0] * T] + data[1:])))
    return rows, quads, off


def units(ctx):
    if ctx.p is None:
        ints = st.integers(-5, 5).filter(lambda v: v not in (0, 1))
        return st.builds(lambda a, b: QQ.elem(Fraction(a, b)), ints, ints).filter(
            lambda c: c != QQ.one
        )
    return st.integers(2, ctx.p - 1).map(ctx.elem)


def _scaled(c, data, cert):
    inv = c.inverse()
    cert = None if cert is None else tuple(e.scale(inv) for e in cert)
    return tuple(d.scale(c) for d in data), cert


@pytest.mark.parametrize("ctx", FIELDS)
def test_make_map_normalizes_like_the_former_inline_code(ctx):
    @CHECKS
    @given(st.sampled_from(_maps(ctx)), units(ctx), st.booleans())
    def check(f, c, with_homog):
        quad, cert = _scaled(c, f.data, f.cert)
        homog = None
        if with_homog and f.homog is not None:
            homog = tuple([e.scale(c) for e in lst] for lst in f.homog)
        got = make_map(f.degree, *quad, cert=cert)
        want = _old_make_map(f.degree, *quad, cert=cert, homog=homog)
        assert (got.data, got.cert) == (want.data, want.cert)
        # the lift the former code rescaled with the data expands to the result
        assert lift_expands(JMap(got.degree, got.data, got.cert, want.homog))
        assert got == f

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_make_row_normalizes_like_the_former_inline_code(ctx):
    @CHECKS
    @given(st.sampled_from(_rows(ctx)), units(ctx), st.booleans())
    def check(r, c, keep_cert):
        row, cert = _scaled(c, r.data, r.cert if keep_cert else None)
        got = make_row(*row, cert=cert)
        want = _old_make_row(*row, cert=cert)
        assert (got.data, got.cert) == (want.data, want.cert)
        assert got == r

    check()


@pytest.mark.parametrize(
    "texts, cert, error, message",
    [
        (("y", "1"), None, NotPointed, "row is not pointed"),
        (("y", "z"), None, NotUnimodular, "row does not generate the unit ideal"),
        (("y", "z"), ("z", "y"), NotPointed, "row evaluates to (0, 0) at the basepoint"),
        (("2", "y"), ("y", "y"), NotUnimodular, "Bezout certificate does not expand to 1"),
    ],
)
def test_make_row_keeps_its_refusals(texts, cert, error, message):
    A, B = (parse_ring(s, QQ) for s in texts)
    cert = None if cert is None else tuple(parse_ring(s, QQ) for s in cert)
    for build in (make_row, _old_make_row):
        with pytest.raises(error) as exc:
            build(A, B, cert)
        assert str(exc.value) == message


@pytest.mark.parametrize("ctx", FIELDS)
def test_segment_record_normalizes_like_the_former_inline_code(ctx):
    rows, quads, off = _segments(ctx)
    params = [ctx.zero, ctx.one, ctx.elem(2), ctx.elem(Fraction(1, 2))]

    @CHECKS
    @given(st.sampled_from(rows + quads + off), units(ctx), st.sampled_from(params))
    def check(seg, c, t):
        data, cert = _scaled(c, seg.data, seg.cert)
        scaled = Segment(seg.degree, data, cert)
        assert _record(scaled, t) == _old_record(scaled, t)
        assert _record(seg, t) == _old_record(seg, t)
        if _record(seg, t) is not None:
            assert _record(scaled, t) == _record(seg, t)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_lift_row_homotopy_normalizes_like_the_former_inline_code(ctx):
    rows = _segments(ctx)[0]

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.sampled_from(rows), units(ctx), st.sampled_from(["keep", "drop", "break"]))
    def check(seg, c, cert_mode):
        cert = {"keep": seg.cert, "drop": None, "break": tuple(e + e for e in seg.cert)}[cert_mode]
        data, cert = _scaled(c, seg.data, cert)
        scaled = Segment(0, data, cert)
        assert lift_row_homotopy(scaled).entries == _old_lift_row_homotopy(scaled)

    check()


@pytest.mark.parametrize("ctx", FIELDS)
def test_lift_row_homotopy_refuses_unpointed_families_like_before(ctx):
    T, one = RingPolyT.gen_T(ctx), RingPolyT.one(ctx)
    y = RingPolyT.from_ring(RingElement.gen_y(ctx))
    for A, B in ((one + T, y), (one, one), (one - one, y), (one, T)):
        seg = Segment(0, (A, B), None)
        with pytest.raises(LiftMismatch, match="family is not pointed"):
            lift_row_homotopy(seg)
        with pytest.raises(LiftMismatch):
            _old_lift_row_homotopy(seg)


# ---------------------------------------------------------------------------
# the one matrix check


def _entries(ctx, texts):
    return tuple(tuple(parse_ring(s, ctx) for s in row) for row in texts)


def _lift_t(entries):
    return tuple(tuple(RingPolyT.from_ring(e) for e in row) for row in entries)


NOT_IDENTITY = "matrix is not the identity at the basepoint"
NOT_DET_ONE = "matrix determinant is not 1"


# (entries, message, is the matrix the identity at the basepoint?)
@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize(
    "texts, message, pointed",
    [
        ((("1", "1"), ("0", "1")), NOT_IDENTITY, False),
        ((("1", "0"), ("1", "1")), NOT_IDENTITY, False),
        ((("1", "1 + y"), ("0", "1")), NOT_IDENTITY, False),
        ((("2", "0"), ("0", "1/2")), NOT_IDENTITY, False),
        ((("1", "0"), ("0", "1 + y")), NOT_DET_ONE, True),
        ((("x", "0"), ("0", "x")), NOT_DET_ONE, True),
        ((("1", "y"), ("0", "2")), NOT_DET_ONE, False),
    ],
)
def test_pointed_sl2_and_sl2path_reject_the_same_data(ctx, texts, message, pointed):
    entries = _entries(ctx, texts)
    with pytest.raises(ValueError) as exc:
        PointedSL2(entries)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        Sl2Path(_lift_t(entries))
    assert str(exc.value) == message
    assert PointedSL2._of(entries).is_pointed() == pointed
    assert Sl2Path._of(_lift_t(entries)).is_pointed() == pointed


@pytest.mark.parametrize("ctx", FIELDS)
def test_sl2path_rejects_a_basepoint_value_that_varies_with_t(ctx):
    T, one, zero = RingPolyT.gen_T(ctx), RingPolyT.one(ctx), RingPolyT.zero(ctx)
    # both are the identity at T = 0 only: the check holds for every T
    for entries in (((one, T), (zero, one)), ((one, zero), (T, one))):
        assert not Sl2Path._of(entries).is_pointed()
        with pytest.raises(ValueError) as exc:
            Sl2Path(entries)
        assert str(exc.value) == NOT_IDENTITY
    with pytest.raises(ValueError) as exc:
        Sl2Path(((one + T, zero), (zero, one)))
    assert str(exc.value) == NOT_DET_ONE


@pytest.mark.parametrize("ctx", FIELDS)
def test_good_matrices_pass_both_checks(ctx):
    M = m_uv(ctx.elem(2), ctx.elem(3))
    assert PointedSL2(M.entries) == M and M.is_pointed()
    path = Sl2Path(_lift_t(M.entries))
    assert path.is_pointed() and path.at(ctx.elem(5)) == M
