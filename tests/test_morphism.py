import hashlib
import random
from fractions import Fraction

import pytest

from jouanolou.errors import (
    NotGenerating,
    NotPointed,
    NotUnimodular,
    ResultantZero,
    ZeroParameter,
)
from jouanolou.field import Fp, QQ
from jouanolou.homgrp import ReferenceFamily, decompose, oplus
from jouanolou.jring import RingElement
from jouanolou.morphism import (
    RationalMapP1,
    cert_expands_to_one,
    g_uv,
    generation_columns,
    make_map,
    make_row,
    map_equal,
    n_pi,
    pullback_rational,
    rational_xu,
)
from jouanolou.sl2 import act, m_uv, row_sum
from jouanolou.textio import map_str, parse_ring, ring_str, witness_str


def R(s, ctx=QQ):
    return parse_ring(s, ctx)


ONE = RingElement.one(QQ)
ZERO = RingElement.zero(QQ)


def test_pi_is_valid():
    pi = make_map(1, ONE, ZERO, ZERO, ONE)
    assert pi.degree == 1 and pi.kind == "P"
    assert map_equal(pi, n_pi(1, QQ))


def test_pi_tilde_is_valid():
    tilde = make_map(-1, ONE, ZERO, ZERO, -ONE)
    assert tilde.degree == -1 and tilde.kind == "Q"
    assert tilde.expanded == (R("x"), R("-z"), R("y"), R("-w"))


def test_zero_second_section_rejected():
    with pytest.raises(NotGenerating):
        make_map(1, ONE, ZERO, ZERO, ZERO)


def test_unpointed_rejected():
    with pytest.raises(NotPointed):
        make_map(1, ONE, ZERO, ONE, ZERO)  # b0 = 1 at the basepoint


def test_make_row_examples():
    row = make_row(R("2*x - 1"), R("2*y"))
    assert row.degree == 0
    assert row.data == (R("2*x - 1"), R("2*y"))
    identity = make_row(ONE, ZERO)
    assert identity.data == (ONE, ZERO)
    with pytest.raises(NotUnimodular):
        make_row(R("y"), R("z"))


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_certificates_need_one_cofactor_per_column(ctx):
    """A certificate with too few or too many entries is refused as not
    expanding to 1, not dropped by zip or unpacked into a ValueError."""
    f = n_pi(2, ctx)
    cols = generation_columns(f.degree, *f.data)
    assert cert_expands_to_one(f.cert, cols)
    for cert in ((), f.cert[:1], f.cert[:3], f.cert + f.cert[:1]):
        assert not cert_expands_to_one(cert, cols)
        with pytest.raises(NotGenerating):
            make_map(f.degree, *f.data, cert=cert)
    g = g_uv(ctx.elem(3), ctx.elem(2))
    for cert in ((), g.cert[:1], g.cert + g.cert[:1]):
        with pytest.raises(NotUnimodular):
            make_row(*g.data, cert=cert)
    assert make_row(*g.data, cert=list(g.cert)).cert == g.cert


def test_row_normalization():
    # (2, 2y) rescales to (1, y)
    row = make_row(R("2"), R("2*y"))
    assert row.data == (ONE, R("y"))


def test_g_uv_examples():
    g = g_uv(QQ.one, QQ.elem(-1))
    assert g.data == (R("2*x - 1"), R("2*y"))
    assert g_uv(QQ.elem(3), QQ.elem(3)).data == (ONE, ZERO)
    with pytest.raises(ZeroParameter):
        g_uv(QQ.zero, QQ.one)


def test_g_uv_carries_unit_determinant_certificate():
    g = g_uv(QQ.elem(3), QQ.elem(2))
    A, B = g.data
    U, V = g.cert
    assert A * U + B * V == ONE


def test_g_u1_rows_distinct_as_data():
    units = [QQ.elem(v) for v in (2, 3, -1, Fraction(1, 2))]
    for i, u in enumerate(units):
        for v in units[i + 1 :]:
            assert not map_equal(g_uv(u, QQ.one), g_uv(v, QQ.one))


def test_n_pi_small_cases():
    pi2 = n_pi(2, QQ)
    assert pi2.expanded[0] == R("x^2 - y^2")
    assert pi2.expanded[2] == R("z^2 - w^2")
    assert pi2.expanded[1] == R("x*y")
    assert pi2.expanded[3] == R("z*w")
    pi3 = n_pi(3, QQ)  # construction validates generation
    assert pi3.degree == 3


def test_pullback_examples():
    for u in (QQ.elem(2), QQ.elem(Fraction(1, 2))):
        f = pullback_rational(rational_xu(u))
        expect = make_map(1, ONE, ZERO, ZERO, RingElement.from_scalar(u))
        assert map_equal(f, expect)
    assert map_equal(pullback_rational(rational_xu(QQ.one)), n_pi(1, QQ))
    f2 = pullback_rational(RationalMapP1(QQ, 2, [QQ.one, QQ.zero, QQ.one], [QQ.zero, QQ.one]))
    assert f2.degree == 2  # construction proves generation


def test_pullback_degree_matches():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(1, 3)
        a = [QQ.elem(rng.randint(-2, 2)) for _ in range(n)] + [QQ.one]
        b = [QQ.elem(rng.randint(-2, 2)) for _ in range(n)]
        if all(v.is_zero for v in b):
            b[0] = QQ.one
        try:
            f = RationalMapP1(QQ, n, a, b)
        except ResultantZero:
            continue
        assert pullback_rational(f).degree == n


def test_zero_resultant_rejected():
    with pytest.raises(ResultantZero):
        RationalMapP1(QQ, 1, [QQ.zero, QQ.one], [QQ.zero])  # X / 0


def test_map_equal_examples():
    pi = n_pi(1, QQ)
    assert map_equal(pi, make_map(1, ONE, ZERO, ZERO, ONE))
    tilde = make_map(-1, ONE, ZERO, ZERO, -ONE)
    assert not map_equal(pi, tilde)


def test_tau_transport_flips_degree():
    f = pullback_rational(rational_xu(QQ.elem(2)))
    t = f.tau_transport()
    assert t.degree == -1 and t.kind == "Q"
    assert t.tau_transport() == f


def test_scaled_data_is_same_map():
    two = QQ.elem(2)
    f = make_map(1, ONE.scale(two), ZERO, ZERO, ONE.scale(two))
    assert map_equal(f, n_pi(1, QQ))


@pytest.mark.parametrize("ctx", [QQ, Fp(7)])
def test_constructed_maps_are_normalized(ctx):
    rng = random.Random(8)
    for _ in range(8):
        n = rng.randint(1, 2)
        a = [ctx.elem(rng.randint(-2, 2)) for _ in range(n)] + [ctx.one]
        b = [ctx.elem(rng.randint(-2, 2)) for _ in range(n)]
        if all(v.is_zero for v in b):
            b[0] = ctx.one
        try:
            f = pullback_rational(RationalMapP1(ctx, n, a, b))
        except ResultantZero:
            continue
        assert f.data[0].eval_basepoint() == ctx.one
        assert f.data[2].eval_basepoint().is_zero


def _serialized_builds():
    """Every reference map n_pi(1..10) over Q, F_7 and F_1000003, and
    pullbacks of degree 1 to 4 over Q and F_7: the printed map, its
    certificate and its homogeneous lift, one line each."""
    for ctx in (QQ, Fp(7), Fp(1000003)):
        for n in range(1, 11):
            yield n_pi(n, ctx)
    for ctx in (QQ, Fp(7)):
        for n in range(1, 5):
            a = [ctx.elem(i + 2) for i in range(n)] + [ctx.one]
            b = [ctx.elem(2 * i - 1) for i in range(n)]
            yield pullback_rational(RationalMapP1(ctx, n, a, b))


def test_reference_maps_and_pullbacks_serialize_as_recorded():
    # a sha1 over map_str, certificate and lift of the builds above; any
    # change to the section layer, the certificate builder or normalization
    # that moves one byte of them changes it
    digest = hashlib.sha1()
    for f in _serialized_builds():
        lines = [map_str(f), *(ring_str(c) for c in f.cert)]
        lines += [" ".join(ring_str(c) for c in side) for side in f.homog]
        digest.update(("\n".join(lines) + "\n\n").encode())
    assert digest.hexdigest() == "2010172675fdba4f8189269049d3a16e555c9efa"


def _section_data_builds():
    """Over Q and F_7, maps built by every other constructor of section
    data: spanning-column and tau-built negative references, g_uv rows and
    their sums, the action, tau transport, oplus down to degree 0; then the
    witness text of one decomposition."""
    for ctx in (QQ, Fp(7)):
        e = ctx.elem
        qbasis, naive = ReferenceFamily(ctx), ReferenceFamily(ctx, "naive")
        for n in (1, 2, 3):
            yield qbasis.qref(n)
            yield qbasis.qref(-n)
            yield naive.ref(-n)
        g, h = g_uv(e(2), e(3)), g_uv(e(5), e(-1))
        yield from (g, h, row_sum(g, h), row_sum(h, g))
        f = pullback_rational(RationalMapP1(ctx, 2, [e(2), e(3), ctx.one], [e(1), e(-1)]))
        yield from (act(m_uv(e(2), e(3)), f), act(m_uv(e(3), e(-2)), naive.ref(-2)))
        yield from (f.tau_transport(), g.tau_transport(), naive.ref(-3).tau_transport())
        p1 = pullback_rational(RationalMapP1(ctx, 1, [e(2), ctx.one], [e(3)]))
        yield oplus(p1, naive.ref(-1))
        yield oplus(p1, qbasis.qref(-1))
        yield witness_str(decompose(f, qbasis).witness, ctx)


def test_section_data_of_every_constructor_serializes_as_recorded():
    # the same sha1 scheme as above: map_str, certificate and lift (when
    # carried) of each map, or the witness text
    digest = hashlib.sha1()
    for item in _section_data_builds():
        if isinstance(item, str):
            lines = [item]
        else:
            lines = [map_str(item), *(ring_str(c) for c in item.cert)]
            if item.homog is not None:
                lines += [" ".join(ring_str(c) for c in side) for side in item.homog]
        digest.update(("\n".join(lines) + "\n\n").encode())
    assert digest.hexdigest() == "313990f3229034e102712e722e085c2080e09c03"
