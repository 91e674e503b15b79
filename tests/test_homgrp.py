import random
from fractions import Fraction

import pytest

from jouanolou import homotopy, sl2
from jouanolou.errors import NoCertificate, ResultantNotUnit
from jouanolou.field import Fp, QQ
from jouanolou.homgrp import (
    ReferenceFamily,
    decompose,
    decompose_matrix,
    naive_sum_deg1,
    oplus,
)
from jouanolou.homotopy import verify
from jouanolou.jring import RingElement
from jouanolou.morphism import (
    JMap,
    RationalMapP1,
    cert_expands_to_one,
    g_uv,
    make_map,
    make_row,
    map_equal,
    n_pi,
    pullback_rational,
    rational_xu,
)
from jouanolou.sl2 import act, complete_pointed, identity_matrix, m_uv, row_inverse
from jouanolou.textio import map_str, parse_ring


def R(s, ctx=QQ):
    return parse_ring(s, ctx)


ONE = RingElement.one(QQ)
ZERO = RingElement.zero(QQ)


@pytest.fixture(scope="module")
def refs():
    return ReferenceFamily(QQ)


def test_reference_maps(refs):
    assert map_equal(refs.ref(1), n_pi(1, QQ))
    assert map_equal(refs.ref(2), n_pi(2, QQ))
    assert refs.ref(-1).degree == -1
    assert map_equal(refs.ref(-1), make_map(-1, ONE, ZERO, ZERO, ONE))
    with pytest.raises(ValueError):
        refs.ref(0)


def test_spanning_ref_and_recursion_differ(refs):
    # the plain spanning-column map is NOT the reference in degree 2
    assert not map_equal(refs.qref(2), refs.ref(2))


def test_naive_negative_family():
    naive = ReferenceFamily(QQ, "naive")
    tilde = make_map(-1, ONE, ZERO, ZERO, -ONE)
    assert map_equal(naive.ref(-1), tilde)
    assert naive.ref(-2).degree == -2


def test_decompose_scaled_map(refs):
    u = QQ.elem(2)
    f = pullback_rational(rational_xu(u))
    d = decompose(f, refs)
    assert map_equal(act(d.matrix, refs.ref(1)), f)
    assert verify(d.witness, act(d.matrix, refs.ref(1)), f)
    # the matrix is in the class of m_{u,1}: equal here on the nose
    assert d.matrix == m_uv(u, QQ.one)


def test_decompose_unpointed_intermediate(refs):
    # (1,1;0,1)_1 forces the off-diagonal correction by e = 1
    f = make_map(1, ONE, ONE, ZERO, ONE)
    d = decompose(f, refs)
    assert d.matrix == identity_matrix(QQ)
    assert verify(d.witness, act(d.matrix, refs.ref(1)), f)


def test_decompose_reference_is_trivial(refs):
    for n in (1, 2, -1):
        f = refs.ref(n)
        d = decompose(f, refs)
        assert d.matrix == identity_matrix(QQ)
        assert verify(d.witness, act(d.matrix, f), f)


def test_decompose_negative_degree(refs):
    tilde = make_map(-1, ONE, ZERO, ZERO, -ONE)
    d = decompose(tilde, refs)
    assert verify(d.witness, act(d.matrix, refs.ref(-1)), tilde)


def test_oplus_g_with_pi(refs):
    u = QQ.elem(2)
    got = oplus(g_uv(u, QQ.one), n_pi(1, QQ), refs)
    assert map_equal(got, pullback_rational(rational_xu(u)))


def test_oplus_pi_pi_is_reference(refs):
    assert map_equal(oplus(n_pi(1, QQ), n_pi(1, QQ), refs), n_pi(2, QQ))


def test_oplus_inverse_rows(refs):
    r = g_uv(QQ.elem(3), QQ.elem(2))
    assert map_equal(oplus(r, row_inverse(r), refs), make_row(ONE, ZERO))


def test_oplus_degree_additivity(refs):
    rng = random.Random(21)
    pool = [
        n_pi(1, QQ),
        n_pi(2, QQ),
        make_map(-1, ONE, ZERO, ZERO, -ONE),
        g_uv(QQ.elem(2), QQ.one),
        pullback_rational(rational_xu(QQ.elem(3))),
    ]
    for _ in range(8):
        f, g = rng.choice(pool), rng.choice(pool)
        assert oplus(f, g, refs).degree == f.degree + g.degree


def test_oplus_commutes_at_class_level(refs):
    # decompose both orders; the difference of matrices is pointed with det 1
    f = pullback_rational(rational_xu(QQ.elem(2)))
    g = act(m_uv(QQ.elem(3), QQ.one), n_pi(2, QQ))
    fg = oplus(f, g, refs)
    gf = oplus(g, f, refs)
    assert fg.degree == gf.degree == 3
    dfg = decompose(fg, refs)
    dgf = decompose(gf, refs)
    diff = dfg.matrix @ dgf.matrix.inverse()  # construction validates both laws
    assert diff.ctx == QQ


def test_naive_sum_at_one_is_recursion():
    got, witness = naive_sum_deg1(QQ.one, n_pi(1, QQ))
    assert map_equal(got, n_pi(2, QQ))
    assert verify(witness, got, act(m_uv(QQ.one, QQ.one), got))


def test_naive_sum_general_unit():
    u = QQ.elem(Fraction(1, 2))
    raised, witness = naive_sum_deg1(u, n_pi(1, QQ))
    base, _ = naive_sum_deg1(QQ.one, n_pi(1, QQ))
    assert verify(witness, raised, act(m_uv(u, QQ.one), base))


def test_naive_sum_iterated_chain():
    f = n_pi(1, QQ)
    for target_degree in (2, 3, 4):
        f, witness = naive_sum_deg1(QQ.one, f)
        assert map_equal(f, n_pi(target_degree, QQ))
        assert verify(witness, f, act(m_uv(QQ.one, QQ.one), f))


def test_naive_sum_of_pullback():
    f2 = pullback_rational(RationalMapP1(QQ, 2, [QQ.one, QQ.one, QQ.one], [QQ.zero, QQ.one]))
    u = QQ.elem(3)
    raised, witness = naive_sum_deg1(u, f2)
    assert raised.degree == 3
    target = act(m_uv(u, QQ.one), naive_sum_deg1(QQ.one, f2)[0])
    assert verify(witness, raised, target)


def test_naive_sum_needs_a_constant_top_lift_coefficient():
    # the raised pair's resultant has the top coefficient of the twisted
    # lift as a factor: a pullback's lift ends in (1, 0) and is certified,
    # the same map moved by m_(2,3) ends in nonconstants and is refused
    f = pullback_rational(RationalMapP1(QQ, 1, [QQ.one, QQ.one], [QQ.elem(2)]))
    raised, witness = naive_sum_deg1(QQ.elem(2), f)
    assert raised.degree == 2
    assert verify(witness, raised, act(m_uv(QQ.elem(2), QQ.one), naive_sum_deg1(QQ.one, f)[0]))
    twisted = act(m_uv(QQ.elem(2), QQ.elem(3)), f)
    L0, L1 = twisted.canonical_lift()
    assert not L0[-1].is_constant and not L1[-1].is_zero
    with pytest.raises(ResultantNotUnit, match="raised pair does not have unit resultant"):
        naive_sum_deg1(QQ.elem(2), twisted)


@pytest.mark.parametrize("p", [5, 7])
def test_oplus_over_prime_fields(p):
    ctx = Fp(p)
    refs = ReferenceFamily(ctx)
    u = ctx.elem(2)
    got = oplus(g_uv(u, ctx.one), n_pi(1, ctx), refs)
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    assert map_equal(got, make_map(1, one, zero, zero, RingElement.from_scalar(u)))


def test_square_sum_matrix_level(refs):
    # with v a square the product row equals the combined row exactly
    u, v = QQ.elem(3), QQ.elem(4)
    from jouanolou.sl2 import row_sum

    lhs = row_sum(g_uv(u, QQ.one), g_uv(v, QQ.one))
    from jouanolou.homotopy import square_sum_witness

    w = square_sum_witness(u, QQ.elem(2))
    assert verify(w, lhs, g_uv(QQ.elem(12), QQ.one))


def test_pi_tilde_sum_is_a_row(refs):
    tilde = make_map(-1, ONE, ZERO, ZERO, -ONE)
    out = oplus(n_pi(1, QQ), tilde, refs)
    assert out.degree == 0  # the library does not decide whether it is trivial


@pytest.mark.parametrize("p", [2, 3])
def test_small_characteristic(p):
    # characteristic 2 and 3 exercise binomial and sign edge cases
    ctx = Fp(p)
    refs = ReferenceFamily(ctx)
    pi = n_pi(1, ctx)
    assert map_equal(oplus(pi, pi, refs), n_pi(2, ctx))
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    tilde = make_map(-1, one, zero, zero, -one)
    d = decompose(tilde, refs)
    assert verify(d.witness, act(d.matrix, refs.ref(-1)), tilde)
    for v in range(1, p):
        u = ctx.elem(v)
        raised, witness = naive_sum_deg1(u, pi)
        assert verify(witness, raised, act(m_uv(u, ctx.one), n_pi(2, ctx)))


def test_qref_is_built_once_per_degree():
    refs = ReferenceFamily(QQ)
    for n in (2, -3):
        assert refs.qref(n) is refs.qref(n)
    assert refs.ref(-3) is refs.qref(-3)


def test_decompose_matrix_is_the_matrix_of_decompose():
    # degree 2 and -2: ref(n) is not the spanning map in either mode
    f = act(m_uv(QQ.elem(3), QQ.elem(2)), pullback_rational(
        RationalMapP1(QQ, 2, [QQ.one, QQ.elem(2), QQ.one], [QQ.elem(3), QQ.one])))
    for mode in ("qbasis", "naive"):
        for g in (f, f.tau_transport()):
            refs = ReferenceFamily(QQ, mode)
            matrix = decompose_matrix(g, refs)
            d = decompose(g, ReferenceFamily(QQ, mode))
            assert matrix == d.matrix
            assert verify(d.witness, act(matrix, refs.ref(g.degree)), g)
    with pytest.raises(ValueError, match="nonzero degrees"):
        decompose_matrix(g_uv(QQ.elem(2), QQ.one), ReferenceFamily(QQ))


def oplus_oracle(f, g, refs):
    """The group operation through the full decomposition: the matrices of
    ``decompose`` (completions in degree 0), multiplied, acting on the
    reference map of the summed degree (the first column at degree 0)."""
    mf, mg = (complete_pointed(h) if h.degree == 0 else decompose(h, refs).matrix for h in (f, g))
    n = f.degree + g.degree
    return (mf @ mg).row_map() if n == 0 else act(mf @ mg, refs.ref(n))


def _oplus_operands(ctx):
    two, three = ctx.elem(2), ctx.elem(3)
    p1 = pullback_rational(rational_xu(three))
    q1 = pullback_rational(RationalMapP1(ctx, 1, [ctx.one, ctx.one], [two]))
    p2 = pullback_rational(RationalMapP1(ctx, 2, [ctx.one, two, ctx.one], [three, ctx.one]))
    return {
        "p1": p1,
        "q1": q1,
        "p2": p2,
        "m1": act(m_uv(two, three), q1),
        "t1": p1.tau_transport(),
        "t2": p2.tau_transport(),
        "g0": g_uv(three, two),
    }


# pullbacks, twisted maps (a matrix action, tau transports to negative
# degrees), a degree-0 operand on either side, and summed degree 0
OPLUS_PAIRS = [("p1", "q1"), ("m1", "p2"), ("p2", "t1"), ("g0", "p2"), ("t2", "g0"),
               ("p1", "t1"), ("t2", "p2"), ("m1", "t2")]


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("mode", ["qbasis", "naive"])
def test_oplus_equals_the_product_of_decompose_matrices(ctx, mode):
    maps = _oplus_operands(ctx)
    warm = ReferenceFamily(ctx, mode)
    for a, b in OPLUS_PAIRS:
        f, g = maps[a], maps[b]
        want = oplus_oracle(f, g, warm)
        # cold: a family that has built nothing; warm: the oracle's own
        for refs in (ReferenceFamily(ctx, mode), warm):
            got = oplus(f, g, refs)
            assert got.degree == f.degree + g.degree
            assert map_str(got) == map_str(want)
            assert got.cert == want.cert


def test_a_map_without_certificate_is_refused(refs):
    """A nonzero-degree map carrying no certificate (a segment's value at a
    parameter) is refused with NoCertificate, as a row in that state is."""
    bare = decompose(n_pi(2, QQ), refs).witness.segments[-1].at(QQ.one)
    assert bare.degree == 2 and bare.cert is None
    with pytest.raises(NoCertificate, match="no generation certificate"):
        decompose(bare, refs)
    with pytest.raises(NoCertificate, match="no generation certificate"):
        decompose_matrix(bare, refs)
    for f, g in ((bare, n_pi(1, QQ)), (n_pi(1, QQ), bare)):
        with pytest.raises(NoCertificate, match="no generation certificate"):
            oplus(f, g, refs)


# --- deferred transport: certificates and lifts built on first read ---------------


def _counted(monkeypatch, module, name) -> list:
    """The calls of ``module.name`` from here on, one entry each."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_action_and_tau_transport_build_on_first_read(ctx, monkeypatch):
    """``act`` transports neither certificate nor lift, and ``tau_transport``
    swaps no certificate, until read; a read gives the eager formula's
    value, and a second read builds nothing."""
    f, M = n_pi(3, ctx), m_uv(ctx.elem(2), ctx.elem(3))
    want_cert = sl2.transform_cert(M.entries, f.cert)
    want_homog = sl2._rows(M.entries, *f.homog)
    certs = _counted(monkeypatch, sl2, "transform_cert")
    rows = _counted(monkeypatch, sl2, "_rows")
    g = act(M, f)
    t = g.tau_transport()
    assert (len(certs), len(rows)) == (0, 1)  # the section data's rows only
    assert t.cert == tuple(c.tau() for c in want_cert)
    assert g.cert == want_cert and g.homog == want_homog
    assert (len(certs), len(rows)) == (1, 2)
    assert g.cert is g.cert and g.homog is g.homog and t.cert is t.cert
    assert t.homog is None
    assert (len(certs), len(rows)) == (1, 2)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_oplus_transports_on_first_read(ctx, monkeypatch):
    maps, refs = _oplus_operands(ctx), ReferenceFamily(ctx)
    f, g = maps["p1"], maps["p2"]
    total = decompose_matrix(f, refs) @ decompose_matrix(g, refs)
    ref = refs.ref(3)
    want = sl2.transform_cert(total.entries, ref.cert), sl2._rows(total.entries, *ref.homog)
    certs = _counted(monkeypatch, sl2, "transform_cert")
    rows = _counted(monkeypatch, sl2, "_rows")
    s = oplus(f, g, refs)
    assert (len(certs), len(rows)) == (0, 1)
    # normalized already: its record is itself, its certificate unread
    assert s.record() is s and not certs
    assert (s.cert, s.homog) == want
    assert cert_expands_to_one(s.cert, s.expanded)
    assert (len(certs), len(rows)) == (1, 2)


def test_record_builds_the_certificate_to_normalize_it(monkeypatch):
    f, M = n_pi(2, QQ), m_uv(QQ.elem(2), QQ.elem(3))
    certs = _counted(monkeypatch, sl2, "transform_cert")
    g = act(M, f)
    half, two = QQ.elem(1) / QQ.elem(2), QQ.elem(2)
    scaled = JMap(2, tuple(c.scale(two) for c in g.data),
                  lambda: tuple(c.scale(half) for c in g.cert))
    assert not certs
    r = scaled.record()
    assert len(certs) == 1
    assert (r.data, r.cert) == (g.data, g.cert)


def _no_groebner(*args, **kwargs):
    raise AssertionError("a decompose witness segment carries its certificate")


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("mode", ["qbasis", "naive"])
def test_decompose_witnesses_verify_on_their_certificates(ctx, mode, monkeypatch):
    maps, refs = _oplus_operands(ctx), ReferenceFamily(ctx, mode)
    monkeypatch.setattr(homotopy, "groebner_certificate", _no_groebner)
    for label in ("p1", "p2", "m1", "t1", "t2"):
        f = maps[label]
        d = decompose(f, refs)
        assert verify(d.witness, act(d.matrix, refs.ref(d.n)), f)
