import random
from fractions import Fraction

import pytest

from jouanolou import homotopy
from jouanolou.bundle import resultant_univ, unit_scalar
from jouanolou.errors import LiftMismatch, NoCertificate, ResultantNotUnit, ZeroParameter
from jouanolou.field import Fp, QQ
from jouanolou.homotopy import (
    HomotopyWitness,
    Segment,
    Sl2Path,
    constant_witness,
    diagonal_path,
    gu1_action_witness,
    gu1_example_witness,
    interp_lift,
    lift_row_homotopy,
    map_record,
    mutate_witness,
    scaling_witness,
    square_sum_witness,
    transpose_inverse_witness,
    verify,
)
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import g_uv, make_row, n_pi, pullback_rational, rational_xu
from jouanolou.sl2 import PointedSL2, act, complete_pointed, m_uv, row_sum
from jouanolou.textio import parse_ring


def R(s, ctx=QQ):
    return parse_ring(s, ctx)


ONE = RingElement.one(QQ)
ZERO = RingElement.zero(QQ)


def test_constant_witness_valid():
    pi = n_pi(1, QQ)
    assert verify(constant_witness(pi), pi, pi)


def test_constant_witness_wrong_endpoint():
    pi = n_pi(1, QQ)
    other = pullback_rational(rational_xu(QQ.elem(2)))
    v = verify(constant_witness(pi), pi, other)
    assert not v and v.reason == "EndpointMismatch"


def test_interp_lift_example():
    row = make_row(ONE, ZERO)
    l1 = PointedSL2(((ONE, ZERO), (ZERO, ONE)))
    l2 = PointedSL2(((ONE, R("y")), (ZERO, ONE)))
    assert verify(interp_lift(row, l1, l2), row, row)
    # identical lifts give a constant witness
    assert verify(interp_lift(row, l1, l1), row, row)


def test_interp_lift_mismatch():
    row = make_row(ONE, ZERO)
    other = complete_pointed(g_uv(QQ.elem(2), QQ.one))
    with pytest.raises(LiftMismatch):
        interp_lift(row, other, other)


@pytest.mark.parametrize("uv", [(2, 1), (1, -1), (3, 2)])
def test_transpose_inverse_witness(uv):
    M = m_uv(QQ.elem(uv[0]), QQ.elem(uv[1]))
    w = transpose_inverse_witness(M)
    src = make_row(M.row_A, M.row_B, (M.U, M.V))
    dst = make_row(M.U, M.V, (M.row_A, M.row_B))
    assert verify(w, src, dst)


def test_transpose_inverse_identity():
    from jouanolou.sl2 import identity_matrix

    M = identity_matrix(QQ)
    row = make_row(ONE, ZERO)
    assert verify(transpose_inverse_witness(M), row, row)


def test_scaling_witness_over_f5():
    F5 = Fp(5)
    g = g_uv(F5.one, F5.elem(-1))  # (2x-1, 2y)
    M = complete_pointed(g)
    w = scaling_witness(M, F5.elem(2))
    # 4 * 2y = 8y = 3y over F_5
    target = make_row(g.row[0], g.row[1].scale(F5.elem(4)))
    assert target.row[1] == parse_ring("3*y", F5)
    assert verify(w, g, target)


def test_scaling_witness_u_one_is_constant():
    g = g_uv(QQ.elem(3), QQ.one)
    w = scaling_witness(complete_pointed(g), QQ.one)
    assert verify(w, g, g)


def test_scaling_zero_parameter():
    with pytest.raises(ZeroParameter):
        scaling_witness(complete_pointed(g_uv(QQ.elem(3), QQ.one)), QQ.zero)


def test_square_scale_g_family():
    # g_{3,1} -> g_{12,4} by c = 2
    g = g_uv(QQ.elem(3), QQ.one)
    w = scaling_witness(complete_pointed(g), QQ.elem(2))
    assert verify(w, g, g_uv(QQ.elem(12), QQ.elem(4)))


def test_diagonal_path_endpoints():
    u = QQ.elem(3)
    D = diagonal_path(u)
    from jouanolou.sl2 import identity_matrix

    assert D.at(QQ.zero) == identity_matrix(QQ)
    (e00, e01), (e10, e11) = D.entries_at(QQ.one)
    assert e00 == RingElement.from_scalar(u.inverse())
    assert e11 == RingElement.from_scalar(u)
    assert e01.is_zero and e10.is_zero


def test_lift_row_homotopy_constant():
    g = g_uv(QQ.elem(2), QQ.one)
    seg = constant_witness(g).segments[0]
    path = lift_row_homotopy(seg)
    assert path.is_pointed()
    assert path.at(QQ.zero).first_column() == tuple(g.row)


def test_lift_row_homotopy_idempotent_on_lifted_data():
    row = make_row(ONE, ZERO)
    l1 = PointedSL2(((ONE, ZERO), (ZERO, ONE)))
    l2 = PointedSL2(((ONE, R("y")), (ZERO, ONE)))
    seg = interp_lift(row, l1, l2).segments[0]
    relift = lift_row_homotopy(seg)
    assert relift.is_pointed()
    assert relift.at(QQ.zero).first_column() == tuple(row.row)


def test_lift_row_homotopy_from_groebner():
    # strip the certificate from a valid family: the membership engine recovers one
    g = g_uv(QQ.elem(3), QQ.one)
    seg = scaling_witness(complete_pointed(g), QQ.elem(2)).segments[0]
    bare = Segment(0, seg.data, None)
    path = lift_row_homotopy(bare)
    assert path.is_pointed()
    assert verify(path.row_witness(), g, g_uv(QQ.elem(12), QQ.elem(4)))


def test_interpolating_g_parameters_is_not_unimodular():
    # the straight-line family between g_{1,2} and g_{1,4} degenerates at T=-1,
    # so it is not unimodular over R[T]
    x, y, w = R("x"), R("y"), R("w")
    vT = (RingPolyT.one(QQ) + RingPolyT.gen_T(QQ)).scale(QQ.elem(2))
    A = RingPolyT.from_ring(x) + vT * w
    B = (RingPolyT.one(QQ) - vT) * y
    with pytest.raises(NoCertificate):
        lift_row_homotopy(Segment(0, (A, B), None))


def test_gu1_action_witness_endpoints_and_resultant():
    u = QQ.elem(2)
    pi = n_pi(1, QQ)
    w = gu1_action_witness(u, pi)
    assert len(w.segments) == 1
    seg = w.segments[0]
    # T=1 endpoint is the matrix acting on the degree-2 reference
    assert seg.record(QQ.one) == map_record(act(m_uv(u, QQ.one), n_pi(2, QQ)))
    # the dehomogenized family has constant unit resultant -u * res(f) = -2
    L0, L1 = pi.canonical_lift()
    zero_t = RingPolyT.zero(QQ)
    F1 = [RingPolyT.from_ring(c) for c in L0]
    F2 = [RingPolyT.from_ring(c) for c in L1]
    yT = RingPolyT.gen_T(QQ).scale(-(u - QQ.one) / u) * R("y")
    F1t = [p + yT * q for p, q in zip(F1, F2)]
    H0 = [q.scale(-(u.inverse())) for q in F2 + [zero_t]]
    for i, p in enumerate(F1t):
        H0[i + 1] = H0[i + 1] + p
    H1 = [p.scale(u) for p in F1t]
    res = resultant_univ(H0, H1, 2, 1)
    assert unit_scalar(res) == -u


def _raised_cert_input(top):
    """Lifts F1 = 1 + top*X, F2 = X over R[T], as _raise_cert takes them."""
    return [RingPolyT.from_ring(R("1")), RingPolyT.from_ring(top)], [
        RingPolyT.zero(QQ),
        RingPolyT.one(QQ),
    ]


def test_raise_cert_refuses_a_raised_pair_without_unit_resultant():
    F1, F2 = _raised_cert_input(R("y"))
    with pytest.raises(ResultantNotUnit, match="raised pair does not have unit resultant"):
        homotopy._raise_cert(QQ, 1, F1, F2, QQ.elem(2))
    F1, F2 = _raised_cert_input(R("1"))
    assert homotopy._raise_cert(QQ, 1, F1, F2, QQ.elem(2)) is not None


def _random_t_entry(rng, ctx):
    e = RingElement.from_scalar(ctx.elem(rng.randint(-2, 2)))
    if rng.random() < 0.5:
        gen = rng.choice((RingElement.gen_x, RingElement.gen_y, RingElement.gen_w))(ctx)
        e = e + gen.scale(ctx.elem(rng.randint(1, 2)))
    t = RingPolyT.from_ring(e)
    if rng.random() < 0.3:
        t = t + RingPolyT.gen_T(ctx) * RingElement.gen_z(ctx)
    return t


@pytest.mark.parametrize("ctx", [QQ, Fp(7)])
def test_reversed_raised_resultant_is_top_coefficient_times_raised(ctx):
    # why _raise_cert needs no fallback for the reversed pair: its resultant
    # is +-F1[n] times the raised one, so it is a unit whenever that one is
    rng = random.Random(f"raise-cert:{ctx.p}")
    zero_t, u = RingPolyT.zero(ctx), ctx.elem(3)
    for n in (1, 1, 2, 2, 2):
        F1 = [_random_t_entry(rng, ctx) for _ in range(n + 1)]
        F2 = [_random_t_entry(rng, ctx) for _ in range(n + 1)]
        H0 = [q.scale(-u.inverse()) for q in F2 + [zero_t]]
        for i, p in enumerate(F1):
            H0[i + 1] = H0[i + 1] + p
        H1 = [p.scale(u) for p in F1]
        res = resultant_univ(H0, H1, n + 1, n)
        res_rev = resultant_univ(H0[::-1], [zero_t] + H1[::-1], n + 1, n + 1)
        assert res_rev in (F1[n] * res, -(F1[n] * res))


def test_gu1_example_witness_orientation():
    from jouanolou.homgrp import ReferenceFamily, naive_sum_deg1, oplus

    u = QQ.elem(3)
    pi = n_pi(1, QQ)
    refs = ReferenceFamily(QQ)
    w = gu1_example_witness(u, pi)
    start = oplus(g_uv(u, QQ.one), n_pi(2, QQ), refs)
    end, _ = naive_sum_deg1(u, pi)
    assert verify(w, start, end)


def test_square_sum_witness():
    u, c = QQ.elem(3), QQ.elem(2)
    w = square_sum_witness(u, c)
    src = row_sum(g_uv(u, QQ.one), g_uv(c * c, QQ.one))
    dst = g_uv(u * c * c, QQ.one)
    assert len(w.segments) == 2
    assert verify(w, src, dst)


def test_corrupted_witness_detected():
    g = g_uv(QQ.elem(3), QQ.one)
    w = scaling_witness(complete_pointed(g), QQ.elem(2))
    dst = g_uv(QQ.elem(12), QQ.elem(4))
    assert verify(w, g, dst)
    rng = random.Random(99)
    for _ in range(25):
        bad = mutate_witness(w, rng)
        assert not verify(bad, g, dst)


def test_unpointed_segment_reported():
    pi = n_pi(1, QQ)
    w = constant_witness(pi)
    seg = w.segments[0]
    # corrupt the second section with a term that survives at the basepoint
    bad_b0 = seg.data[2] + RingPolyT.from_ring(R("x"))
    bad = HomotopyWitness([Segment(1, (seg.data[0], seg.data[1], bad_b0, seg.data[3]), None)])
    v = verify(bad, pi, pi)
    assert not v and v.reason == "NotPointedAtT"


def test_chain_break_reported():
    pi = n_pi(1, QQ)
    f = pullback_rational(rational_xu(QQ.elem(2)))
    w = constant_witness(pi).then(constant_witness(f))
    v = verify(w, pi, f)
    assert not v and v.reason == "ChainBreak"


def test_witness_reverse():
    g = g_uv(QQ.elem(3), QQ.one)
    w = scaling_witness(complete_pointed(g), QQ.elem(2))
    dst = g_uv(QQ.elem(12), QQ.elem(4))
    assert verify(w.reverse(), dst, g)


def test_sl2path_requires_det_one():
    T = RingPolyT.gen_T(QQ)
    one_t = RingPolyT.one(QQ)
    with pytest.raises(ValueError):
        Sl2Path(((one_t + T, RingPolyT.zero(QQ)), (RingPolyT.zero(QQ), one_t)))


def test_square_scale_reaches_normalized_parameter():
    # with v = 4 a square, g_{u,4} connects to g_{u/4,1} by scaling with 1/2
    u = QQ.elem(3)
    g = g_uv(u, QQ.elem(4))
    w = scaling_witness(complete_pointed(g), QQ.elem(Fraction(1, 2)))
    assert verify(w, g, g_uv(u / QQ.elem(4), QQ.one))


def test_generation_over_rt_specializes_pointwise():
    # a family's generation certificate specializes to a pointwise certificate
    # at T = 0, 1/2, 1 (necessary-condition cross-check)
    from jouanolou.morphism import cert_expands_to_one, generation_columns

    u = QQ.elem(3)
    witness = gu1_action_witness(u, n_pi(1, QQ))
    seg = witness.segments[0]
    for t in (QQ.zero, QQ.elem(Fraction(1, 2)), QQ.one):
        quad = seg.at(t)
        cols = generation_columns("P", seg.degree, *quad)
        cert_t = tuple(c.eval_at_T(t) for c in seg.cert)
        assert cert_expands_to_one(cert_t, cols)
