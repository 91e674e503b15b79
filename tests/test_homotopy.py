import random
import signal
from fractions import Fraction

import pytest

from jouanolou.bundle import (
    bezout_from_unit_resultant,
    generation_cofactors,
    homog_eval,
    pure_powers,
    raised_lift,
    resultant_univ,
    sigma,
    unit_scalar,
    unit_split,
)
from jouanolou import bundle, homotopy, morphism
from jouanolou.errors import (
    ContextMismatch,
    LiftMismatch,
    NoCertificate,
    ResultantNotUnit,
    ResultantZero,
    ZeroParameter,
)
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
    mutate_witness,
    raised_bezout_pairs,
    scaling_witness,
    square_sum_witness,
    transpose_inverse_witness,
    verify,
)
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import (
    JMap,
    RationalMapP1,
    g_uv,
    make_map,
    make_row,
    n_pi,
    pullback_rational,
    rational_xu,
)
from jouanolou.sl2 import PointedSL2, act, complete_pointed, identity_matrix, m_uv, row_sum
from jouanolou.textio import parse_map, parse_ring, parse_witness, ring_str, witness_str
from test_closure import lift_expands


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
    target = make_row(g.data[0], g.data[1].scale(F5.elem(4)))
    assert target.data[1] == parse_ring("3*y", F5)
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
    assert path.at(QQ.zero).first_column() == tuple(g.data)


def test_lift_row_homotopy_idempotent_on_lifted_data():
    row = make_row(ONE, ZERO)
    l1 = PointedSL2(((ONE, ZERO), (ZERO, ONE)))
    l2 = PointedSL2(((ONE, R("y")), (ZERO, ONE)))
    seg = interp_lift(row, l1, l2).segments[0]
    relift = lift_row_homotopy(seg)
    assert relift.is_pointed()
    assert relift.at(QQ.zero).first_column() == tuple(row.data)


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
    assert seg.at(QQ.one).record() == act(m_uv(u, QQ.one), n_pi(2, QQ))
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


def _lift_map(L0, L1):
    """The degree-1 map sigma(L0), sigma(L1), carrying its lift (L0, L1)."""
    s0, s1 = sigma(1, L0, L1)
    f = make_map(1, *s0, *s1, cert=generation_cofactors(1, L0, L1))
    f = JMap(1, f.data, f.cert, (L0, L1))
    assert lift_expands(f)
    return f


def test_raise_cert_refuses_a_raised_pair_without_unit_resultant():
    # the lift's top coefficient 1 + y is 1 at the basepoint but no unit of
    # R, and the twisted top coefficient divides the raised resultant
    f = _lift_map([R("1"), R("1 + y")], [R("1"), R("y")])
    with pytest.raises(ResultantNotUnit, match="raised pair does not have unit resultant"):
        gu1_action_witness(QQ.elem(2), f)
    g = _lift_map([R("1"), R("1")], [R("1"), R("0")])
    assert gu1_action_witness(QQ.elem(2), g).segments[0].cert is not None


def _raise_cert_oracle(ctx, n, F1, F2, u):
    """The former private certificate builder of the raising witness: bounds
    (n+1, n) for the raised pair, (n+1, n+1) for the reversed pair."""
    H0, H1 = raised_lift(u, F1, F2, RingPolyT.zero(ctx))
    try:
        U, V = bezout_from_unit_resultant(H0, H1, n + 1, n)
    except ResultantNotUnit:
        raise ResultantNotUnit("raised pair does not have unit resultant") from None
    S0_rev, S1_rev = list(reversed(H0)), list(reversed(H1))
    Ur, Vr = bezout_from_unit_resultant(S0_rev, S1_rev, n + 1, n + 1)
    xg, yg, zg, wg = pure_powers(ctx, 1)
    E, Fw = unit_split(ctx, 2 * n + 1)
    Ux = homog_eval(Ur, n, yg, xg) * E
    Vx = homog_eval(Vr, n, yg, xg) * E
    Uw = (homog_eval(U, n - 1, zg, wg) * wg) * Fw
    Vw = homog_eval(V, n, zg, wg) * Fw
    return (Ux, Vx, Uw, Vw)


def _random_pullback(rng, ctx, n):
    while True:
        a = [ctx.elem(rng.randint(-3, 3)) for _ in range(n)] + [ctx.one]
        b = [ctx.elem(rng.randint(-3, 3)) for _ in range(n)]
        try:
            return pullback_rational(RationalMapP1(ctx, n, a, b))
        except ResultantZero:
            continue


@pytest.mark.parametrize("ctx", [QQ, Fp(7)])
def test_raise_certificate_equals_the_former_builder(ctx):
    rng = random.Random(f"raise-oracle:{ctx.p}")
    for n in (1, 2, 3):
        f = _random_pullback(rng, ctx, n)
        for u in (ctx.one, ctx.elem(2), ctx.elem(3)):
            # f's lift twisted by the raising family, as gu1_action_witness does
            yT = RingPolyT.gen_T(ctx).scale(-(u - ctx.one) / u) * RingElement.gen_y(ctx)
            L0, L1 = f.canonical_lift()
            F1 = [RingPolyT.from_ring(p) + yT * q for p, q in zip(L0, L1)]
            F2 = [RingPolyT.from_ring(q) for q in L1]
            cert = gu1_action_witness(u, f).segments[0].cert
            assert cert == _raise_cert_oracle(ctx, n, F1, F2, u)


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
    # why the raised certificate needs no check of the reversed pair: its
    # resultant is +-F1[n] times the raised one, a unit whenever that one is
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


# ---------------------------------------------------------------------------
# the raise's Bezout pairs in closed form, against the Sylvester solves


def _twist(u):
    """-((u-1)/u)*y*T, the upper entry of the raising family's inner factor."""
    ctx = u.ctx
    return RingPolyT.gen_T(ctx).scale(-(u - ctx.one) / u) * RingElement.gen_y(ctx)


def _raised_pair_oracle(u, L0, L1):
    """The Sylvester solves at bounds (n+1, n+1) of the raise of the twisted
    lift and of its reversal, over R[T]."""
    n = len(L0) - 1
    c = _twist(u)
    F1 = [RingPolyT.from_ring(p) + c * q for p, q in zip(L0, L1)]
    F2 = [RingPolyT.from_ring(q) for q in L1]
    S0, S1 = raised_lift(u, F1, F2, RingPolyT.zero(u.ctx))
    return (
        *bezout_from_unit_resultant(S0, S1, n + 1, n + 1),
        *bezout_from_unit_resultant(S0[::-1], S1[::-1], n + 1, n + 1),
    )


def _raise_cases(ctx):
    """(label, map, u) at degrees 1-5: pullbacks at u = 1, 2, 3, the
    reference map, a pullback moved by a pointed upper factor, and one moved
    by a pointed lower factor at u = 1 (its L1[n] is z, not 0)."""
    rng = random.Random(f"raise-pairs:{ctx.p}")
    y, z = RingElement.gen_y(ctx), RingElement.gen_z(ctx)
    for n in range(1, 6):
        f = _random_pullback(rng, ctx, n)
        for u in (ctx.one, ctx.elem(2), ctx.elem(3)):
            yield f"pullback {n} u={u}", f, u
        yield f"n_pi {n}", n_pi(n, ctx), ctx.elem(2)
        yield f"upper {n}", act(PointedSL2.upper(y + z), f), ctx.elem(3)
        lower = act(PointedSL2.lower(z), f)
        assert lower.canonical_lift()[1][n] == z
        yield f"lower {n}", lower, ctx.one


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_raised_bezout_pairs_equal_the_sylvester_solves(ctx):
    for label, f, u in _raise_cases(ctx):
        L0, L1 = f.canonical_lift()
        got = raised_bezout_pairs(u, _twist(u), L0, L1)
        want = _raised_pair_oracle(u, L0, L1)
        assert got == want, label
        assert [[ring_str(c) for c in side] for side in got] == [
            [ring_str(c) for c in side] for side in want
        ], label


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_raised_bezout_pairs_refuse_maps_twisted_by_m_uv(ctx):
    # the twisted top coefficient L0[n] - ((u-1)/u)*y*T*L1[n] is no
    # constant: the Sylvester solve refuses, and the closed form with the
    # witness's text
    rng = random.Random(f"raise-refusals:{ctx.p}")
    for n in range(1, 5):
        f = act(m_uv(ctx.elem(2), ctx.elem(3)), _random_pullback(rng, ctx, n))
        for u in (ctx.one, ctx.elem(2)):
            L0, L1 = f.canonical_lift()
            with pytest.raises(ResultantNotUnit):
                _raised_pair_oracle(u, L0, L1)
            with pytest.raises(ResultantNotUnit) as refused:
                raised_bezout_pairs(u, _twist(u), L0, L1)
            assert str(refused.value) == "raised pair does not have unit resultant"
            with pytest.raises(ResultantNotUnit, match="raised pair does not have unit resultant"):
                gu1_action_witness(u, f)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_raised_resultant_is_u_g_squared_times_the_lift_resultant(ctx):
    # why the closed forms refuse exactly when the Sylvester solve does:
    # g = L0[n] + c*L1[n] and res(L0, L1) are the raised resultant's factors
    rng = random.Random(f"raised-resultant:{ctx.p}")
    u = ctx.elem(3)
    c = _twist(u)
    entries = ["1", "3", "0", "y", "z", "x + 2", "2*z + 1"]
    for n in (1, 1, 2, 2, 3):
        L0, L1 = ([R(rng.choice(entries), ctx) for _ in range(n + 1)] for _ in range(2))
        F1 = [RingPolyT.from_ring(p) + c * q for p, q in zip(L0, L1)]
        F2 = [RingPolyT.from_ring(q) for q in L1]
        S0, S1 = raised_lift(u, F1, F2, RingPolyT.zero(ctx))
        raised = resultant_univ(S0, S1, n + 1, n + 1)
        product = (F1[n] * F1[n] * RingPolyT.from_ring(resultant_univ(L0, L1, n, n))).scale(u)
        assert raised in (product, -product)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_raising_eliminates_only_constant_sylvester_matrices(ctx, monkeypatch):
    # the pairs of a constant lift are solved over k, 2n rows each, and no
    # symbolic Sylvester matrix of the raise is built
    from jouanolou.homgrp import naive_sum_deg1

    det_subset = bundle.det_subset
    sizes = []

    def constant_only(rows, zero, **kwargs):
        assert bundle._constant_values(rows) is not None
        sizes.append(len(rows))
        return det_subset(rows, zero, **kwargs)

    monkeypatch.setattr(bundle, "det_subset", constant_only)
    rng = random.Random(f"raise-constant:{ctx.p}")
    for n in range(1, 6):
        for f in (_random_pullback(rng, ctx, n), n_pi(n, ctx)):
            for u in (ctx.one, ctx.elem(3)):
                sizes.clear()
                gu1_action_witness(u, f)
                assert sizes == [2 * n, 2 * n]
                sizes.clear()
                naive_sum_deg1(u, f)
                assert sizes == [2 * n, 2 * n]


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_degree_five_raises_verify_from_their_certificates(ctx, monkeypatch):
    from jouanolou.homgrp import naive_sum_deg1

    rng = random.Random(f"raise-degree-five:{ctx.p}")
    maps = (_random_pullback(rng, ctx, 5), n_pi(5, ctx))
    for module in (morphism, homotopy):
        monkeypatch.setattr(module, "groebner_certificate", _no_groebner)
    for f in maps:
        for u in (ctx.one, ctx.elem(2)):
            raised, witness = naive_sum_deg1(u, f)
            end = act(m_uv(u, ctx.one), naive_sum_deg1(ctx.one, f)[0])
            assert verify(witness, raised, end)


def _no_groebner(*args, **kwargs):
    raise AssertionError("a certified raise needs no Groebner decision")


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


def test_certificate_free_segments_are_decided_without_converting_cofactors(monkeypatch):
    """Without segment certificates the verifier asks the groebner engine
    for membership only: it expands no cofactors, and none go back to
    R[T]."""
    from jouanolou import groebner, morphism

    g = g_uv(QQ.elem(3), QQ.one)
    w = scaling_witness(complete_pointed(g), QQ.elem(2))
    bare = HomotopyWitness([Segment(seg.degree, seg.data, None) for seg in w.segments])
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return express(*args, **kw)

    def refused(*args):
        raise AssertionError("cofactors expanded or converted")

    express = groebner.express_in_ideal
    monkeypatch.setattr(groebner, "express_in_ideal", counted)
    monkeypatch.setattr(groebner, "_expand", refused)
    monkeypatch.setattr(morphism, "_normal_form", refused)
    assert verify(bare, g, g_uv(QQ.elem(12), QQ.elem(4)))
    assert len(calls) == len(w.segments)


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
        quad = seg.at(t).data
        cols = generation_columns(seg.degree, *quad)
        cert_t = tuple(c.eval_at_T(t) for c in seg.cert)
        assert cert_expands_to_one(cert_t, cols)


def test_segments_and_paths_refuse_a_parameter_of_another_field():
    F7 = Fp(7)
    seg = constant_witness(n_pi(2, F7)).segments[0]
    path = diagonal_path(F7.elem(3))
    for t in (QQ.zero, QQ.elem(Fraction(1, 2))):
        for read in (seg.at, lambda t: seg.at(t).record(), path.at):
            with pytest.raises(ContextMismatch):
                read(t)
    assert seg.at(F7.elem(4)).data == n_pi(2, F7).data
    assert path.at(F7.zero) == identity_matrix(F7)


def _within_one_second(run):
    """run(), failing the test unless it returns within 1 s (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError("took more than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "literal, segment, reason",
    [
        ("map 1 [1; 0 | 0; 1]", 0, "EndpointMismatch"),
        ("map 2 [1; 0 | 0; 1]", 0, "ChainBreak"),
        ("map 2 [1; 0 | 0; 1]", 1, "ChainBreak"),
    ],
)
def test_an_edited_segment_degree_is_refused_before_any_expansion(literal, segment, reason):
    # the decomposition witness read back with one "segment degree" line
    # set to 10^6: the degrees differ, so no degree-10^6 column is built
    from jouanolou.homgrp import ReferenceFamily, decompose

    refs = ReferenceFamily(QQ)
    f = parse_map(literal, QQ)
    d = decompose(f, refs)
    start = act(d.matrix, refs.ref(d.n))
    lines = witness_str(d.witness, QQ).splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("segment degree")]
    assert verify(d.witness, start, f)
    lines[headers[segment]] = "segment degree 1000000"
    _, edited = parse_witness("\n".join(lines))
    verdict = _within_one_second(lambda: verify(edited, start, f))
    assert not verdict and verdict.reason == reason


# ---------------------------------------------------------------------------
# one action over R and R[T], against the segment actions written out by hand


def _apply_matrix_oracle(M, w):
    """A constant pointed matrix on every segment of a witness, entry by
    entry: the quadruple by M, the certificate by its adjugate."""
    (e00, e01), (e10, e11) = (tuple(RingPolyT.from_ring(e) for e in row) for row in M.entries)
    out = []
    for seg in w.segments:
        if seg.degree == 0:
            raise ValueError("matrix action applies to nonzero-degree segments")
        a0, a1, b0, b1 = seg.data
        data = (e00 * a0 + e01 * b0, e00 * a1 + e01 * b1, e10 * a0 + e11 * b0, e10 * a1 + e11 * b1)
        cert = None
        if seg.cert:
            ux, vx, uw, vw = seg.cert
            cert = (ux * e11 - vx * e10, vx * e00 - ux * e01, uw * e11 - vw * e10, vw * e00 - uw * e01)
        out.append(Segment(seg.degree, data, cert))
    return HomotopyWitness(out)


def _decompose_spanning(f):
    """The two steps of the factorization through the spanning-column map:
    the pointed matrix with its basepoint value, then the segment."""
    from jouanolou.homgrp import _spanning_matrix, _spanning_segment

    matrix, e = _spanning_matrix(f)
    return matrix, _spanning_segment(f, e)


def _decompose_spanning_oracle(f):
    """The factorization through (1,0;0,1)_n with its matrix row operation
    and straight-line segment (a0 - T e b0, a1 - T e b1; b0, b1) built by hand."""
    from jouanolou.bundle import spanning_powers

    ctx = f.ctx
    const = RingPolyT.from_ring
    a0, a1, b0, b1 = f.data
    target_r = RingElement.one(ctx) - (a0 * b1 - a1 * b0)
    ux, vx, uw, vw = f.cert
    c, cp, d, dp = target_r * vx, target_r * vw, target_r * ux, target_r * uw
    xn, yn, zn, wn = spanning_powers(ctx, f.degree)
    m_prime = (
        (a0 + yn * c + wn * cp, a1 - xn * c - zn * cp),
        (b0 - yn * d - wn * dp, b1 + xn * d + zn * dp),
    )
    e = (a1 - c).eval_basepoint()
    matrix = PointedSL2._of(
        (
            (m_prime[0][0] - m_prime[1][0].scale(e), m_prime[0][1] - m_prime[1][1].scale(e)),
            m_prime[1],
        )
    )
    eT = RingPolyT.gen_T(ctx).scale(e)
    quad = (const(a0) - eT * b0, const(a1) - eT * b1, const(b0), const(b1))
    ux, vx, uw, vw = (const(r) for r in f.cert)
    return matrix, Segment(f.degree, quad, (ux, vx + eT * ux, uw, vw + eT * uw))


def _same_segment(got, want):
    return (
        type(got) is Segment
        and got.degree == want.degree
        and got.data == want.data
        and got.cert == want.cert
    )


def _action_cases(ctx):
    """Maps of degrees -2..2 (pullbacks, moved pullbacks, references) and
    pointed matrices with nonconstant entries, over one field."""
    from jouanolou.homgrp import ReferenceFamily

    refs = ReferenceFamily(ctx)
    two, three = ctx.elem(2), ctx.elem(3)
    r = RingElement.gen_y(ctx) + RingElement.gen_z(ctx).scale(two)
    mats = [
        m_uv(two, three),
        m_uv(three, ctx.one) @ PointedSL2(PointedSL2.lower(r).entries),
        complete_pointed(g_uv(ctx.one, two)) @ PointedSL2(PointedSL2.upper(r).entries),
    ]
    f2 = pullback_rational(RationalMapP1(ctx, 2, [ctx.one, two, ctx.one], [three, ctx.one]))
    maps = [
        n_pi(1, ctx),
        f2,
        act(mats[1], pullback_rational(rational_xu(two))),
        refs.ref(-1),
        refs.ref(-2),
        n_pi(2, ctx).tau_transport(),
    ]
    return maps, mats


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_decompose_spanning_matches_the_hand_built_segment(ctx):
    maps, _ = _action_cases(ctx)
    for f in maps:
        matrix, seg = _decompose_spanning(f)
        want_matrix, want_seg = _decompose_spanning_oracle(f)
        assert type(matrix) is PointedSL2 and matrix.entries == want_matrix.entries
        assert _same_segment(seg, want_seg)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_path_action_on_segments_matches_the_entrywise_action(ctx):
    maps, mats = _action_cases(ctx)
    for f in maps:
        seg = _decompose_spanning(f)[1]
        w = HomotopyWitness([seg])
        # a v1 witness file drops segment certificates
        _, bare = parse_witness(witness_str(w, ctx))
        assert bare.segments[0].cert is None
        for M in mats:
            path = Sl2Path.constant(M)
            for source in (w, bare):
                got = act(path, source.segments[0])
                assert _same_segment(got, _apply_matrix_oracle(M, source).segments[0])
            moved = HomotopyWitness([act(path, seg)])
            assert verify(moved, act(M, seg.at(ctx.zero)), act(M, seg.at(ctx.one)))


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_path_action_transports_certificates_and_lifts(ctx):
    # act on a constant segment is the constant segment of act on the map
    maps, mats = _action_cases(ctx)
    for f in maps:
        for M in mats:
            got = act(Sl2Path.constant(M), Segment.constant(f))
            assert _same_segment(got, Segment.constant(act(M, f)))
    f = n_pi(2, ctx)
    moved = act(mats[1], f)
    assert moved.homog is not None and lift_expands(moved)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_action_refuses_degree_zero_segments(ctx):
    row = g_uv(ctx.one, ctx.elem(2))
    seg = Segment.constant(row)
    path = Sl2Path.constant(m_uv(ctx.elem(2), ctx.elem(3)))
    with pytest.raises(ValueError, match="degree-0"):
        act(path, seg)
    with pytest.raises(ValueError, match="nonzero-degree"):
        _apply_matrix_oracle(m_uv(ctx.elem(2), ctx.elem(3)), HomotopyWitness([seg]))
    with pytest.raises(ValueError, match="degree-0"):
        act(m_uv(ctx.elem(2), ctx.elem(3)), row)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_elementary_factors_over_r_and_r_t(ctx):
    from jouanolou.sl2 import Mat2

    for cls, ring in ((PointedSL2, RingElement), (Sl2Path, RingPolyT)):
        one, zero = ring.one(ctx), ring.zero(ctx)
        c = ring.gen_y(ctx) + ring.gen_x(ctx).scale(ctx.elem(3))
        upper, lower = cls.upper(c), cls.lower(c)
        assert type(upper) is cls and type(lower) is cls
        assert upper.entries == ((one, c), (zero, one))
        assert lower.entries == ((one, zero), (c, one))
        # a scalar of k becomes a constant of the ring
        assert cls.upper(ctx.elem(5)).entries == ((one, one.scale(ctx.elem(5))), (zero, one))
        # determinant 1, and the inverse is the factor at -c
        assert (upper @ cls.upper(-c)).entries == ((one, zero), (zero, one))
        assert (lower @ cls.lower(-c)).entries == ((one, zero), (zero, one))
        assert issubclass(cls, Mat2)
    # pointed exactly when c vanishes at the basepoint
    y = RingElement.gen_y(ctx)
    assert PointedSL2(PointedSL2.upper(y).entries) == PointedSL2.upper(y)
    with pytest.raises(ValueError, match="basepoint"):
        PointedSL2(PointedSL2.lower(RingElement.one(ctx)).entries)
    T = RingPolyT.gen_T(ctx)
    assert Sl2Path.upper(T).at(ctx.zero) == PointedSL2.upper(RingElement.zero(ctx))
