import itertools
import random

import pytest

from jouanolou.field import Fp, QQ
from jouanolou.jring import RingElement
from jouanolou.morphism import g_uv, make_map, make_row, map_equal, n_pi
from jouanolou.sl2 import (
    PointedSL2,
    act,
    boxplus_act,
    complete_pointed,
    identity_matrix,
    m_uv,
    row_inverse,
    row_sum,
)
from jouanolou.textio import parse_ring


def R(s, ctx=QQ):
    return parse_ring(s, ctx)


ONE = RingElement.one(QQ)
ZERO = RingElement.zero(QQ)


def test_pointedness_enforced():
    with pytest.raises(ValueError):
        PointedSL2(((ONE, ONE), (ZERO, ONE)))  # det 1 but not identity at basepoint
    with pytest.raises(ValueError):
        PointedSL2(((ONE, ZERO), (ZERO, ONE + R("y"))))  # det != 1


def test_complete_identity_row():
    assert complete_pointed(make_row(ONE, ZERO)) == identity_matrix(QQ)


def test_complete_g_row_gives_m():
    u, v = QQ.elem(3), QQ.elem(2)
    assert complete_pointed(g_uv(u, v)) == m_uv(u, v)
    g = g_uv(QQ.one, QQ.elem(-1))
    M = complete_pointed(g)
    assert M.entries == ((R("2*x - 1"), R("-2*z")), (R("2*y"), R("2*x - 1")))


def test_completion_repoints_arbitrary_certificates():
    # a row whose Bezout data is not pointed still completes pointedly
    A, B = R("2*x - 1"), R("2*y")
    d = R("x")  # d(basepoint) != 0, so the raw lift is not pointed
    U = R("2*x - 1") + B * d
    V = R("2*z") - A * d
    assert A * U + B * V == ONE
    assert not V.eval_basepoint().is_zero
    M = complete_pointed(make_row(A, B, cert=(U, V)))
    assert M.row_A == A and M.row_B == B


def test_row_sum_matrix_identity():
    for u, v, s in itertools.product([QQ.elem(2), QQ.elem(3), QQ.elem(5)], repeat=3):
        assert map_equal(row_sum(g_uv(u, v), g_uv(v, s)), g_uv(u, s))
    u, v = QQ.elem(3), QQ.elem(2)
    assert map_equal(row_sum(g_uv(u, v), g_uv(v, u)), make_row(ONE, ZERO))
    r = g_uv(QQ.elem(5), QQ.elem(3))
    assert map_equal(row_sum(make_row(ONE, ZERO), r), r)


def test_row_inverse():
    assert map_equal(row_inverse(make_row(ONE, ZERO)), make_row(ONE, ZERO))
    g = g_uv(QQ.one, QQ.elem(-1))
    inv = row_inverse(g)
    assert inv.data == (R("2*x - 1"), R("-2*y"))
    assert map_equal(row_sum(g, inv), make_row(ONE, ZERO))
    # class level: the inverse of g_{u,v} is in the class of g_{v,u}
    prod = complete_pointed(g_uv(QQ.elem(3), QQ.elem(2))) @ m_uv(QQ.elem(2), QQ.elem(3))
    assert prod == identity_matrix(QQ)


def test_act_examples():
    pi = n_pi(1, QQ)
    u = QQ.elem(2)
    assert map_equal(act(m_uv(u, QQ.one), pi), make_map(1, ONE, ZERO, ZERO, R("2")))
    assert map_equal(act(identity_matrix(QQ), pi), pi)
    F = act(m_uv(QQ.one, QQ.elem(-1)), pi)
    assert F.data == (R("2*x - 1"), R("-2*z"), R("2*y"), R("2*x - 1"))


def test_act_is_left_action():
    rng = random.Random(3)
    pi2 = n_pi(2, QQ)
    for _ in range(6):
        M1 = m_uv(QQ.elem(rng.choice([2, 3, 5])), QQ.elem(rng.choice([1, 2, 7])))
        M2 = m_uv(QQ.elem(rng.choice([1, 4])), QQ.elem(rng.choice([2, 3])))
        assert map_equal(act(M1 @ M2, pi2), act(M1, act(M2, pi2)))


def test_act_rejects_rows():
    with pytest.raises(ValueError):
        act(identity_matrix(QQ), make_row(ONE, ZERO))


def test_boxplus_counterexample():
    pi = n_pi(1, QQ)
    M = PointedSL2(((R("2*x - 1"), R("-2*y")), (R("2*z"), R("2*x - 1"))))
    H = boxplus_act(M, pi)
    assert map_equal(H, make_map(1, ONE, ZERO, ZERO, -ONE))
    assert map_equal(boxplus_act(identity_matrix(QQ), pi), pi)
    assert not map_equal(boxplus_act(M, pi), act(M, pi))


def test_matrix_group_laws_random():
    rng = random.Random(11)
    y, z, w = R("y"), R("z"), R("w")

    def rand_pointed():
        M = m_uv(QQ.elem(rng.choice([1, 2, 3, -1])), QQ.elem(rng.choice([1, 2, 5])))
        r = y.scale(QQ.elem(rng.randint(-2, 2))) + z.scale(QQ.elem(rng.randint(-2, 2)))
        E = PointedSL2(((ONE, r), (ZERO, ONE)))
        return M @ E

    ident = identity_matrix(QQ)
    for _ in range(8):
        A, B, C = rand_pointed(), rand_pointed(), rand_pointed()
        assert (A @ B) @ C == A @ (B @ C)
        assert A @ ident == A and ident @ A == A
        assert A @ A.inverse() == ident


@pytest.mark.parametrize("p", [5, 7])
def test_m_grid_over_prime_field(p):
    ctx = Fp(p)
    ident = identity_matrix(ctx)
    units = [ctx.elem(v) for v in range(1, p)]
    for u in units[:3]:
        for v in units[:3]:
            for s in units[:3]:
                assert m_uv(u, v) @ m_uv(v, s) == m_uv(u, s)
            assert m_uv(u, v) @ m_uv(v, u) == ident


def test_act_preserves_validity():
    # the result of act re-validates pointedness/normalization/generation
    rng = random.Random(19)
    pi3 = n_pi(3, QQ)
    for _ in range(4):
        M = m_uv(QQ.elem(rng.choice([2, 3])), QQ.elem(rng.choice([1, 5])))
        g = act(M, pi3)
        assert g.data[0].eval_basepoint() == QQ.one
        assert g.data[2].eval_basepoint().is_zero
        from jouanolou.morphism import cert_expands_to_one

        assert cert_expands_to_one(g.cert, g.expanded)
