import math
import random

import numpy as np
import pytest

from jouanolou.field import Fp, QQ
from jouanolou.jring import RingElement
from jouanolou.morphism import g_uv, make_map, make_row, n_pi, pullback_rational, rational_xu
from jouanolou.realize import (
    RealizedMap,
    eval_rp1,
    gamma_point,
    on_surface_defect,
    winding_degree,
    winding_profile,
)
from jouanolou.sl2 import act, boxplus_act, complete_pointed
from jouanolou.textio import parse_ring


def R(s):
    return parse_ring(s, QQ)


ONE = RingElement.one(QQ)
ZERO = RingElement.zero(QQ)


def test_circle_lies_on_surface():
    for theta in np.linspace(0, 2 * math.pi, 97):
        assert on_surface_defect(float(theta)) < 1e-12


def test_gamma_starts_at_basepoint():
    x, y, z = gamma_point(0.0)
    assert (x, y, z) == (1.0, 0.0, 0.0)


def test_eval_pi():
    pi = n_pi(1, QQ)
    assert eval_rp1(pi, 0.0) == pytest.approx(0.0, abs=1e-12)
    for theta in (0.3, 1.2, 2.5, 4.0):
        want = math.atan2(math.sin(theta), 1 + math.cos(theta)) % math.pi
        assert eval_rp1(pi, theta) == pytest.approx(want, abs=1e-9)


def test_eval_double_cover():
    g = g_uv(QQ.one, QQ.elem(-1))
    for theta in (0.4, 1.0, 2.2, 5.1):
        want = math.atan2(math.sin(theta), math.cos(theta)) % math.pi
        assert eval_rp1(g, theta) == pytest.approx(want, abs=1e-9)


def test_known_degrees():
    pi = n_pi(1, QQ)
    g = g_uv(QQ.one, QQ.elem(-1))
    F = act(complete_pointed(g), pi)
    tilde = make_map(-1, ONE, ZERO, ZERO, -ONE)
    assert winding_degree(pi) == 1
    assert winding_degree(g) == 2
    assert winding_degree(F) == 3
    assert winding_degree(tilde) == -1


def test_transpose_action_realizes_wrong_degree():
    pi = n_pi(1, QQ)
    row2 = make_row(R("2*x - 1"), R("2*z"))
    M = complete_pointed(row2)
    assert winding_degree(boxplus_act(M, pi)) == -1
    assert winding_degree(act(M, make_map(-1, ONE, ZERO, ZERO, -ONE))) == 1


def test_residual_is_small():
    deg, raw, residual = winding_profile(n_pi(2, QQ))
    assert deg == 2 and residual < 1e-6


def test_chart_agreement_on_overlap():
    rng = random.Random(12)
    maps = [
        n_pi(1, QQ),
        n_pi(2, QQ),
        g_uv(QQ.one, QQ.elem(-1)),
        pullback_rational(rational_xu(QQ.elem(3))),
        make_map(-1, ONE, ZERO, ZERO, -ONE),
    ]
    for f in maps:
        rm = RealizedMap(f)
        thetas = []
        while len(thetas) < 64:
            t = rng.uniform(0, 2 * math.pi)
            x = (1 + math.cos(t)) / 2
            if min(abs(x), abs(1 - x)) > 0.1:  # both charts usable
                thetas.append(t)
        phi_x, phi_w = rm.chart_angles(np.array(thetas))
        diff = np.abs(phi_x - phi_w)
        diff = np.minimum(diff, math.pi - diff)
        assert float(np.max(diff)) < 1e-9


def test_angle_scale_invariance():
    # [p : q] and [c p : c q] give the same projective angle
    f = pullback_rational(rational_xu(QQ.elem(2)))
    g = make_map(
        1,
        f.coeffs[0].scale(QQ.elem(7)),
        f.coeffs[1].scale(QQ.elem(7)),
        f.coeffs[2].scale(QQ.elem(7)),
        f.coeffs[3].scale(QQ.elem(7)),
    )
    for theta in (0.3, 1.7, 3.9):
        assert eval_rp1(f, theta) == pytest.approx(eval_rp1(g, theta), abs=1e-9)


@pytest.mark.parametrize("samples", [0, -3])
def test_winding_profile_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        winding_profile(n_pi(1, QQ), samples)


def test_realization_needs_rationals():
    with pytest.raises(ValueError):
        RealizedMap(n_pi(1, Fp(5)))


def test_degree_zero_row_realization():
    row = g_uv(QQ.elem(2), QQ.one)
    assert winding_degree(row) == 0


def test_additivity_with_default_references_on_nonnegative_degrees():
    from jouanolou.homgrp import ReferenceFamily, oplus

    refs = ReferenceFamily(QQ)  # plain spanning-column family below zero (unused here)
    pool = [
        n_pi(1, QQ),
        n_pi(2, QQ),
        g_uv(QQ.one, QQ.elem(-1)),
        g_uv(QQ.elem(2), QQ.one),
        pullback_rational(rational_xu(QQ.elem(3))),
    ]
    for f in pool:
        for g in pool:
            s = oplus(f, g, refs)
            assert winding_degree(s) == winding_degree(f) + winding_degree(g)
