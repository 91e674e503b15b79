import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jouanolou.field import Fp, QQ
from jouanolou.jring import RingElement
from jouanolou.morphism import g_uv, make_map, make_row, n_pi, pullback_rational, rational_xu
from jouanolou.realize import (
    RealizedMap,
    _eval_compiled,
    _power_table,
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
        f.data[0].scale(QQ.elem(7)),
        f.data[1].scale(QQ.elem(7)),
        f.data[2].scale(QQ.elem(7)),
        f.data[3].scale(QQ.elem(7)),
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


def _eval_compiled_oracle(terms, x, y, z):
    """The evaluation loop before powers were cached: every term builds its
    own constant array and recomputes y**ye and z**ze."""
    acc = np.zeros_like(x)
    for c, xe, ye, ze in terms:
        t = np.full_like(x, c)
        if xe:
            t = t * x
        if ye:
            t = t * y**ye
        if ze:
            t = t * z**ze
        acc = acc + t
    return acc


def _bits(a):
    """The float64 bit patterns: unlike ==, this tells -0.0 from 0.0."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_cached_powers_evaluate_bitwise_like_the_plain_loop():
    from jouanolou.homgrp import ReferenceFamily, oplus
    from jouanolou.morphism import RationalMapP1

    third = QQ.elem("1/3")
    cubic = RationalMapP1(QQ, 3, [QQ.elem(2), QQ.zero, third, QQ.one], [QQ.one, QQ.elem(-5), QQ.zero])
    maps = [n_pi(d, QQ) for d in (1, 2, 3, 4)] + [
        pullback_rational(cubic),
        oplus(pullback_rational(rational_xu(QQ.elem(3))), n_pi(1, QQ), ReferenceFamily(QQ)),
    ]
    thetas = np.linspace(0.0, 2.0 * math.pi, 513)
    x = (1.0 + np.cos(thetas)) / 2.0
    y = np.sin(thetas) / 2.0
    z = np.cos(3.0 * thetas) / 3.0  # y and z differ, so each has its own powers
    top = 0
    for f in maps:
        rm = RealizedMap(f)
        ypow, zpow = _power_table(y, rm._exps), _power_table(z, rm._exps)
        for terms in rm.chart_x + rm.chart_w:
            top = max([top] + [max(ye, ze) for _, _, ye, ze in terms])
            want = _bits(_eval_compiled_oracle(terms, x, y, z))
            assert np.array_equal(_bits(_eval_compiled(terms, x, ypow, zpow)), want)
            want = _bits(_eval_compiled_oracle(terms, x, y, y))
            assert np.array_equal(_bits(_eval_compiled(terms, x, ypow, ypow)), want)
    assert top >= 4


def _sections_oracle(rm, thetas):
    """Both charts evaluated at every sample, the active one picked per
    sample by np.where: the evaluation the chart-subset one must match."""
    x = (1.0 + np.cos(thetas)) / 2.0
    y = np.sin(thetas) / 2.0
    w = 1.0 - x
    p_x = _eval_compiled_oracle(rm.chart_x[0], x, y, y)
    q_x = _eval_compiled_oracle(rm.chart_x[1], x, y, y)
    p_w = _eval_compiled_oracle(rm.chart_w[0], x, y, y)
    q_w = _eval_compiled_oracle(rm.chart_w[1], x, y, y)
    use_x = np.abs(x) >= np.abs(w)
    return np.where(use_x, p_x, p_w), np.where(use_x, q_x, q_w)


def _angles_oracle(rm, thetas):
    p, q = _sections_oracle(rm, thetas)
    if np.any((np.abs(p) < 1e-13) & (np.abs(q) < 1e-13)):
        raise AssertionError("oracle sections vanish on the active chart")
    return np.mod(np.arctan2(q, p), math.pi)


@functools.cache
def _bitwise_pool():
    from jouanolou.homgrp import ReferenceFamily, oplus

    refs = ReferenceFamily(QQ, "naive")
    pool = {f"n_pi({d})": n_pi(d, QQ) for d in (1, 2, 3, 4)}
    pool["g_uv(2, 1)"] = g_uv(QQ.elem(2), QQ.one)
    pool["tau ref(-2)"] = refs.ref(-2)
    pool["n_pi(2) + n_pi(1)"] = oplus(n_pi(2, QQ), n_pi(1, QQ), refs)
    pool["n_pi(2) + n_pi(2)"] = oplus(n_pi(2, QQ), n_pi(2, QQ), refs)
    return pool


POOL_LABELS = ["n_pi(1)", "n_pi(2)", "n_pi(3)", "n_pi(4)", "g_uv(2, 1)", "tau ref(-2)",
               "n_pi(2) + n_pi(1)", "n_pi(2) + n_pi(2)"]

SAMPLE_SETS = {
    "grid": np.linspace(0.0, 2.0 * math.pi, 4097),
    # cos >= 0 throughout, so x >= w and the chart-w subset is empty
    "chart x only": np.linspace(-1.2, 1.2, 301),
    "one theta": np.array([2.3]),  # the shape _refine evaluates
}


@pytest.mark.parametrize("label", POOL_LABELS)
@pytest.mark.parametrize("samples", list(SAMPLE_SETS))
def test_chart_subset_sections_are_bitwise_the_both_charts_ones(label, samples):
    rm = RealizedMap(_bitwise_pool()[label])
    thetas = SAMPLE_SETS[samples]
    if samples == "chart x only":
        x = (1.0 + np.cos(thetas)) / 2.0
        assert np.all(np.abs(x) >= np.abs(1.0 - x))
    p, q = rm.sections(thetas)
    p_want, q_want = _sections_oracle(rm, thetas)
    assert np.array_equal(_bits(p), _bits(p_want))
    assert np.array_equal(_bits(q), _bits(q_want))
    assert np.array_equal(_bits(rm.angles(thetas)), _bits(_angles_oracle(rm, thetas)))


def test_winding_profile_is_unchanged_under_the_both_charts_oracle(monkeypatch):
    pool = _bitwise_pool()
    assert list(pool) == POOL_LABELS
    got = {label: winding_profile(f) for label, f in pool.items()}
    monkeypatch.setattr(RealizedMap, "angles", _angles_oracle)
    want = {label: winding_profile(f) for label, f in pool.items()}
    assert got == want
    assert [deg for deg, _, _ in got.values()] == [1, 2, 3, 4, 0, -2, 3, 4]


# repr(winding_profile(f)) as the both-charts evaluation gave it: a change to
# the evaluator that moves a bit of raw or residual fails here, even if the
# oracle above moved along with it
GOLDEN_PROFILES = {
    "g": "(2, 2.0, 0.0)",
    "pi": "(1, 1.0000000000000275, 2.7533531010703882e-14)",
    "F": "(3, 3.0000000000000013, 1.3322676295501878e-15)",
    "tilde": "(-1, -1.0, 0.0)",
    "L": "(1, 1.0000000000000275, 2.7533531010703882e-14)",
    "H": "(-1, -1.0, 0.0)",
    "n_pi(2) + n_pi(1)": "(3, 2.9999999999999996, 4.440892098500626e-16)",
    "n_pi(2) + n_pi(2)": "(4, 4.0, 0.0)",
}


def test_winding_profiles_match_the_recorded_floats():
    from jouanolou.selftest import _appendix_maps

    pi, g, F, tilde, L, H, _ = _appendix_maps(QQ)
    maps = {"g": g, "pi": pi, "F": F, "tilde": tilde, "L": L, "H": H}
    maps.update((k, _bitwise_pool()[k]) for k in ("n_pi(2) + n_pi(1)", "n_pi(2) + n_pi(2)"))
    assert {k: repr(winding_profile(f)) for k, f in maps.items()} == GOLDEN_PROFILES


def _with_reversed_term_dicts(f):
    """f with the same data, every term dict of it in reverse order."""
    def rev(r):
        return type(r)(r.ctx, dict(reversed(r.terms.items())), r.den)

    return type(f)(f.degree, tuple(map(rev, f.data)), f.cert, f.homog)


def test_winding_profile_does_not_depend_on_key_order():
    """Pullbacks of degree 1-3, their twists by m_uv, and the sums of those
    with the naive reference maps: the printed profile is a function of the
    map, whatever the order of its term dicts."""
    from jouanolou.homgrp import ReferenceFamily, oplus
    from jouanolou.morphism import RationalMapP1
    from jouanolou.sl2 import m_uv

    rng = random.Random("key order")
    refs = ReferenceFamily(QQ, "naive")
    maps = []
    for n in (1, 2, 3):
        a = [QQ.elem(rng.randint(-3, 3)) for _ in range(n)] + [QQ.one]
        b = [QQ.elem(rng.randint(1, 3))] + [QQ.elem(rng.randint(-3, 3)) for _ in range(n - 1)]
        f = pullback_rational(RationalMapP1(QQ, n, a, b))
        twisted = act(m_uv(QQ.elem(rng.randint(2, 4)), QQ.elem(rng.randint(-3, -1))), f)
        maps += [f, twisted, oplus(twisted, refs.ref(-n - 1), refs)]
    for f in maps:
        assert repr(winding_profile(_with_reversed_term_dicts(f))) == repr(winding_profile(f))


# ---------------------------------------------------------------------------
# numpy loads on the first realization, not on `import jouanolou`

SRC = Path(__file__).resolve().parents[1] / "src"

COLD_IMPORT = """
import sys
import jouanolou as J, jouanolou.cli, jouanolou.textio
assert "numpy" not in sys.modules
assert "jouanolou.realize" in sys.modules
try:
    J.winding_degree(J.n_pi(2, J.Fp(7)))
except ValueError as exc:
    assert "rationals" in str(exc)
else:
    raise AssertionError("a map over F_7 was realized")
assert "numpy" not in sys.modules
assert J.winding_degree(J.n_pi(2, J.QQ)) == 2
assert "numpy" in sys.modules
"""

# the exact engine with numpy unimportable; the printed sum is the one whose
# sha1 the CI pins for `jou oplus`
WITHOUT_NUMPY = """
import contextlib, hashlib, io, sys
sys.modules["numpy"] = None
import jouanolou as J
from jouanolou import cli
refs = J.ReferenceFamily(J.QQ)
f, g = J.n_pi(2, J.QQ), refs.ref(-1)
d = J.decompose(f, refs)
assert J.verify(d.witness, f, J.act(d.matrix, refs.ref(d.n)))
assert J.oplus(f, g, refs).degree == 1
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["oplus", "map 2 [1; 0 | 0; 1]", "map -1 [1; 0 | 0; 1]"]) == 0
assert hashlib.sha1(out.getvalue().encode()).hexdigest() == (
    "d8839028285cc1a169108308d277272057c3f3e4"
)
assert sys.modules["numpy"] is None
"""


@pytest.mark.parametrize("script", [COLD_IMPORT, WITHOUT_NUMPY], ids=["cold", "without-numpy"])
def test_numpy_loads_on_the_first_realization_only(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
