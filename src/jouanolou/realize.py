"""Numeric real realization: winding numbers of realized maps along the
circle inside the real points of the device.

The real surface is x(1-x) = yz in R^3; slicing with y = z gives the
circle gamma(theta) = ((1+cos)/2, sin/2, sin/2).  A map is evaluated
along gamma into the real projective line through whichever chart (x or w)
dominates; the winding number of the resulting angle function, in units of
pi, is the topological degree.  This module is the only place floating
point appears.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ChartDegenerate, Unresolved
from .morphism import JMap

RESIDUAL_TOL = 1e-2
BISECT_JUMP = math.pi / 4
BISECT_DEPTH = 20


def gamma_point(theta: float) -> tuple[float, float, float]:
    """The circle through the basepoint: theta = 0 lands at (1, 0, 0)."""
    s, c = math.sin(theta), math.cos(theta)
    return ((1.0 + c) / 2.0, s / 2.0, s / 2.0)


def _compile(r) -> list[tuple[float, int, int, int]]:
    """RingElement -> [(coeff, x-exp, y-exp, z-exp)] for float evaluation."""
    out = []
    for xe, part in enumerate((r.a, r.b)):
        den = part.den
        # int / int is correctly rounded: the same float as float(Fraction)
        out.extend((c / den, xe, i, j) for (i, j), c in part.terms.items())
    return out


def _eval_compiled(terms, x, y, z):
    acc = np.zeros_like(x)
    powers: dict = {}
    for c, xe, ye, ze in terms:
        t = c
        if xe:
            t = t * x
        if ye:
            if (1, ye) not in powers:
                powers[1, ye] = y**ye
            t = t * powers[1, ye]
        if ze:
            if (2, ze) not in powers:
                powers[2, ze] = z**ze
            t = t * powers[2, ze]
        acc = acc + t
    return acc


class RealizedMap:
    """A map compiled for vectorized evaluation along the circle."""

    def __init__(self, f: JMap):
        if f.ctx.p is not None:
            raise ValueError("real realization needs a map over the rationals")
        self.degree = f.degree
        if f.degree == 0:
            A, B = f.data
            self.chart_x = (_compile(A), _compile(B))
            self.chart_w = self.chart_x
        else:
            s0x, s1x, s0w, s1w = f.expanded
            self.chart_x = (_compile(s0x), _compile(s1x))
            self.chart_w = (_compile(s0w), _compile(s1w))

    def angles(self, thetas: np.ndarray) -> np.ndarray:
        """The projective-line angle in [0, pi) at each sample."""
        x = (1.0 + np.cos(thetas)) / 2.0
        y = np.sin(thetas) / 2.0
        z = y
        w = 1.0 - x
        p_x = _eval_compiled(self.chart_x[0], x, y, z)
        q_x = _eval_compiled(self.chart_x[1], x, y, z)
        p_w = _eval_compiled(self.chart_w[0], x, y, z)
        q_w = _eval_compiled(self.chart_w[1], x, y, z)
        use_x = np.abs(x) >= np.abs(w)
        p = np.where(use_x, p_x, p_w)
        q = np.where(use_x, q_x, q_w)
        if np.any((np.abs(p) < 1e-13) & (np.abs(q) < 1e-13)):
            raise ChartDegenerate("sections vanish numerically on the active chart")
        return np.mod(np.arctan2(q, p), math.pi)

    def angle(self, theta: float) -> float:
        return float(self.angles(np.array([theta]))[0])

    def chart_angles(self, thetas: np.ndarray):
        """Both charts' angles (for the overlap-agreement check)."""
        x = (1.0 + np.cos(thetas)) / 2.0
        y = np.sin(thetas) / 2.0
        z = y
        phi_x = np.mod(
            np.arctan2(
                _eval_compiled(self.chart_x[1], x, y, z),
                _eval_compiled(self.chart_x[0], x, y, z),
            ),
            math.pi,
        )
        phi_w = np.mod(
            np.arctan2(
                _eval_compiled(self.chart_w[1], x, y, z),
                _eval_compiled(self.chart_w[0], x, y, z),
            ),
            math.pi,
        )
        return phi_x, phi_w


def eval_rp1(f: JMap, theta: float) -> float:
    """The angle in [0, pi) of the realized map at one circle parameter."""
    return RealizedMap(f).angle(theta)


def _wrap(d: np.ndarray) -> np.ndarray:
    """Wrap angle differences into (-pi/2, pi/2]."""
    return -(np.mod(-d + math.pi / 2, math.pi) - math.pi / 2)


def _refine(rm: RealizedMap, t0, t1, phi0, phi1, depth) -> float:
    d = float(_wrap(np.array([phi1 - phi0]))[0])
    if abs(d) <= BISECT_JUMP or depth <= 0:
        return d
    tm = (t0 + t1) / 2.0
    phim = rm.angle(tm)
    return _refine(rm, t0, tm, phi0, phim, depth - 1) + _refine(
        rm, tm, t1, phim, phi1, depth - 1
    )


def winding_profile(f: JMap, samples: int = 4096):
    """(degree, raw, residual): total angle change along the circle over pi."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rm = RealizedMap(f)
    thetas = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    phis = rm.angles(thetas)
    diffs = _wrap(np.diff(phis))
    total = 0.0
    suspicious = np.abs(diffs) > BISECT_JUMP
    total += float(np.sum(diffs[~suspicious]))
    for idx in np.nonzero(suspicious)[0]:
        total += _refine(rm, thetas[idx], thetas[idx + 1], phis[idx], phis[idx + 1], BISECT_DEPTH)
    raw = total / math.pi
    deg = round(raw)
    residual = abs(raw - deg)
    if residual >= RESIDUAL_TOL:
        raise Unresolved(f"winding number did not settle: raw {raw}")
    return deg, raw, residual


def winding_degree(f: JMap, samples: int = 4096) -> int:
    """The topological degree of the realized map along the circle."""
    return winding_profile(f, samples)[0]


def on_surface_defect(theta: float) -> float:
    x, y, z = gamma_point(theta)
    return abs(x * (1.0 - x) - y * z)
