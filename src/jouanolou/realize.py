"""Numeric real realization: winding numbers of realized maps along the
circle inside the real points of the device.

The real surface is x(1-x) = yz in R^3; slicing with y = z gives the
circle gamma(theta) = ((1+cos)/2, sin/2, sin/2).  A map is evaluated
along gamma into the real projective line through whichever chart (x or w)
dominates; the winding number of the resulting angle function, in units of
pi, is the topological degree.  This module is the only place floating
point appears.

The degree is read from samples (4096 by default, plus bisection of large
jumps), so it is not certified: too few samples miss turns, and
`jou realize "map 1 [1; 0 | 0; 1]" --samples 1` reads degree 0.  An exact
Cauchy index is the planned replacement.

Bitwise contract of the evaluation: each sample is evaluated once, in its
active chart, yet every float (section values, angles, winding profile) is
the same bit for bit as evaluating both charts at every sample and picking
one.  IEEE multiplies and adds are correctly rounded per element, so taking
a subset of samples or working in place changes no bit.  The terms are
read in sorted key order, so the floats depend on the map alone, not on the
order of its term dicts; the factor order within a term is kept (no Horner,
no pairwise sums), and the powers of y are taken on the full sample array
before any subset.

numpy is imported on the first realization (`winding_degree`,
`winding_profile`, `eval_rp1`, `jou realize`, `jou selftest`), not when the
package is imported: the exact engine never touches a float, so `n_pi`,
`decompose`, `oplus`, `verify` and the other `jou` commands run without it.
"""

from __future__ import annotations

import math

from .errors import ChartDegenerate, Unresolved
from .morphism import JMap


class _LazyNumpy:
    """Stands in for numpy until its first attribute is read, which imports
    numpy and rebinds this module's `np` to it: later calls pay nothing."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

RESIDUAL_TOL = 1e-2
BISECT_JUMP = math.pi / 4
BISECT_DEPTH = 20


def gamma_point(theta: float) -> tuple[float, float, float]:
    """The circle through the basepoint: theta = 0 lands at (1, 0, 0)."""
    s, c = math.sin(theta), math.cos(theta)
    return ((1.0 + c) / 2.0, s / 2.0, s / 2.0)


def _compile(r) -> list[tuple[float, int, int, int]]:
    """RingElement -> [(coeff, x-exp, y-exp, z-exp)] for float evaluation,
    sorted by (x-exp, y-exp, z-exp)."""
    den = r.den
    # int / int is correctly rounded: the same float as float(Fraction)
    return [(c / den, *m) for m, c in sorted(r.terms.items())]


def _power_table(base: np.ndarray, exps) -> dict[int, np.ndarray]:
    """base**e for each exponent e, each power taken once on the whole array.

    The last bit of a power is up to numpy's kernel (libm or a SIMD routine,
    chosen by the array), so powers are taken on the full sample array and
    only sliced afterwards: a chart's subset then multiplies the very floats
    that evaluating every sample in both charts would."""
    return {e: base**e for e in exps}


def _eval_compiled(terms, x, ypow, zpow):
    """The sum of c * x^xe * y^ye * z^ze over the compiled terms, at the
    samples x, with y^ye = ypow[ye] and z^ze = zpow[ze] given there.

    Each term is c times x, y^ye, z^ze in that order, added in term order,
    in place into one scratch array and one accumulator (the bitwise
    contract above: no regrouping)."""
    acc = np.zeros_like(x)
    t = np.empty_like(x)
    for c, xe, ye, ze in terms:
        factors = ([x] if xe else []) + ([ypow[ye]] if ye else []) + ([zpow[ze]] if ze else [])
        if not factors:
            acc += c
            continue
        np.multiply(factors[0], c, out=t)
        for factor in factors[1:]:
            t *= factor
        acc += t
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
        # on the circle z = y, so one table of y powers serves both slots
        terms = [t for sec in self.chart_x + self.chart_w for t in sec]
        self._exps = sorted({e for _, _, ye, ze in terms for e in (ye, ze) if e})

    def _circle(self, thetas: np.ndarray):
        """x and the y-power table at each sample of gamma."""
        x = (1.0 + np.cos(thetas)) / 2.0
        y = np.sin(thetas) / 2.0
        return x, _power_table(y, self._exps)

    def sections(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two section values (p, q) at each sample, each sample
        evaluated once, in the chart (x or w) that dominates there."""
        x, ypow = self._circle(thetas)
        use_x = np.abs(x) >= np.abs(1.0 - x)
        p = np.empty_like(x)
        q = np.empty_like(x)
        for (sec_p, sec_q), mask in ((self.chart_x, use_x), (self.chart_w, ~use_x)):
            xs = x[mask]
            pows = {e: a[mask] for e, a in ypow.items()}
            p[mask] = _eval_compiled(sec_p, xs, pows, pows)
            q[mask] = _eval_compiled(sec_q, xs, pows, pows)
        return p, q

    def angles(self, thetas: np.ndarray) -> np.ndarray:
        """The projective-line angle in [0, pi) at each sample."""
        p, q = self.sections(thetas)
        if np.any((np.abs(p) < 1e-13) & (np.abs(q) < 1e-13)):
            raise ChartDegenerate("sections vanish numerically on the active chart")
        return np.mod(np.arctan2(q, p), math.pi)

    def angle(self, theta: float) -> float:
        return float(self.angles(np.array([theta]))[0])

    def chart_angles(self, thetas: np.ndarray):
        """Both charts' angles at every sample (for the overlap-agreement check)."""
        x, ypow = self._circle(thetas)
        phi_x, phi_w = (
            np.mod(
                np.arctan2(_eval_compiled(q, x, ypow, ypow), _eval_compiled(p, x, ypow, ypow)),
                math.pi,
            )
            for p, q in (self.chart_x, self.chart_w)
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
    """(degree, raw, residual): total angle change along the circle over pi.

    The angle is sampled at `samples` + 1 points and jumps above
    BISECT_JUMP are bisected, so the result is a numerical reading, not a
    certified degree: a turn between two samples that looks like a small
    jump is missed (`n_pi(1)` reads degree 0 at one sample).  Unresolved is
    raised only when raw is far from an integer."""
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
    """The topological degree of the realized map along the circle, read
    from samples and not certified (see winding_profile)."""
    return winding_profile(f, samples)[0]


def on_surface_defect(theta: float) -> float:
    x, y, z = gamma_point(theta)
    return abs(x * (1.0 - x) - y * z)
