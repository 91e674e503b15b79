"""Pointed morphisms from the device to the projective line, as exact data.

A map of degree n > 0 is a pair of generating sections of P_n recorded by
the coefficient quadruple (a0, a1; b0, b1) against the two spanning
columns; degree n < 0 uses Q_|n| the same way.  A map of degree 0 is a
unimodular row (A, B).

:func:`make_map` and :func:`make_row` are the checking constructors, the
way in for data from outside.  They check pointedness (the second entry
vanishes at the basepoint), normalize (rescale so the first entry is 1
there), and check generation: a given certificate must expand to 1, else
the groebner engine decides membership of 1 and its cofactors become the
certificate.  A carried homogeneous lift must expand to the sections.
``JMap(...)`` itself trusts its data; the group action, tau transport and
first columns of pointed completions map checked data to checked data, so
they build through it directly.

Equality of maps is equality of degree and of normalized expanded
sections (coefficient pairs are non-unique, expanded pairs are not).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groebner
from .bundle import (
    expand_sections,
    generation_cofactors,
    homog_eval,
    mu_product,
    pure_powers,
    raised_lift,
    sigma,
)
from .errors import (
    NotGenerating,
    NotNormalizable,
    NotPointed,
    NotUnimodular,
    ResultantZero,
    ZeroParameter,
)
from .field import FieldCtx, FieldElem
from .jring import RingElement, RingPolyT, mpoly_to_ring, mpoly_to_ringpolyt
from .polys import MPoly, dot

GB_VARS = ("x", "y", "z")
GB_VARS_T = ("x", "y", "z", "T")


def generation_columns(kind: str, n: int, a0, a1, b0, b1):
    """The four ring elements whose ideal must be all of R for the section
    pair to generate.  Generic over R and R[T] coefficients."""
    (ax, aw), (bx, bw) = expand_sections(kind, n, (a0, a1), (b0, b1))
    return (ax, bx, aw, bw)


def cert_expands_to_one(cert, columns) -> bool:
    acc = dot(zip(cert, columns))
    return acc == acc.one(acc.ctx)


def groebner_certificate(elements, budget=None):
    """The groebner engine's verified certificate that 1 lies in the ideal of
    the given elements of R, or of R[T] (relation adjoined), with cofactors
    in the free polynomial ring; None when 1 is not in it."""
    vars = GB_VARS_T if isinstance(elements[0], RingPolyT) else GB_VARS
    ctx = elements[0].ctx
    gens = [e.to_mpoly(vars) for e in elements]
    target = MPoly.const(ctx, vars, ctx.rone)
    return groebner.express_in_ideal(
        groebner.IdealProblem(gens, target, include_relation=True), budget
    )


def groebner_cofactors(elements, budget=None):
    """Cofactors in R or R[T] expressing 1 in the ideal of the given
    elements, from :func:`groebner_certificate`; None when 1 is not in it."""
    cert = groebner_certificate(elements, budget)
    if cert is None:
        return None
    back = mpoly_to_ringpolyt if isinstance(elements[0], RingPolyT) else mpoly_to_ring
    return tuple(back(c) for c in cert.generator_cofactors)


class JMap:
    """A pointed morphism to the projective line.

    Nonzero degree: bundle kind P/Q, normalized coefficient quadruple, and a
    four-cofactor generation certificate.  Degree zero: a normalized
    unimodular row with a Bezout certificate.
    """

    __slots__ = ("degree", "kind", "coeffs", "row", "cert", "homog", "_expanded")

    def __init__(self, degree, kind, coeffs, row, cert, homog=None):
        self.degree = degree
        self.kind = kind
        self.coeffs = coeffs
        self.row = row
        self.cert = cert
        self.homog = homog
        self._expanded = None

    def homog_matches(self) -> bool:
        """Does the carried homogeneous lift expand to the stored sections?"""
        if self.homog is None or self.kind != "P":
            return self.homog is None
        ctx = self.ctx
        n = self.degree
        x, y, z, w = pure_powers(ctx, 1)
        F0, F1 = self.homog
        got = (
            homog_eval(F0, n, x, y),
            homog_eval(F1, n, x, y),
            homog_eval(F0, n, z, w),
            homog_eval(F1, n, z, w),
        )
        return got == self.expanded

    def canonical_lift(self):
        """A homogeneous lift of the sections: the carried one if present,
        else a0*alpha^n + a1*beta^n per section."""
        if self.homog is not None:
            return self.homog
        zero = RingElement.zero(self.ctx)
        n = abs(self.degree)
        a0, a1, b0, b1 = self.coeffs
        return ([a1] + [zero] * (n - 1) + [a0], [b1] + [zero] * (n - 1) + [b0])

    # data views -------------------------------------------------------------
    @property
    def ctx(self) -> FieldCtx:
        return (self.row or self.coeffs)[0].ctx

    @property
    def expanded(self):
        """(s0_x, s1_x, s0_w, s1_w): the sections as elements of R^2, ordered
        like the generation columns (first chart components first)."""
        if self.degree == 0:
            return self.row
        if self._expanded is None:
            self._expanded = generation_columns(self.kind, abs(self.degree), *self.coeffs)
        return self._expanded

    def tau_transport(self) -> "JMap":
        """The same map composed with the y-z swap: degree flips sign."""
        cert = tuple(c.tau() for c in self.cert)
        if self.degree == 0:
            return JMap(0, None, None, tuple(r.tau() for r in self.row), cert)
        coeffs = tuple(c.tau() for c in self.coeffs)
        return JMap(-self.degree, "Q" if self.kind == "P" else "P", coeffs, None, cert)

    def __eq__(self, other):
        if not isinstance(other, JMap):
            return NotImplemented
        return map_equal(self, other)

    def __hash__(self):
        return hash((self.degree, self.expanded))

    def __repr__(self):
        from .textio import map_str

        return map_str(self)


def map_equal(f: JMap, g: JMap) -> bool:
    """Equality of pointed morphisms: same degree, same normalized sections."""
    if f.degree != g.degree:
        return False
    return f.expanded == g.expanded


def pointed_alpha(first, second) -> FieldElem | None:
    """The basepoint value alpha of ``first`` when ``second`` vanishes at the
    basepoint, else None.  Works over R and R[T]: over R[T] ``second``'s
    basepoint curve must vanish identically and alpha is ``first``'s as a
    constant of k (None when it varies with T).  Pointed data with a unit
    alpha normalizes by :func:`normalized`."""
    if not second.basepoint_is_zero():
        return None
    return first.basepoint_constant()


def normalized(alpha: FieldElem, data, cert=None):
    """(data / alpha, cert * alpha) for a unit alpha: the first entry becomes
    1 at the basepoint and, the columns being linear in the data, the
    certificate still expands to 1.  Both pass through when alpha is 1."""
    if alpha == alpha.ctx.one:
        return data, cert
    inv = alpha.inverse()
    data = type(data)(c.scale(inv) for c in data)
    if cert is not None:
        cert = tuple(c.scale(alpha) for c in cert)
    return data, cert


def make_map(n: int, a0: RingElement, a1, b0, b1, cert=None, homog=None) -> JMap:
    """Check and normalize a section-pair map of nonzero degree n.

    Raises NotPointed / NotNormalizable / NotGenerating.  A given
    certificate is checked by exact expansion; without one the groebner
    engine decides generation and its cofactors are kept.
    """
    if n == 0:
        raise ValueError("degree 0 maps are built by make_row")
    alpha = pointed_alpha(a0, b0)
    if alpha is None:
        raise NotPointed("second section does not vanish at the basepoint")
    if alpha.is_zero:
        raise NotNormalizable("first section vanishes at the basepoint")
    coeffs, cert = normalized(alpha, (a0, a1, b0, b1), cert)
    if homog is not None:
        homog = tuple(normalized(alpha, lst)[0] for lst in homog)
    kind = "P" if n > 0 else "Q"
    cols = generation_columns(kind, abs(n), *coeffs)
    if cert is None:
        cert = groebner_cofactors(cols)
        if cert is None:
            raise NotGenerating("sections do not generate the bundle")
    elif not cert_expands_to_one(cert, cols):
        raise NotGenerating("generation certificate does not expand to 1")
    out = JMap(n, kind, coeffs, None, tuple(cert), homog)
    if homog is not None and not out.homog_matches():
        raise ValueError("homogeneous lift does not expand to the sections")
    return out


def make_row(A: RingElement, B: RingElement, cert=None) -> JMap:
    """Check and normalize a degree-0 map given as a unimodular row.

    Raises NotPointed / NotUnimodular; without a Bezout certificate the
    groebner engine supplies one.
    """
    alpha = pointed_alpha(A, B)
    if alpha is None:
        raise NotPointed("row is not pointed")
    if cert is None:
        cert = groebner_cofactors((A, B))
        if cert is None:
            raise NotUnimodular("row does not generate the unit ideal")
    if alpha.is_zero:
        raise NotPointed("row evaluates to (0, 0) at the basepoint")
    row, (U, V) = normalized(alpha, (A, B), cert)
    if not cert_expands_to_one((U, V), row):
        raise NotUnimodular("Bezout certificate does not expand to 1")
    return JMap(0, None, None, row, (U, V))


def g_uv(u: FieldElem, v: FieldElem) -> JMap:
    """The degree-0 map with row (x + (v/u) w, (u - v) y), carrying the
    explicit determinant-1 completion as its certificate."""
    if u.is_zero or v.is_zero:
        raise ZeroParameter("g parameters must be units")
    ctx = u.ctx
    x, y, z, w = pure_powers(ctx, 1)
    A = x + w.scale(v / u)
    B = y.scale(u - v)
    U = x + w.scale(u / v)
    V = z.scale((v - u) / (u * v))
    return make_row(A, B, cert=(U, V))


_NPI_CACHE: dict = {}


def n_pi(n: int, ctx: FieldCtx) -> JMap:
    """The reference map of degree n >= 1 built by the two-term recursion
    F_(k+1) = [x;z]*F_k - [y^2;w^2]*F_(k-1), with second section [y;w]*F_(k-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    key = (ctx.p, n)
    if key in _NPI_CACHE:
        return _NPI_CACHE[key]
    one = RingElement.one(ctx)
    zero = RingElement.zero(ctx)
    # [x; z] and [y; w] as coefficient pairs; (0, 1) is [y^2; w^2] in degree 2
    x_col, y_col = (one, zero), (zero, one)
    F_prev, F_cur = None, x_col  # F_0 = 1, F_1 = [x; z]
    # homogeneous lift follows the same recursion: L0 -> X*L0 - L1, L1 -> beta*L0
    L0, L1 = [zero, one], [one, zero]
    for k in range(1, n):
        top = mu_product(x_col, 1, F_cur, k)
        # [y^2; w^2]*F_(k-1): the pair (0, 1) itself at F_0 = 1
        low = mu_product(y_col, 2, F_prev, k - 1) if k > 1 else y_col
        F_prev, F_cur = F_cur, (top[0] - low[0], top[1] - low[1])
        L0, L1 = raised_lift(ctx.one, L0, L1, zero)
    s1 = mu_product(y_col, 1, F_prev, n - 1) if n > 1 else y_col
    cert = generation_cofactors(n, L0, L1)
    result = make_map(n, *F_cur, *s1, cert=cert, homog=(L0, L1))
    _NPI_CACHE[key] = result
    return result


@dataclass
class RationalMapP1:
    """A pointed self-map of the projective line: monic numerator A of degree
    n and denominator B of degree < n, with nonzero resultant."""

    ctx: FieldCtx
    n: int
    a: list[FieldElem]  # a[0..n], a[n] == 1
    b: list[FieldElem]  # b[0..n-1]

    def __post_init__(self):
        if self.n < 1 or len(self.a) != self.n + 1 or len(self.b) != self.n:
            raise ValueError("need deg A = n >= 1 and deg B < n")
        if self.a[-1] != self.ctx.one:
            raise ValueError("numerator must be monic")
        if self.resultant().is_zero:
            raise ResultantZero("res(A, B) vanishes; the pair is not a morphism")

    def resultant(self) -> FieldElem:
        from .bundle import resultant_univ

        A = [RingElement.from_scalar(c) for c in self.a]
        B = [RingElement.from_scalar(c) for c in self.b]
        r = resultant_univ(A, B, self.n, self.n)
        return r.constant_value()


def pullback_rational(f: RationalMapP1) -> JMap:
    """Compose a rational self-map with the torsor projection: the degree-n
    map with sections sigma(A), sigma(B)."""
    ctx = f.ctx
    zero = RingElement.zero(ctx)
    c0 = [RingElement.from_scalar(c) for c in f.a]
    c1 = [RingElement.from_scalar(c) for c in f.b] + [zero]
    s0, s1 = sigma(f.n, c0, c1)
    cert = generation_cofactors(f.n, c0, c1)
    return make_map(f.n, *s0, *s1, cert=cert, homog=(c0, c1))


def rational_xu(u: FieldElem) -> RationalMapP1:
    """The degree-1 rational map X/u."""
    if u.is_zero:
        raise ZeroParameter("u must be a unit")
    ctx = u.ctx
    return RationalMapP1(ctx, 1, [ctx.zero, ctx.one], [u])
