"""Pointed morphisms from the device to the projective line, as exact data.

A map is one record of section data, and the sign of its degree n is the
bundle: in degree n > 0 a pair of generating sections of P_n, given by
the coefficient quadruple (a0, a1; b0, b1) against the two spanning
columns; in degree n < 0 the same for Q_|n|; in degree 0 a unimodular row
(A, B).  A homotopy segment (``homotopy.Segment``) is the same record
over R[T].

:func:`make_map` and :func:`make_row` are the checking constructors, the
way in for data from outside.  They check pointedness (the second entry
vanishes at the basepoint), normalize (rescale so the first entry is 1
there), and check generation: a given certificate must expand to 1, else
the groebner engine decides membership of 1 and its cofactors become the
certificate.  ``JMap(...)`` itself trusts its data, and every map the
library derives is closed, so it builds through it directly: the group
action, tau transport, first columns of pointed completions, and the
constructions :func:`n_pi`, :func:`pullback_rational` and :func:`g_uv`
here, ``ReferenceFamily.qref``/``ref`` and ``naive_sum_deg1`` in
``homgrp`` and ``mwk.kappa_rep``.  The test suite rebuilds each through the
checking constructors, and checks a carried homogeneous lift there.

A map built from another one defers the work of carrying its certificate
and lift along: the group action (``sl2.act``) and :meth:`JMap.tau_transport`
store a zero-argument builder in their place, and the ``cert``/``homog``
properties run it on first read and keep the value.  The result of
``homgrp.oplus`` and the recomposed map of a decomposition are printed and
wound but rarely certified, so their transport mostly never runs.  The
checking constructors build theirs at once, since they must check them, and
so do :func:`n_pi` and :func:`pullback_rational`: their certificates come
from ``bundle.generation_cofactors``, whose determinants are what the
benchmark's ``ref_ladder`` workload times and what its tests count on a
traced build.  Deferring them waits for that benchmark to measure a build
whose certificate is read.

Equality of maps is equality of degree and of normalized expanded
sections (coefficient pairs are non-unique, expanded pairs are not).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groebner
from .bundle import (
    expand_sections,
    generation_cofactors,
    mu_product,
    pure_powers,
    raised_lift,
    resultant_univ,
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
from .jring import RingElement, _normal_form
from .polys import MPoly, dot


def generation_columns(n: int, *data):
    """The ring elements whose ideal must be all of R for degree-n section
    data to be a map: the four expanded section entries in nonzero degree,
    the row itself in degree 0.  Generic over R and R[T] coefficients."""
    if n == 0:
        return data
    a0, a1, b0, b1 = data
    (ax, aw), (bx, bw) = expand_sections(n, (a0, a1), (b0, b1))
    return (ax, bx, aw, bw)


def cert_expands_to_one(cert, columns) -> bool:
    """Does sum(cert[i] * columns[i]) expand to 1, with exactly one
    cofactor per column?"""
    if len(cert) != len(columns):
        return False
    acc = dot(zip(cert, columns))
    return acc == acc.one(acc.ctx)


def groebner_certificate(elements, budget=None):
    """The groebner engine's verified certificate that 1 lies in the ideal of
    the given elements of R, or of R[T] (relation adjoined), with cofactors
    in the free polynomial ring on the ring's ``VARS``; None when 1 is not
    in it."""
    vars = type(elements[0]).VARS
    ctx = elements[0].ctx
    gens = [e.to_mpoly() for e in elements]
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
    return tuple(_normal_form(c, type(elements[0])) for c in cert.generator_cofactors)


class JMap:
    """A pointed morphism to the projective line: signed degree, section
    data (the normalized coefficient quadruple (a0, a1, b0, b1) in nonzero
    degree, the normalized unimodular row (A, B) in degree 0) and the
    certificate that its generation columns generate (four cofactors, or
    the Bezout pair of the row); a positive-degree map may carry its
    homogeneous lift.

    ``cert`` and ``homog`` are given as values or as zero-argument builders
    of them (see the module docstring): a builder runs on the first read of
    its property, once, and its value is kept.
    """

    __slots__ = ("degree", "data", "_cert", "_homog", "_expanded")

    def __init__(self, degree, data, cert=None, homog=None):
        self.degree = degree
        self.data = data
        self._cert = cert
        self._homog = homog
        self._expanded = None

    @property
    def cert(self):
        if callable(self._cert):
            self._cert = self._cert()
        return self._cert

    @property
    def homog(self):
        if callable(self._homog):
            self._homog = self._homog()
        return self._homog

    @property
    def kind(self):
        """The bundle, read off the degree's sign: "P", "Q", or None in degree 0."""
        return "P" if self.degree > 0 else "Q" if self.degree < 0 else None

    def canonical_lift(self):
        """A homogeneous lift of the sections: the carried one if present,
        else a0*alpha^n + a1*beta^n per section."""
        if self.homog is not None:
            return self.homog
        zero = RingElement.zero(self.ctx)
        n = abs(self.degree)
        a0, a1, b0, b1 = self.data
        return ([a1] + [zero] * (n - 1) + [a0], [b1] + [zero] * (n - 1) + [b0])

    # data views -------------------------------------------------------------
    @property
    def ctx(self) -> FieldCtx:
        return self.data[0].ctx

    @property
    def expanded(self):
        """The generation columns, computed once: (s0_x, s1_x, s0_w, s1_w),
        the sections as elements of R^2 with the first chart components
        first, or the row (A, B) in degree 0."""
        if self._expanded is None:
            self._expanded = generation_columns(self.degree, *self.data)
        return self._expanded

    def record(self):
        """The comparison record: this map normalized, or None unless it is
        pointed with a nonzero basepoint value.  Pointed means b0 (a row's
        B) vanishes at the basepoint, over R[T] for every T, and a0 (A) has
        a constant value alpha there; normalizing divides the data by alpha
        and multiplies the certificate by it, and drops the lift.  A map
        with alpha = 1 is its own record, its certificate unread.  Records
        compare as maps: degree first, then expanded sections."""
        alpha = pointed_alpha(self.data[0], self.data[len(self.data) // 2])
        if alpha is None or alpha.is_zero:
            return None
        if alpha == alpha.ctx.one:
            return self
        return type(self)(self.degree, *normalized(alpha, self.data, self.cert))

    def tau_transport(self) -> "JMap":
        """The same map composed with the y-z swap: degree flips sign; the
        certificate is swapped on first read."""

        def cert():
            return None if self.cert is None else tuple(c.tau() for c in self.cert)

        return type(self)(-self.degree, tuple(c.tau() for c in self.data), cert)

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
    # equal data expand to equal columns; other data may still (y*[x; z] = x*[y; w])
    return f.data == g.data or f.expanded == g.expanded


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


def make_map(n: int, a0: RingElement, a1, b0, b1, cert=None) -> JMap:
    """Check and normalize a section-pair map of nonzero degree n given from
    outside (parsed text, user cofactors); library constructions are closed
    and build through ``JMap`` (see the module docstring).

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
    data, cert = normalized(alpha, (a0, a1, b0, b1), cert)
    cols = generation_columns(n, *data)
    if cert is None:
        cert = groebner_cofactors(cols)
        if cert is None:
            raise NotGenerating("sections do not generate the bundle")
    elif not cert_expands_to_one(cert, cols):
        raise NotGenerating("generation certificate does not expand to 1")
    return JMap(n, data, tuple(cert))


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
    row, cert = normalized(alpha, (A, B), cert)
    if not cert_expands_to_one(cert, row):
        raise NotUnimodular("Bezout certificate does not expand to 1")
    return JMap(0, row, tuple(cert))


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
    # AU + BV = (x + w)^2 = 1, and A = 1, B = 0 at the basepoint
    return JMap(0, (A, B), (U, V))


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
    result = JMap(n, (*F_cur, *s1), cert, (L0, L1))
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
    # A monic makes sigma(A) 1 at the basepoint; the resultant is nonzero
    return JMap(f.n, (*s0, *s1), cert, (c0, c1))


def rational_xu(u: FieldElem) -> RationalMapP1:
    """The degree-1 rational map X/u."""
    if u.is_zero:
        raise ZeroParameter("u must be a unit")
    ctx = u.ctx
    return RationalMapP1(ctx, 1, [ctx.zero, ctx.one], [u])
