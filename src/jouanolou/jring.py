"""Canonical-form arithmetic in the coordinate ring of the Jouanolou device.

The ring is R = k[x,y,z,w]/(x+w-1, xw-yz), identified with
k[x,y,z]/(x^2 - x + yz) by eliminating w = 1 - x.  Every element has the
unique normal form a(y,z) + x*b(y,z), kept reduced by the rewrite
x^2 -> x - yz, so equality is literal equality of coefficient dictionaries.
``RingElement`` arithmetic runs the sparse kernel of :mod:`polys`
(``terms_add``, ``terms_mul``) directly on the term dicts of a and b; the
product by yz is a shift of exponents.

R[T], the one-variable polynomial extension used by homotopies, is a dense
coefficient list of ring elements with trailing zeros trimmed.  ``poly_add``
and ``poly_mul`` here are the one dense univariate kernel: ``RingPolyT``
and the resultant toolkit of :mod:`bundle` both use it.
"""

from __future__ import annotations

from .field import FieldCtx, FieldElem
from .polys import (
    MPoly,
    common_ctx,
    eval_terms,
    power,
    terms_add,
    terms_mul,
    terms_neg,
    terms_scale,
)


class BivarPoly:
    """Sparse polynomial in y, z: keys (i, j) for y^i z^j, raw nonzero coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: dict | None = None):
        self.ctx = ctx
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, ctx, raw):
        return cls(ctx, {(0, 0): raw} if raw else {})

    def __add__(self, other):
        ctx = common_ctx(self.ctx, other.ctx)
        return BivarPoly(ctx, terms_add(ctx, self.terms, other.terms))

    def __sub__(self, other):
        ctx = common_ctx(self.ctx, other.ctx)
        return BivarPoly(ctx, terms_add(ctx, self.terms, other.terms, negate=True))

    def __neg__(self):
        return BivarPoly(self.ctx, terms_neg(self.ctx, self.terms))

    def __mul__(self, other):
        ctx = common_ctx(self.ctx, other.ctx)
        return BivarPoly(ctx, terms_mul(ctx, self.terms, other.terms))

    def scale(self, raw):
        return BivarPoly(self.ctx, terms_scale(self.ctx, self.terms, raw))

    @property
    def is_zero(self):
        return not self.terms

    def constant_value(self):
        return self.terms.get((0, 0), self.ctx.rzero)

    def swap_vars(self):
        return BivarPoly(self.ctx, {(j, i): c for (i, j), c in self.terms.items()})

    def eval_float(self, y: float, z: float) -> float:
        return sum(float(c) * y**i * z**j for (i, j), c in self.terms.items())

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))


class RingElement:
    """An element of R in normal form a(y,z) + x*b(y,z)."""

    __slots__ = ("a", "b")

    def __init__(self, a: BivarPoly, b: BivarPoly):
        self.a = a
        self.b = b

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    # constructors -----------------------------------------------------------
    @classmethod
    def from_raw(cls, ctx, raw):
        return cls(BivarPoly.const(ctx, raw), BivarPoly(ctx))

    @classmethod
    def from_scalar(cls, c: FieldElem):
        return cls.from_raw(c.ctx, c.val)

    @classmethod
    def zero(cls, ctx):
        return cls(BivarPoly(ctx), BivarPoly(ctx))

    @classmethod
    def one(cls, ctx):
        return cls.from_raw(ctx, ctx.rone)

    @classmethod
    def gen_x(cls, ctx):
        return cls(BivarPoly(ctx), BivarPoly.const(ctx, ctx.rone))

    @classmethod
    def gen_y(cls, ctx):
        return cls(BivarPoly(ctx, {(1, 0): ctx.rone}), BivarPoly(ctx))

    @classmethod
    def gen_z(cls, ctx):
        return cls(BivarPoly(ctx, {(0, 1): ctx.rone}), BivarPoly(ctx))

    @classmethod
    def gen_w(cls, ctx):
        # w = 1 - x
        return cls(BivarPoly.const(ctx, ctx.rone), BivarPoly.const(ctx, ctx.rneg(ctx.rone)))

    # arithmetic ---------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, RingPolyT):
            return RingPolyT.from_ring(self) + other
        if not isinstance(other, RingElement):
            return NotImplemented
        ctx = common_ctx(self.a.ctx, other.a.ctx)
        return RingElement(
            BivarPoly(ctx, terms_add(ctx, self.a.terms, other.a.terms)),
            BivarPoly(ctx, terms_add(ctx, self.b.terms, other.b.terms)),
        )

    def __sub__(self, other):
        if isinstance(other, RingPolyT):
            return RingPolyT.from_ring(self) - other
        if not isinstance(other, RingElement):
            return NotImplemented
        ctx = common_ctx(self.a.ctx, other.a.ctx)
        return RingElement(
            BivarPoly(ctx, terms_add(ctx, self.a.terms, other.a.terms, negate=True)),
            BivarPoly(ctx, terms_add(ctx, self.b.terms, other.b.terms, negate=True)),
        )

    def __neg__(self):
        return RingElement(-self.a, -self.b)

    def __mul__(self, other):
        # (a1 + x b1)(a2 + x b2) = a1 a2 - yz b1 b2 + x (a1 b2 + a2 b1 + b1 b2)
        if isinstance(other, RingPolyT):
            return RingPolyT.from_ring(self) * other
        if not isinstance(other, RingElement):
            return NotImplemented
        ctx = common_ctx(self.a.ctx, other.a.ctx)
        a1, b1, a2, b2 = self.a.terms, self.b.terms, other.a.terms, other.b.terms
        bb = terms_mul(ctx, b1, b2)
        minus_yz_bb = {(i + 1, j + 1): -c for (i, j), c in bb.items()}
        a = terms_mul(ctx, a1, a2, minus_yz_bb)
        b = terms_mul(ctx, a1, b2, terms_mul(ctx, a2, b1, bb))
        return RingElement(BivarPoly(ctx, a), BivarPoly(ctx, b))

    def scale(self, c) -> "RingElement":
        raw = c.val if isinstance(c, FieldElem) else c
        return RingElement(self.a.scale(raw), self.b.scale(raw))

    def __pow__(self, e: int) -> "RingElement":
        return power(self, e, RingElement.one(self.ctx))

    # queries -------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def is_constant(self) -> bool:
        return self.b.is_zero and all(m == (0, 0) for m in self.a.terms)

    def constant_value(self) -> FieldElem:
        return FieldElem(self.ctx, self.a.constant_value())

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        from .textio import ring_str

        return ring_str(self)

    # morphisms -------------------------------------------------------------------
    def eval_basepoint(self) -> FieldElem:
        """Image in R/(x-1, y, z, w) = k: substitute x = 1, y = z = 0."""
        ctx = self.ctx
        return FieldElem(ctx, ctx.radd(self.a.constant_value(), self.b.constant_value()))

    def tau(self) -> "RingElement":
        """The involution fixing x and w and swapping y with z."""
        return RingElement(self.a.swap_vars(), self.b.swap_vars())

    def eval_float(self, x: float, y: float, z: float) -> float:
        return self.a.eval_float(y, z) + x * self.b.eval_float(y, z)

    def to_mpoly(self, vars: tuple[str, ...]) -> MPoly:
        """Lift the normal form to the free polynomial ring on ``vars``."""
        return MPoly(self.ctx, vars, self._lifted_terms(vars, 0))

    def _lifted_terms(self, vars: tuple[str, ...], t: int) -> dict:
        """The lift's term dict times T^t (``vars`` holds T when t > 0)."""
        ix, iy, iz = (vars.index(v) for v in "xyz")
        base = [0] * len(vars)
        if t:
            base[vars.index("T")] = t
        out = {}
        for xdeg, part in ((0, self.a), (1, self.b)):
            for (i, j), c in part.terms.items():
                m = list(base)
                m[ix], m[iy], m[iz] = xdeg, i, j
                out[tuple(m)] = c
        return out


def normal_form(expr, ctx: FieldCtx | None = None) -> RingElement:
    """Normal form of a polynomial expression in x, y, z, w over k.

    Accepts an :class:`MPoly` over any variable subset of {x,y,z,w} or a
    string in the polynomial grammar.  This is the quotient map from the
    free polynomial ring: w is replaced by 1 - x, then powers of x are
    reduced by x^2 = x - yz.
    """
    if isinstance(expr, str):
        from .textio import parse_poly

        if ctx is None:
            raise ValueError("parsing needs a field context")
        expr = parse_poly(expr, ctx, allow_T=False)
    return mpoly_to_ring(expr)


def mpoly_to_ring(p: MPoly) -> RingElement:
    ctx = p.ctx
    if "T" in p.vars and p.degree_in("T"):
        raise ValueError("T does not live in R; use mpoly_to_ringpolyt")
    images = [None if v == "T" else getattr(RingElement, f"gen_{v}")(ctx) for v in p.vars]
    return eval_terms(p.terms, images, lambda raw: RingElement.from_raw(ctx, raw))


CHART_VARS = {"phi0": ("a", "b"), "phi1": ("s", "t")}


def chart_pullback(r: RingElement, chart: str) -> MPoly:
    """Pull back along an affine chart of the device.

    phi0 covers D(x) u D(z):  x -> 1-ab, y -> a(1-ab), z -> b, w -> ab.
    phi1 covers D(y) u D(w):  x -> st,   y -> t,       z -> s(1-st), w -> 1-st.
    Both defining relations map to zero, so this is well defined on R.
    """
    ctx = r.ctx
    if chart not in CHART_VARS:
        raise ValueError(f"unknown chart {chart!r}")
    uv = CHART_VARS[chart]
    u = MPoly.var(ctx, uv, uv[0])
    v = MPoly.var(ctx, uv, uv[1])
    one = MPoly.const(ctx, uv, ctx.rone)
    if chart == "phi0":
        images = {"x": one - u * v, "y": u * (one - u * v), "z": v, "w": u * v}
    else:
        images = {"x": u * v, "y": v, "z": u * (one - u * v), "w": one - u * v}
    return r.to_mpoly(("x", "y", "z")).substitute(images)


class RingPolyT:
    """An element of R[T]: dense list of RingElement coefficients of T powers."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: list[RingElement]):
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = coeffs

    @classmethod
    def from_ring(cls, r: RingElement):
        return cls(r.ctx, [r])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [RingElement.one(ctx)])

    @classmethod
    def gen_T(cls, ctx):
        return cls(ctx, [RingElement.zero(ctx), RingElement.one(ctx)])

    def _coerce(self, other):
        if isinstance(other, RingPolyT):
            return other
        if isinstance(other, RingElement):
            return RingPolyT.from_ring(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = common_ctx(self.ctx, o.ctx)
        return RingPolyT(ctx, poly_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return RingPolyT(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = common_ctx(self.ctx, o.ctx)
        return RingPolyT(ctx, poly_mul(self.coeffs, o.coeffs, RingElement.zero(ctx)))

    __rmul__ = __mul__

    def scale(self, c) -> "RingPolyT":
        return RingPolyT(self.ctx, [r.scale(c) for r in self.coeffs])

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, RingPolyT) and self.ctx == other.ctx and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, tuple(self.coeffs)))

    def __repr__(self):
        from .textio import polyt_str

        return polyt_str(self)

    def eval_at_T(self, t: FieldElem) -> RingElement:
        out = RingElement.zero(self.ctx)
        power = FieldElem(self.ctx, self.ctx.rone)
        for c in self.coeffs:
            out = out + c.scale(power)
            power = power * t
        return out

    def at0(self) -> RingElement:
        return self.coeffs[0] if self.coeffs else RingElement.zero(self.ctx)

    def reverse_T(self) -> "RingPolyT":
        """Substitute T -> 1 - T."""
        ctx = self.ctx
        out = RingPolyT.zero(ctx)
        one_minus_T = RingPolyT(
            ctx, [RingElement.one(ctx), -RingElement.one(ctx)]
        )
        power = RingPolyT.one(ctx)
        for c in self.coeffs:
            out = out + power.scale_ring(c)
            power = power * one_minus_T
        return out

    def scale_ring(self, r: RingElement) -> "RingPolyT":
        return RingPolyT(self.ctx, [c * r for c in self.coeffs])

    def basepoint_curve(self) -> list[FieldElem]:
        """Coefficientwise basepoint evaluation: the image in k[T]."""
        return [c.eval_basepoint() for c in self.coeffs]

    def basepoint_is_zero(self) -> bool:
        return all(v.is_zero for v in self.basepoint_curve())

    def basepoint_constant(self) -> FieldElem | None:
        """The basepoint curve as a constant of k, or None if it genuinely varies."""
        curve = self.basepoint_curve()
        if any(not v.is_zero for v in curve[1:]):
            return None
        return curve[0] if curve else FieldElem(self.ctx, self.ctx.rzero)

    def tau(self) -> "RingPolyT":
        return RingPolyT(self.ctx, [c.tau() for c in self.coeffs])

    def to_mpoly(self, vars: tuple[str, ...]) -> MPoly:
        terms: dict = {}
        for t, c in enumerate(self.coeffs):
            terms.update(c._lifted_terms(vars, t))
        return MPoly(self.ctx, vars, terms)


def poly_add(A: list, B: list) -> list:
    """Sum of ascending coefficient lists over R or R[T]; zero entries of
    the shorter list are skipped."""
    if len(A) < len(B):
        A, B = B, A
    out = list(A)
    for i, b in enumerate(B):
        if not b.is_zero:
            out[i] = out[i] + b
    return out


def poly_mul(A: list, B: list, zero) -> list:
    """Product of ascending coefficient lists over R or R[T]; zero entries
    are skipped and ``zero`` fills the untouched slots."""
    if not A or not B:
        return []
    out = [zero] * (len(A) + len(B) - 1)
    nonzero_b = [(j, b) for j, b in enumerate(B) if not b.is_zero]
    for i, a in enumerate(A):
        if not a.is_zero:
            for j, b in nonzero_b:
                out[i + j] = out[i + j] + a * b
    return out


def mpoly_to_ringpolyt(p: MPoly) -> RingPolyT:
    """Split an MPoly containing T into R[T] (coefficients normal-formed)."""
    if "T" not in p.vars:
        return RingPolyT.from_ring(mpoly_to_ring(p))
    parts = p.coefficients_in("T")
    return RingPolyT(p.ctx, [mpoly_to_ring(q) for q in parts])
