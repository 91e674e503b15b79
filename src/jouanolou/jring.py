"""Canonical-form arithmetic in the coordinate ring of the Jouanolou device.

The ring is R = k[x,y,z,w]/(x+w-1, xw-yz), identified with
k[x,y,z]/(x^2 - x + yz) by eliminating w = 1 - x.  Every element has the
unique normal form a(y,z) + x*b(y,z), kept reduced by the rewrite
x^2 -> x - yz, so equality is literal equality of coefficient dictionaries.
``RingElement`` arithmetic runs the sparse kernel of :mod:`polys`
(``terms_add``, ``terms_mul``) directly on the term dicts of a and b; the
product by yz is a shift of exponents.

R[T], the one-variable polynomial extension used by homotopies, is R with a
T exponent: ``RingPolyT`` keeps the same normal form a + x*b, with term-dict
keys (i, j, t) for y^i z^j T^t, and runs the same ``RingElement`` code.  An
operand of R meeting one of R[T] is lifted to (i, j, 0) keys.  The dense
univariate kernel in :mod:`bundle` serves only the X-polynomials of the
resultant code.
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
    """Sparse polynomial in y, z: keys (i, j) for y^i z^j, or (i, j, t) for
    y^i z^j T^t in R[T]; raw nonzero coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: dict | None = None):
        self.ctx = ctx
        self.terms = terms if terms is not None else {}

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

    def swap_vars(self):
        return BivarPoly(self.ctx, {(m[1], m[0]) + m[2:]: c for m, c in self.terms.items()})

    def eval_float(self, y: float, z: float) -> float:
        return sum(float(c) * y**i * z**j for (i, j), c in self.terms.items())

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))


class RingElement:
    """An element of R in normal form a(y,z) + x*b(y,z)."""

    __slots__ = ("a", "b")

    # keys of the monomials 1, y and z, and the variables: x, then one per
    # key slot; RingPolyT appends T
    _ONE, _Y, _Z, _VARS = (0, 0), (1, 0), (0, 1), ("x", "y", "z")

    def __init__(self, a: BivarPoly, b: BivarPoly):
        self.a = a
        self.b = b

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    # constructors -----------------------------------------------------------
    @classmethod
    def from_raw(cls, ctx, raw):
        return cls(BivarPoly(ctx, {cls._ONE: raw} if raw else {}), BivarPoly(ctx))

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
        return cls(BivarPoly(ctx), BivarPoly(ctx, {cls._ONE: ctx.rone}))

    @classmethod
    def gen_y(cls, ctx):
        return cls(BivarPoly(ctx, {cls._Y: ctx.rone}), BivarPoly(ctx))

    @classmethod
    def gen_z(cls, ctx):
        return cls(BivarPoly(ctx, {cls._Z: ctx.rone}), BivarPoly(ctx))

    @classmethod
    def gen_w(cls, ctx):
        # w = 1 - x
        return cls(
            BivarPoly(ctx, {cls._ONE: ctx.rone}), BivarPoly(ctx, {cls._ONE: ctx.rneg(ctx.rone)})
        )

    # arithmetic ---------------------------------------------------------------
    def _coerced(self, other):
        """Both operands in one ring, or None when ``other`` is no ring
        element: the operand of R meeting one of R[T] is lifted into R[T]."""
        if not isinstance(other, RingElement):
            return None
        if isinstance(other, type(self)):
            return other.from_ring(self), other
        return self, self.from_ring(other)

    def __add__(self, other):
        if type(other) is not type(self):
            if (pair := self._coerced(other)) is None:
                return NotImplemented
            self, other = pair
        ctx = common_ctx(self.a.ctx, other.a.ctx)
        return type(self)(
            BivarPoly(ctx, terms_add(ctx, self.a.terms, other.a.terms)),
            BivarPoly(ctx, terms_add(ctx, self.b.terms, other.b.terms)),
        )

    def __sub__(self, other):
        if type(other) is not type(self):
            if (pair := self._coerced(other)) is None:
                return NotImplemented
            self, other = pair
        ctx = common_ctx(self.a.ctx, other.a.ctx)
        return type(self)(
            BivarPoly(ctx, terms_add(ctx, self.a.terms, other.a.terms, negate=True)),
            BivarPoly(ctx, terms_add(ctx, self.b.terms, other.b.terms, negate=True)),
        )

    def __neg__(self):
        return type(self)(-self.a, -self.b)

    def __mul__(self, other):
        # (a1 + x b1)(a2 + x b2) = a1 a2 - yz b1 b2 + x (a1 b2 + a2 b1 + b1 b2)
        if type(other) is not type(self):
            if (pair := self._coerced(other)) is None:
                return NotImplemented
            self, other = pair
        ctx = common_ctx(self.a.ctx, other.a.ctx)
        a1, b1, a2, b2 = self.a.terms, self.b.terms, other.a.terms, other.b.terms
        bb = terms_mul(ctx, b1, b2)
        minus_yz_bb = {(m[0] + 1, m[1] + 1) + m[2:]: -c for m, c in bb.items()}
        a = terms_mul(ctx, a1, a2, minus_yz_bb)
        b = terms_mul(ctx, a1, b2, terms_mul(ctx, a2, b1, bb))
        return type(self)(BivarPoly(ctx, a), BivarPoly(ctx, b))

    def scale(self, c) -> "RingElement":
        raw = c.val if isinstance(c, FieldElem) else c
        return type(self)(self.a.scale(raw), self.b.scale(raw))

    def __pow__(self, e: int) -> "RingElement":
        return power(self, e, self.one(self.ctx))

    # queries -------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def is_constant(self) -> bool:
        return self.b.is_zero and all(m == self._ONE for m in self.a.terms)

    def constant_value(self) -> FieldElem:
        return FieldElem(self.ctx, self.a.terms.get(self._ONE, self.ctx.rzero))

    def __eq__(self, other):
        return type(other) is type(self) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        from .textio import mpoly_str

        return mpoly_str(self.to_mpoly(self._VARS))

    # morphisms -------------------------------------------------------------------
    def eval_basepoint(self) -> FieldElem:
        """Image in R/(x-1, y, z, w) = k: substitute x = 1, y = z = 0."""
        ctx = self.ctx
        one, zero = self._ONE, ctx.rzero
        return FieldElem(ctx, ctx.radd(self.a.terms.get(one, zero), self.b.terms.get(one, zero)))

    def tau(self) -> "RingElement":
        """The involution fixing x and w and swapping y with z."""
        return type(self)(self.a.swap_vars(), self.b.swap_vars())

    def eval_float(self, x: float, y: float, z: float) -> float:
        return self.a.eval_float(y, z) + x * self.b.eval_float(y, z)

    def to_mpoly(self, vars: tuple[str, ...]) -> MPoly:
        """Lift the normal form to the free polynomial ring on ``vars``."""
        ix = vars.index("x")
        slots = [vars.index(v) for v in self._VARS[1:]]
        base = [0] * len(vars)
        out = {}
        for part in (self.a, self.b):
            for key, c in part.terms.items():
                m = list(base)
                for s, e in zip(slots, key):
                    m[s] = e
                out[tuple(m)] = c
            base[ix] = 1
        return MPoly(self.ctx, vars, out)


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


class RingPolyT(RingElement):
    """An element of R[T] in normal form a(y,z,T) + x*b(y,z,T)."""

    __slots__ = ()

    _ONE, _Y, _Z, _VARS = (0, 0, 0), (1, 0, 0), (0, 1, 0), ("x", "y", "z", "T")

    # an entry of this class, not only inherited: the benchmark's layer
    # tracer counts products in R[T] apart from those in R by this name
    __mul__ = __rmul__ = RingElement.__mul__

    @classmethod
    def gen_T(cls, ctx):
        return cls(BivarPoly(ctx, {(0, 0, 1): ctx.rone}), BivarPoly(ctx))

    @classmethod
    def from_ring(cls, r: RingElement) -> "RingPolyT":
        """An element of R as a constant of R[T]."""
        a, b = ({(i, j, 0): c for (i, j), c in p.terms.items()} for p in (r.a, r.b))
        return cls(BivarPoly(r.ctx, a), BivarPoly(r.ctx, b))

    def _substitute_T(self, image: "RingPolyT") -> "RingPolyT":
        """T replaced by ``image``, an element of k[T]: each T^t slice of the
        terms is multiplied by image^t."""
        ctx = self.ctx
        parts = []
        for part in (self.a, self.b):
            slices: dict = {}
            for (i, j, t), c in part.terms.items():
                slices.setdefault(t, {})[i, j, 0] = c
            out: dict = {}
            for t, terms in slices.items():
                out = terms_mul(ctx, terms, (image**t).a.terms, out)
            parts.append(BivarPoly(ctx, out))
        return RingPolyT(*parts)

    def eval_at_T(self, t: FieldElem) -> RingElement:
        at = self._substitute_T(self.from_raw(self.ctx, t.val))
        a, b = ({m[:2]: c for m, c in p.terms.items()} for p in (at.a, at.b))
        return RingElement(BivarPoly(at.ctx, a), BivarPoly(at.ctx, b))

    def reverse_T(self) -> "RingPolyT":
        """Substitute T -> 1 - T."""
        return self._substitute_T(self.one(self.ctx) - self.gen_T(self.ctx))

    def basepoint_curve(self) -> list[FieldElem]:
        """Basepoint evaluation (x = 1, y = z = 0): the image in k[T] as
        ascending coefficients, trailing zeros trimmed."""
        ctx = self.ctx
        a, b = ({m: c for m, c in p.terms.items() if m[:2] == (0, 0)} for p in (self.a, self.b))
        image = terms_add(ctx, a, b)
        curve = [ctx.zero] * (max((t for _, _, t in image), default=-1) + 1)
        for (_, _, t), c in image.items():
            curve[t] = FieldElem(ctx, c)
        return curve

    def basepoint_is_zero(self) -> bool:
        return not self.basepoint_curve()

    def basepoint_constant(self) -> FieldElem | None:
        """The basepoint curve as a constant of k, or None if it genuinely varies."""
        curve = self.basepoint_curve()
        if len(curve) > 1:
            return None
        return curve[0] if curve else self.ctx.zero


def mpoly_to_ringpolyt(p: MPoly) -> RingPolyT:
    """Normal form in R[T] of a polynomial in x, y, z, w and T."""
    ctx = p.ctx
    images = [getattr(RingPolyT, f"gen_{v}")(ctx) for v in p.vars]
    return eval_terms(p.terms, images, lambda raw: RingPolyT.from_raw(ctx, raw))
