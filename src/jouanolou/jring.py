"""Canonical-form arithmetic in the coordinate ring of the Jouanolou device.

The ring is R = k[x,y,z,w]/(x+w-1, xw-yz), identified with
k[x,y,z]/(x^2 - x + yz) by eliminating w = 1 - x.  Every element has the
unique normal form a(y,z) + x*b(y,z), kept reduced by the rewrite
x^2 -> x - yz, so equality is literal equality of coefficient dictionaries.

R[T], the one-variable polynomial extension used by homotopies, is a dense
coefficient list of ring elements with trailing zeros trimmed.
"""

from __future__ import annotations

from .field import FieldCtx, FieldElem
from .polys import MPoly


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
        ctx = self.ctx
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = ctx.radd(terms.get(m, ctx.rzero), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return BivarPoly(ctx, terms)

    def __sub__(self, other):
        ctx = self.ctx
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = ctx.rsub(terms.get(m, ctx.rzero), c)
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return BivarPoly(ctx, terms)

    def __neg__(self):
        ctx = self.ctx
        return BivarPoly(ctx, {m: ctx.rneg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        ctx = self.ctx
        out: dict = {}
        mul, add = ctx.rmul, ctx.radd
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2)
                prod = mul(c1, c2)
                if m in out:
                    s = add(out[m], prod)
                    if s:
                        out[m] = s
                    else:
                        del out[m]
                elif prod:
                    out[m] = prod
        return BivarPoly(ctx, out)

    def scale(self, raw):
        ctx = self.ctx
        if not raw:
            return BivarPoly(ctx)
        return BivarPoly(ctx, {m: ctx.rmul(c, raw) for m, c in self.terms.items()})

    @property
    def is_zero(self):
        return not self.terms

    def constant_value(self):
        return self.terms.get((0, 0), self.ctx.rzero)

    def swap_vars(self):
        return BivarPoly(self.ctx, {(j, i): c for (i, j), c in self.terms.items()})

    def eval_float(self, y: float, z: float) -> float:
        return sum(float(c) * y**i * z**j for (i, j), c in self.terms.items())

    def eval_raw(self, y_raw, z_raw):
        ctx = self.ctx
        acc = ctx.rzero
        for (i, j), c in self.terms.items():
            t = c
            if i:
                t = ctx.rmul(t, y_raw**i if ctx.p is None else pow(y_raw, i, ctx.p))
            if j:
                t = ctx.rmul(t, z_raw**j if ctx.p is None else pow(z_raw, j, ctx.p))
            acc = ctx.radd(acc, t)
        return acc

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
        return RingElement(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        if isinstance(other, RingPolyT):
            return RingPolyT.from_ring(self) - other
        if not isinstance(other, RingElement):
            return NotImplemented
        return RingElement(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return RingElement(-self.a, -self.b)

    def __mul__(self, other):
        # (a1 + x b1)(a2 + x b2) = a1 a2 - yz b1 b2 + x (a1 b2 + a2 b1 + b1 b2)
        if isinstance(other, RingPolyT):
            return RingPolyT.from_ring(self) * other
        if not isinstance(other, RingElement):
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        bb = b1 * b2
        yz = BivarPoly(self.ctx, {(1, 1): self.ctx.rone})
        return RingElement(a1 * a2 - yz * bb, a1 * b2 + a2 * b1 + bb)

    def scale(self, c) -> "RingElement":
        raw = c.val if isinstance(c, FieldElem) else c
        return RingElement(self.a.scale(raw), self.b.scale(raw))

    def __pow__(self, e: int) -> "RingElement":
        out = RingElement.one(self.ctx)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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

    def eval_point(self, x: FieldElem, y: FieldElem, z: FieldElem) -> FieldElem:
        ctx = self.ctx
        av = self.a.eval_raw(y.val, z.val)
        bv = self.b.eval_raw(y.val, z.val)
        return FieldElem(ctx, ctx.radd(av, ctx.rmul(x.val, bv)))

    def to_mpoly(self, vars: tuple[str, ...]) -> MPoly:
        """Lift the normal form to the free polynomial ring on ``vars``."""
        ctx = self.ctx
        ix, iy, iz = vars.index("x"), vars.index("y"), vars.index("z")
        n = len(vars)
        terms: dict = {}

        def put(xdeg, i, j, c):
            m = [0] * n
            m[ix], m[iy], m[iz] = xdeg, i, j
            terms[tuple(m)] = c

        for (i, j), c in self.a.terms.items():
            put(0, i, j, c)
        for (i, j), c in self.b.terms.items():
            put(1, i, j, c)
        return MPoly(ctx, vars, terms)

    def max_degree(self) -> int:
        d = max((i + j for (i, j) in self.a.terms), default=0)
        db = max((i + j + 1 for (i, j) in self.b.terms), default=0)
        return max(d, db)


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
    names = p.vars
    x = RingElement.gen_x(ctx)
    w = RingElement.gen_w(ctx)
    gens = {"x": x, "y": RingElement.gen_y(ctx), "z": RingElement.gen_z(ctx), "w": w}
    # x powers reduce quadratically, so iterate monomials directly
    out = RingElement.zero(ctx)
    pow_cache: dict[tuple[str, int], RingElement] = {}
    for mon, c in p.terms.items():
        term = RingElement.from_raw(ctx, c)
        for name, e in zip(names, mon):
            if not e:
                continue
            if name == "T":
                raise ValueError("T does not live in R; use mpoly_to_ringpolyt")
            key = (name, e)
            if key not in pow_cache:
                pow_cache[key] = gens[name] ** e
            term = term * pow_cache[key]
        out = out + term
    return out


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
        n = max(len(self.coeffs), len(o.coeffs))
        z = RingElement.zero(self.ctx)
        return RingPolyT(
            self.ctx,
            [
                (self.coeffs[i] if i < len(self.coeffs) else z)
                + (o.coeffs[i] if i < len(o.coeffs) else z)
                for i in range(n)
            ],
        )

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
        if not self.coeffs or not o.coeffs:
            return RingPolyT.zero(self.ctx)
        z = RingElement.zero(self.ctx)
        out = [z] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero:
                continue
            for j, cj in enumerate(o.coeffs):
                if not cj.is_zero:
                    out[i + j] = out[i + j] + ci * cj
        return RingPolyT(self.ctx, out)

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

    def at1(self) -> RingElement:
        out = RingElement.zero(self.ctx)
        for c in self.coeffs:
            out = out + c
        return out

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
        iT = vars.index("T")
        out = MPoly.zero(self.ctx, vars)
        for t, c in enumerate(self.coeffs):
            lifted = c.to_mpoly(vars)
            mon = tuple(t if i == iT else 0 for i in range(len(vars)))
            out = out + lifted.mul_term(mon, self.ctx.rone)
        return out


def mpoly_to_ringpolyt(p: MPoly) -> RingPolyT:
    """Split an MPoly containing T into R[T] (coefficients normal-formed)."""
    if "T" not in p.vars:
        return RingPolyT.from_ring(mpoly_to_ring(p))
    parts = p.coefficients_in("T")
    return RingPolyT(p.ctx, [mpoly_to_ring(q) for q in parts])
