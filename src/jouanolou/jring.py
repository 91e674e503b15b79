"""Canonical-form arithmetic in the coordinate ring of the Jouanolou device.

The ring is R = k[x,y,z,w]/(x+w-1, xw-yz), identified with
k[x,y,z]/(x^2 - x + yz) by eliminating w = 1 - x.  Every element has the
unique normal form a(y,z) + x*b(y,z), kept reduced by the rewrite
x^2 -> x - yz, so equality is literal equality of coefficient dictionaries.
a and b are ``MPoly`` values in the part variables ``PARTS`` = (y, z), in
the stored form of :mod:`polys`: int values over one denominator each,
canonical, so equality is also literal equality of (terms, den).
``RingElement`` arithmetic runs the sparse kernel of :mod:`polys`
(``terms_add``, ``terms_mul``) directly on those ints; a product puts each
operand over one denominator once, the product by yz is a shift of
exponents, and no ``Fraction`` is built; a zero or constant operand (the 0
and 1 entries of an elementary matrix, say) scales the other instead.
A sum of ring products (an entry of a 2x2 matrix product, of the action on
section data or of certificate transport) is ``polys.dot``, which runs
:meth:`RingElement.sum_of_products`: each part of the sum is one
accumulation, settled once, at every size.  No result depends on key
order: printing sorts, and ``realize`` reads terms in sorted key order.

R[T], the one-variable polynomial extension used by homotopies, is R with a
T exponent: ``RingPolyT`` keeps the same normal form a + x*b, its parts in
``PARTS`` = (y, z, T) (keys (i, j, t) for y^i z^j T^t), and runs the same
``RingElement`` code.  An operand of R meeting one of R[T] is lifted to
(i, j, 0) keys; parts of the two rings never mix in one sum.  Both are
domains with an exact division through the norm: sigma (x <-> w) is an
involution, N(b) = b*sigma(b) has no x part, and a/b = a*sigma(b)/N(b)
part by part (``divexact``, ``divider``), as Bareiss's elimination needs.

Substitutions are term-wise maps, one pass over the term dicts on ints: the
normal form (w -> 1 - x, x^2 -> x - yz), T at a constant, and T -> 1 - T.
"""

from __future__ import annotations

from functools import cache
from itertools import zip_longest
from math import comb, inf, lcm

from .field import FieldCtx, FieldElem
from .groebner import _Budget, _reduce_tracked, _Tracked, pack, unpack
from .polys import (
    MPoly,
    common_ctx,
    power,
    raw_coeff,
    settled,
    sum_of_scaled,
    terms_add,
    terms_mul,
    terms_over,
)


# no class of its own: the benchmark's layer tracer counts products by the
# name ``jring.BivarPoly.__mul__``, so the name stays as an alias of MPoly
BivarPoly = MPoly


class RingElement:
    """An element of R in normal form a(y,z) + x*b(y,z)."""

    __slots__ = ("a", "b")

    # the variables of the parts a and b, and the public variable tuple: x,
    # then the parts'; RingPolyT appends T to both.  Printing, the groebner
    # engine and ``to_mpoly`` read the ring from VARS
    PARTS = ("y", "z")
    VARS = ("x", *PARTS)

    def __init__(self, a: MPoly, b: MPoly):
        self.a = a
        self.b = b

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    # constructors -----------------------------------------------------------
    @classmethod
    def from_raw(cls, ctx, raw):
        return cls(MPoly.const(ctx, cls.PARTS, raw), MPoly.zero(ctx, cls.PARTS))

    @classmethod
    def from_scalar(cls, c: FieldElem):
        return cls.from_raw(c.ctx, c.val)

    @classmethod
    def zero(cls, ctx):
        return cls(MPoly.zero(ctx, cls.PARTS), MPoly.zero(ctx, cls.PARTS))

    @classmethod
    def one(cls, ctx):
        return cls.from_raw(ctx, ctx.rone)

    @classmethod
    def gen_x(cls, ctx):
        return cls(MPoly.zero(ctx, cls.PARTS), MPoly.const(ctx, cls.PARTS, ctx.rone))

    @classmethod
    def gen_y(cls, ctx):
        return cls(MPoly.var(ctx, cls.PARTS, "y"), MPoly.zero(ctx, cls.PARTS))

    @classmethod
    def gen_z(cls, ctx):
        return cls(MPoly.var(ctx, cls.PARTS, "z"), MPoly.zero(ctx, cls.PARTS))

    @classmethod
    def gen_w(cls, ctx):
        # w = 1 - x
        one = MPoly.const(ctx, cls.PARTS, ctx.rone)
        return cls(one, -one)

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
        return type(self)(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        if type(other) is not type(self):
            if (pair := self._coerced(other)) is None:
                return NotImplemented
            self, other = pair
        return type(self)(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return type(self)(-self.a, -self.b)

    def __mul__(self, other):
        # (a1 + x b1)(a2 + x b2) = a1 a2 - yz b1 b2 + x (a1 b2 + a2 b1 + b1 b2)
        if type(other) is not type(self):
            if (pair := self._coerced(other)) is None:
                return NotImplemented
            self, other = pair
        ctx = common_ctx(self.a.ctx, other.a.ctx)
        # a zero or constant operand scales the other in one pass
        if (c := other._raw_constant()) is not None:
            return self.scale(c)
        if (c := self._raw_constant()) is not None:
            return other.scale(c)
        # each operand over one denominator, so every product is an int loop
        # whose sums lie over d1 * d2 (den 1 skips the gcd pass until the end)
        (a1, b1, d1), (a2, b2, d2) = self._parts_over(), other._parts_over()
        bb = terms_mul(ctx, b1, 1, b2, 1)[0]
        minus_yz_bb = {(m[0] + 1, m[1] + 1) + m[2:]: -c for m, c in bb.items()}
        a = terms_mul(ctx, a1, d1, a2, d2, minus_yz_bb)
        b = terms_mul(ctx, a1, d1, b2, d2, terms_mul(ctx, a2, 1, b1, 1, bb)[0])
        return type(self)(MPoly(ctx, self.PARTS, *a), MPoly(ctx, self.PARTS, *b))

    @classmethod
    def sum_of_products(cls, pairs) -> "RingElement":
        """sum(r * s for r, s in pairs) over R, or over R[T] when any factor
        is in R[T] (the others lifted), as one ``polys.sum_of_scaled`` per
        part: a = sum(a1 a2 - yz b1 b2) and b = sum(a1 b2 + b1 a2 + b1 b2)."""
        if any(type(e) is RingPolyT for pair in pairs for e in pair):
            cls = RingPolyT
        ctx = pairs[0][0].ctx
        a_sum, b_sum = [], []
        for r, s in pairs:
            ctx = common_ctx(ctx, common_ctx(r.ctx, s.ctx))
            r, s = (e if type(e) is cls else cls.from_ring(e) for e in (r, s))
            a1, b1, a2, b2 = ((p.terms, p.den) for p in (r.a, r.b, s.a, s.b))
            a_sum.append((1, *a1, *a2))
            if b1[0] and b2[0]:
                yz_b1 = {(m[0] + 1, m[1] + 1) + m[2:]: c for m, c in b1[0].items()}
                a_sum.append((-1, yz_b1, b1[1], *b2))
            b_sum += [(1, *a1, *b2), (1, *b1, *a2), (1, *b1, *b2)]
        return cls(sum_of_scaled(ctx, cls.PARTS, a_sum), sum_of_scaled(ctx, cls.PARTS, b_sum))

    def _raw_constant(self):
        """The raw value of a constant element (0 for zero), None for any
        other."""
        a = self.a
        if self.b.terms or len(a.terms) > 1:
            return None
        if not a.terms:
            return 0
        ((m, c),) = a.terms.items()
        return None if any(m) else raw_coeff(self.ctx, c, a.den)

    def _parts_over(self):
        """(a, b, d): the values of both parts over d, the lcm of their
        denominators."""
        a, b = self.a, self.b
        if a.den == b.den:
            return a.terms, b.terms, a.den
        d = lcm(a.den, b.den)
        return terms_over(a.terms, a.den, d), terms_over(b.terms, b.den, d), d

    def scale(self, c) -> "RingElement":
        """c * self, for c a field element over the same field or a raw value."""
        if isinstance(c, FieldElem):
            common_ctx(self.ctx, c.ctx)
            c = c.val
        return type(self)(self.a.scale(c), self.b.scale(c))

    def __pow__(self, e: int) -> "RingElement":
        return power(self, e, self.one(self.ctx))

    # queries -------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def is_constant(self) -> bool:
        return self.b.is_zero and self.a.is_constant

    def constant_value(self) -> FieldElem:
        return FieldElem(self.ctx, self.a.constant_value())

    def __eq__(self, other):
        return type(other) is type(self) and self.a == other.a and self.b == other.b

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

    def basepoint_is_zero(self) -> bool:
        return self.basepoint_constant() == 0  # None (varies with T) is not 0

    # in R the basepoint value is a constant of k; RingPolyT's may vary with T
    basepoint_constant = eval_basepoint

    def sigma(self) -> "RingElement":
        """The involution x <-> w = 1 - x fixing y, z: a + x*b -> a + b - x*b."""
        return type(self)(self.a + self.b, -self.b)

    def divexact(self, b) -> "RingElement":
        """self / b for a divisor b of self (ArithmeticError otherwise)."""
        return b.divider()(self)

    def divider(self):
        """The map q -> q / self = q * sigma(self) / N on the multiples of
        self, N = self * sigma(self) = a^2 + a*b + yz*b^2 (no x part), both
        computed once: each part is divided by N by the Groebner engine's
        reduction with the one reducer N, whose remainder must be empty."""
        ctx, n = self.ctx, len(self.PARTS)
        if (c := self._raw_constant()) is not None:
            return lambda q, inv=ctx.rinv(c): q.scale(inv)
        conj = self.sigma()
        norm = (self * conj).a
        basis = [_Tracked(ctx, n, {pack(m): c for m, c in norm.terms.items()}, norm.den, 0)]

        def part(p):
            keyed = {pack(m): c for m, c in p.terms.items()}
            # degrevlex is a well-order: the division stops unbudgeted
            (rest, _), quotients = _reduce_tracked(ctx, n, keyed, p.den, basis, _Budget(inf))
            if rest:
                raise ArithmeticError("not an exact division in R")
            return MPoly(ctx, self.PARTS, {unpack(m, n): c for m, c in quotients.get(0, {}).items()})

        def divide(q):
            if type(q) is not type(self):  # one operand in R, the other in R[T]
                q, b = q._coerced(self)
                return q.divexact(b)
            product = q * conj
            return type(self)(part(product.a), part(product.b))

        return divide

    def tau(self) -> "RingElement":
        """The involution fixing x and w and swapping y with z."""
        return type(self)(*(
            MPoly(p.ctx, p.vars, {(m[1], m[0]) + m[2:]: c for m, c in p.terms.items()}, p.den)
            for p in (self.a, self.b)
        ))

    def to_mpoly(self, vars: tuple[str, ...] | None = None) -> MPoly:
        """Lift the normal form to the free polynomial ring on ``vars``
        (default: the ring's own ``VARS``)."""
        vars = vars or self.VARS
        ix = vars.index("x")
        slots = [vars.index(v) for v in self.PARTS]
        base = [0] * len(vars)
        # both parts over the lcm of their denominators stay canonical
        a, b, den = self._parts_over()
        out = {}
        for part in (a, b):
            for key, c in part.items():
                m = list(base)
                for slot, e in zip(slots, key):
                    m[slot] = e
                out[tuple(m)] = c
            base[ix] = 1
        return MPoly(self.ctx, vars, out, den)


def normal_form(expr, ctx: FieldCtx | None = None) -> RingElement:
    """Normal form of a polynomial expression in x, y, z, w over k.

    Accepts an :class:`MPoly` over any variable subset of {x,y,z,w} or a
    string in the polynomial grammar.  This is the quotient map from the
    free polynomial ring: w is replaced by 1 - x, then powers of x are
    reduced by x^2 = x - yz.
    """
    if isinstance(expr, str):
        from .textio import parse_ring

        if ctx is None:
            raise ValueError("parsing needs a field context")
        return parse_ring(expr, ctx)
    return mpoly_to_ring(expr)


def mpoly_to_ring(p: MPoly) -> RingElement:
    """Normal form in R of a polynomial in x, y, z and w."""
    if "T" in p.vars and p.degree_in("T"):
        raise ValueError("T does not live in R; use mpoly_to_ringpolyt")
    return _normal_form(p, RingElement)


def _normal_form(p: MPoly, cls):
    """The normal form a + x*b of p in R or R[T] (``cls``), in one pass over
    its terms.  In u = yz, x^e = p_e(u) + x*q_e(u) with p_0 = 1, q_0 = 0,
    p_{e+1} = -u*q_e and q_{e+1} = p_e + q_e, and w^f = (1 - x)^f expands
    binomially; so each term adds its value times the coefficients of one
    pair of int polynomials in u, shifted by its y, z and T exponents."""
    unknown = set(p.vars) - {"x", "y", "z", "w", "T"}
    if unknown:
        raise ValueError(f"no variable {sorted(unknown)[0]!r} in the device's ring")
    slots = [p.vars.index(v) if v in p.vars else None for v in ("x", "w", "y", "z", "T")]
    with_t = cls is RingPolyT
    a: dict = {}
    b: dict = {}
    for m, c in p.terms.items():
        ex, ew, i, j, t = (0 if k is None else m[k] for k in slots)
        for out, image in zip((a, b), _x_w_image(ex, ew)):
            for s, coef in image:
                key = (i + s, j + s, t) if with_t else (i + s, j + s)
                out[key] = out.get(key, 0) + c * coef
    ctx = p.ctx
    return cls(MPoly(ctx, cls.PARTS, *settled(ctx, a, p.den)),
               MPoly(ctx, cls.PARTS, *settled(ctx, b, p.den)))


# (p_e, q_e) with x^e = p_e(u) + x*q_e(u), ascending int coefficients in
# u = yz, extended as needed; they do not depend on the field
_X_POWERS = [([1], [0])]


@cache
def _x_w_image(ex: int, ew: int) -> tuple[tuple, tuple]:
    """x^ex * w^ew as (p, q), x^ex * (1 - x)^ew = p(u) + x*q(u), each as the
    (s, coefficient) pairs of its nonzero u^s; ints, kept across calls."""
    while len(_X_POWERS) <= ex + ew:
        pe, qe = _X_POWERS[-1]
        q_next = [c + d for c, d in zip_longest(pe, qe, fillvalue=0)]
        _X_POWERS.append(([0] + [-c for c in qe], q_next))
    p: list = []
    q: list = []
    for k in range(ew + 1):
        sign = comb(ew, k) * (-1) ** k
        for acc, part in zip((p, q), _X_POWERS[ex + k]):
            acc.extend([0] * (len(part) - len(acc)))
            for s, coef in enumerate(part):
                acc[s] += sign * coef
    return tuple(tuple((s, c) for s, c in enumerate(acc) if c) for acc in (p, q))


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
    return r.to_mpoly().substitute(images)


class RingPolyT(RingElement):
    """An element of R[T] in normal form a(y,z,T) + x*b(y,z,T)."""

    __slots__ = ()

    PARTS = ("y", "z", "T")
    VARS = ("x", *PARTS)

    # an entry of this class, not only inherited: the benchmark's layer
    # tracer counts products in R[T] apart from those in R by this name
    __mul__ = __rmul__ = RingElement.__mul__

    @classmethod
    def gen_T(cls, ctx):
        return cls(MPoly.var(ctx, cls.PARTS, "T"), MPoly.zero(ctx, cls.PARTS))

    @classmethod
    def from_ring(cls, r: RingElement) -> "RingPolyT":
        """An element of R as a constant of R[T]."""
        return cls(*(MPoly(r.ctx, cls.PARTS, {(i, j, 0): c for (i, j), c in p.terms.items()}, p.den)
                     for p in (r.a, r.b)))

    def _map_T(self, images: list, scale: int, cls):
        """Each term c*y^i z^j T^t adds c*e over den*scale into y^i z^j T^s
        (y^i z^j when ``cls`` is RingElement) for the (s, e) of images[t]."""
        ctx, with_t = self.ctx, cls is RingPolyT
        parts = []
        for part in (self.a, self.b):
            acc: dict = {}
            for (i, j, t), c in part.terms.items():
                for s, e in images[t]:
                    key = (i, j, s) if with_t else (i, j)
                    acc[key] = acc.get(key, 0) + c * e
            parts.append(MPoly(ctx, cls.PARTS, *settled(ctx, acc, part.den * scale)))
        return cls(*parts)

    def T_degree(self) -> int:
        return max((m[2] for part in (self.a, self.b) for m in part.terms), default=0)

    def eval_at_T(self, t: FieldElem) -> RingElement:
        """T replaced by t = n/d: c*T^k adds c*n^k*d^(top-k) over den*d^top."""
        ctx = common_ctx(self.ctx, t.ctx)
        n, d = (t.val, 1) if ctx.p is not None else (t.val.numerator, t.val.denominator)
        top = self.T_degree()
        images = [[(0, n**k * d ** (top - k))] for k in range(top + 1)]
        return self._map_T(images, d**top, RingElement)

    def reverse_T(self) -> "RingPolyT":
        """Substitute T -> 1 - T: c*T^k adds c*(-1)^s*C(k, s) into T^s."""
        images = [[(s, (-1) ** s * comb(k, s)) for s in range(k + 1)]
                  for k in range(self.T_degree() + 1)]
        return self._map_T(images, 1, RingPolyT)

    def basepoint_curve(self) -> list[FieldElem]:
        """Basepoint evaluation (x = 1, y = z = 0): the image in k[T] as
        ascending coefficients, trailing zeros trimmed."""
        ctx = self.ctx
        a, b = ({m: c for m, c in p.terms.items() if m[:2] == (0, 0)} for p in (self.a, self.b))
        image, den = terms_add(ctx, a, self.a.den, b, self.b.den)
        curve = [ctx.zero] * (max((t for _, _, t in image), default=-1) + 1)
        for (_, _, t), c in image.items():
            curve[t] = FieldElem(ctx, raw_coeff(ctx, c, den))
        return curve

    def basepoint_constant(self) -> FieldElem | None:
        """The basepoint curve as a constant of k, or None if it genuinely varies."""
        curve = self.basepoint_curve()
        if len(curve) > 1:
            return None
        return curve[0] if curve else self.ctx.zero


def mpoly_to_ringpolyt(p: MPoly) -> RingPolyT:
    """Normal form in R[T] of a polynomial in x, y, z, w and T."""
    return _normal_form(p, RingPolyT)
