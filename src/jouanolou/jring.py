"""Canonical-form arithmetic in the coordinate ring of the Jouanolou device.

The ring is R = k[x,y,z,w]/(x+w-1, xw-yz), identified with
k[x,y,z]/(x^2 - x + yz) by eliminating w = 1 - x.  Every element has the
unique normal form a(y,z) + x*b(y,z), and that normal form is what a
``RingElement`` stores: one polynomial in its ring's ``VARS`` = (x, y, z)
of x-degree at most 1, an ``MPoly`` subclass on keys (e, i, j) for
x^e y^i z^j, e <= 1.  The stored form is that of :mod:`polys`, int values
over one denominator, canonical, so equality is literal equality of
(terms, den).  Sums, differences, negation, scaling, equality and hashing
are ``MPoly``'s, built as the operand's own type through ``MPoly._of``.

The product is one sum of products: ``polys.sum_of_scaled`` of the stored
dicts with ``fold``, whose keys reach x^2 and are folded by x^2 = x - yz,
inside the packed integer on the packed routes and key by key
(``polys.fold_keys``) on the dict loop.  ``__mul__`` is that sum for one
pair, and a sum of ring products (an entry of a 2x2 matrix product, of
the action on section data or of certificate transport) is
``polys.dot``, which runs :meth:`RingElement.sum_of_products`: one
accumulation, settled once, at every size.  No result depends on key
order: printing sorts, and ``realize`` reads terms in sorted key order.

R[T], the one-variable polynomial extension used by homotopies, is R with a
T exponent: ``RingPolyT`` stores the same normal form in ``VARS`` =
(x, y, z, T) (keys (e, i, j, t)) and runs the same ``RingElement`` code.  An
operand of R meeting one of R[T] is lifted to t = 0 keys; ``MPoly._ctx``
refuses to add polynomials of the two rings unlifted.  Both are domains
with an exact division through the norm: sigma (x <-> w) is an involution,
N(b) = b*sigma(b) has no x term, and a/b = a*sigma(b)/N(b) (``divexact``,
``divider``), as Bareiss's elimination needs; a b with no x term is its
own sigma, and a is divided by b itself.

Substitutions are term-wise maps, one pass over the term dict on ints: the
normal form (w -> 1 - x, x^e -> p_e(yz) + x*q_e(yz)), sigma, tau, T at a
constant, and T -> 1 - T.
"""

from __future__ import annotations

from functools import cache
from itertools import zip_longest
from math import comb, inf
from operator import itemgetter

from .field import FieldCtx, FieldElem
from .groebner import _Budget, _reduce_tracked, _Tracked, pack, unpack
from .polys import MPoly, common_ctx, raw_coeff, settled, sum_of_scaled


# no class of its own: the benchmark's layer tracer counts products by the
# name ``jring.BivarPoly.__mul__``, so the name stays as an alias of MPoly
BivarPoly = MPoly


class RingElement(MPoly):
    """An element of R, stored as its normal form a(y,z) + x*b(y,z): a
    polynomial in ``VARS`` of x-degree at most 1."""

    __slots__ = ()

    # the public variable tuple; RingPolyT appends T.  Printing, the
    # groebner engine and ``to_mpoly`` read the ring from VARS
    VARS = ("x", "y", "z")

    def __init__(self, ctx: FieldCtx, terms: dict | None = None, den: int | None = None):
        """The element with the given stored terms (keys of x-degree at most
        1), raw coefficients when ``den`` is None."""
        super().__init__(ctx, self.VARS, terms, den)

    # constructors -----------------------------------------------------------
    @classmethod
    def from_raw(cls, ctx, raw):
        return cls(ctx, {(0,) * len(cls.VARS): raw})

    @classmethod
    def from_scalar(cls, c: FieldElem):
        return cls.from_raw(c.ctx, c.val)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {}, 1)

    @classmethod
    def one(cls, ctx):
        return cls.from_raw(ctx, ctx.rone)

    @classmethod
    def _gen(cls, ctx, name):
        return cls(ctx, {tuple(int(v == name) for v in cls.VARS): 1}, 1)

    @classmethod
    def gen_x(cls, ctx):
        return cls._gen(ctx, "x")

    @classmethod
    def gen_y(cls, ctx):
        return cls._gen(ctx, "y")

    @classmethod
    def gen_z(cls, ctx):
        return cls._gen(ctx, "z")

    @classmethod
    def gen_w(cls, ctx):
        return cls.one(ctx) - cls.gen_x(ctx)  # w = 1 - x

    # arithmetic ---------------------------------------------------------------
    def _coerced(self, other):
        """Both operands in one ring, or None when ``other`` is no ring
        element: the operand of R meeting one of R[T] is lifted into R[T]."""
        if not isinstance(other, RingElement):
            return None
        if isinstance(other, type(self)):
            return other.from_ring(self), other
        return self, self.from_ring(other)

    # an entry of this class, not only inherited: the benchmark's layer
    # tracer counts ring sums by the name ``RingElement.__add__``
    def __add__(self, other):
        if type(other) is not type(self):
            if (pair := self._coerced(other)) is None:
                return NotImplemented
            self, other = pair
        return MPoly.__add__(self, other)

    def __sub__(self, other):
        if type(other) is not type(self):
            if (pair := self._coerced(other)) is None:
                return NotImplemented
            self, other = pair
        return MPoly.__sub__(self, other)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.sum_of_products(((self, other),))

    @classmethod
    def sum_of_products(cls, pairs) -> "RingElement":
        """sum(r * s for r, s in pairs) over R, or over R[T] when any factor
        is in R[T] (the others lifted): one ``polys.sum_of_scaled`` of the
        stored dicts, its x^2 keys folded."""
        if any(type(e) is RingPolyT for pair in pairs for e in pair):
            cls = RingPolyT
        ctx = pairs[0][0].ctx
        products = []
        for r, s in pairs:
            ctx = common_ctx(ctx, common_ctx(r.ctx, s.ctx))
            if type(r) is not cls:
                r = cls.from_ring(r)
            if type(s) is not cls:
                s = cls.from_ring(s)
            products.append((1, r.terms, r.den, s.terms, s.den))
        return cls(ctx, *settled(ctx, *sum_of_scaled(products, fold=True)))

    def _raw_constant(self):
        """The raw value of a constant element (0 for zero), None for any
        other."""
        if not self.terms:
            return 0
        if len(self.terms) > 1:
            return None
        ((m, c),) = self.terms.items()
        return None if any(m) else raw_coeff(self.ctx, c, self.den)

    # queries -------------------------------------------------------------------
    def constant_value(self) -> FieldElem:
        return FieldElem(self.ctx, MPoly.constant_value(self))

    # morphisms -------------------------------------------------------------------
    def basepoint_curve(self) -> list[FieldElem]:
        """Basepoint evaluation (x = 1, y = z = 0): the image in k[T] as
        ascending coefficients (in R at most the constant), trailing zeros
        trimmed."""
        ctx = self.ctx
        image: dict = {}
        for m, c in self.terms.items():
            if not (m[1] or m[2]):
                t = sum(m[3:])
                image[t] = image.get(t, 0) + c
        image, den = settled(ctx, image, self.den)
        curve = [ctx.zero] * (max(image, default=-1) + 1)
        for t, c in image.items():
            curve[t] = FieldElem(ctx, raw_coeff(ctx, c, den))
        return curve

    def basepoint_constant(self) -> FieldElem | None:
        """The basepoint curve as a constant of k, or None if it genuinely
        varies (only in R[T])."""
        curve = self.basepoint_curve()
        if len(curve) > 1:
            return None
        return curve[0] if curve else self.ctx.zero

    # in R the basepoint value is always a constant of k
    eval_basepoint = basepoint_constant

    def basepoint_is_zero(self) -> bool:
        return self.basepoint_constant() == 0  # None (varies with T) is not 0

    def sigma(self) -> "RingElement":
        """The involution x <-> w = 1 - x fixing y, z: a + x*b -> a + b - x*b."""
        out: dict = {}
        for m, c in self.terms.items():
            if m[0]:
                low = (0,) + m[1:]
                out[low] = out.get(low, 0) + c
                c = -c
            out[m] = out.get(m, 0) + c
        return self._of(self.ctx, *settled(self.ctx, out, self.den))

    def divexact(self, b) -> "RingElement":
        """self / b for a divisor b of self (ArithmeticError otherwise)."""
        return b.divider()(self)

    def divider(self):
        """The map q -> q / self = q * sigma(self) / N on the multiples of
        self, N = self * sigma(self) = a^2 + a*b + yz*b^2 (no x term), both
        computed once: q * sigma(self) is divided by N by the Groebner
        engine's reduction with the one reducer N, whose remainder must be
        empty.  A divisor with no x term is its own sigma, and q is divided
        by it directly: a normal form q = self * r is the same product in
        the free ring, so that reduction is exact and its quotient is r."""
        ctx, n = self.ctx, len(self.VARS)
        if (c := self._raw_constant()) is not None:
            return lambda q, inv=ctx.rinv(c): q.scale(inv)
        if any(m[0] for m in self.terms):
            conj = self.sigma()
            norm = self * conj
        else:
            conj, norm = None, self
        basis = [_Tracked(ctx, n, {pack(m): c for m, c in norm.terms.items()}, norm.den, 0)]

        def divide(q):
            if type(q) is not type(self):  # one operand in R, the other in R[T]
                q, b = q._coerced(self)
                return q.divexact(b)
            product = q if conj is None else q * conj
            keyed = {pack(m): c for m, c in product.terms.items()}
            # degrevlex is a well-order: the division stops unbudgeted
            (rest, _), quotients = _reduce_tracked(ctx, n, keyed, product.den, basis, _Budget(inf))
            if rest:
                raise ArithmeticError("not an exact division in R")
            return type(self)(ctx, {unpack(m, n): c for m, c in quotients.get(0, {}).items()})

        return divide

    def tau(self) -> "RingElement":
        """The involution fixing x and w and swapping y with z."""
        terms = {(m[0], m[2], m[1]) + m[3:]: c for m, c in self.terms.items()}
        return self._of(self.ctx, terms, self.den)

    def to_mpoly(self) -> MPoly:
        """The normal form as a polynomial of the free ring on ``VARS``,
        sharing the stored dict."""
        return MPoly(self.ctx, self.VARS, self.terms, self.den)


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
    """The normal form a + x*b of p in R or R[T] (``cls``); each term reads
    the 0 appended to its key as the exponent of a variable p lacks."""
    unknown = set(p.vars) - {"x", "y", "z", "w", "T"}
    if unknown:
        raise ValueError(f"no variable {sorted(unknown)[0]!r} in the device's ring")
    exps = itemgetter(*(p.vars.index(v) if v in p.vars else -1 for v in ("x", "w", "y", "z", "T")))
    return int_normal_form(p.ctx, ((exps(m + (0,)), c) for m, c in p.terms.items()), p.den, cls)


def int_normal_form(ctx, terms, den=1, cls=RingElement):
    """sum(c * x^a w^b y^i z^j T^t) / den over ((a, b, i, j, t), c) in ``terms``,
    c an int, in R (R[T] for ``cls`` RingPolyT), by one pass on ints."""
    with_t = cls is RingPolyT
    out: dict = {}
    for (ex, ew, i, j, t), c in terms:
        for e, image in enumerate(_x_w_image(ex, ew)):
            for s, coef in image:
                key = (e, i + s, j + s, t) if with_t else (e, i + s, j + s)
                out[key] = out.get(key, 0) + c * coef
    return cls(ctx, *settled(ctx, out, den))


# (p_e, q_e) with x^e = p_e(u) + x*q_e(u) in u = yz, ascending ints: p_0 = 1,
# q_0 = 0, p_(e+1) = -u*q_e, q_(e+1) = p_e + q_e; field-free, extended as needed
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
    """An element of R[T], stored as its normal form a(y,z,T) + x*b(y,z,T)."""

    __slots__ = ()

    VARS = ("x", "y", "z", "T")

    # an entry of this class, not only inherited: the benchmark's layer
    # tracer counts products in R[T] apart from those in R by this name
    __mul__ = __rmul__ = RingElement.__mul__

    @classmethod
    def gen_T(cls, ctx):
        return cls._gen(ctx, "T")

    @classmethod
    def from_ring(cls, r: RingElement) -> "RingPolyT":
        """An element of R as a constant of R[T]."""
        return cls(r.ctx, {m + (0,): c for m, c in r.terms.items()}, r.den)

    def _map_T(self, images: list, scale: int, cls):
        """Each term c*x^e y^i z^j T^t adds c*v over den*scale into
        x^e y^i z^j T^s (x^e y^i z^j when ``cls`` is RingElement) for the
        (s, v) of images[t]."""
        with_t = cls is RingPolyT
        acc: dict = {}
        for (e, i, j, t), c in self.terms.items():
            for s, v in images[t]:
                key = (e, i, j, s) if with_t else (e, i, j)
                acc[key] = acc.get(key, 0) + c * v
        return cls(self.ctx, *settled(self.ctx, acc, self.den * scale))

    def T_degree(self) -> int:
        return self.degree_in("T")

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


def mpoly_to_ringpolyt(p: MPoly) -> RingPolyT:
    """Normal form in R[T] of a polynomial in x, y, z, w and T."""
    return _normal_form(p, RingPolyT)
