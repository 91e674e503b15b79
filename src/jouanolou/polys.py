"""Sparse multivariate polynomials over a field context, and the one
arithmetic kernel every polynomial type of the package runs on.

The kernel works on term dicts: exponent tuples mapped to raw nonzero
coefficients (Fraction over Q, int over F_p).  ``terms_add`` (sum or
difference, zero sums dropped), ``terms_mul``, ``terms_scale`` (optionally
times a monomial) and ``terms_neg`` are the only sparse add/sub/mul loops;
``MPoly`` here and ``BivarPoly``/``RingElement`` in :mod:`jring` call them
directly, and ``common_ctx`` is the single check that operands share a
field.  R[T] runs the same ``RingElement`` code on keys (i, j, t) for
y^i z^j T^t; the dense univariate kernel of :mod:`bundle` serves only the
X-polynomials of its resultant code.  ``power`` is the one
square-and-multiply, ``eval_terms`` the one power-cached evaluation of a
term dict (summed pairwise), ``dot`` the one sum of products.

Products over Q run on cleared integer numerators: ``terms_mul`` scales
each operand to ints over one common denominator, multiplies and sums ints,
and builds one ``Fraction`` per output term.  The stored form stays a dict
of reduced ``Fraction`` values.

``MPoly`` is the substrate for the Buchberger engine and for parsing:
polynomials in a free commutative polynomial ring with a fixed ordered
variable tuple.  The monomial order everywhere is degrevlex with the
variable tuple ordered from greatest to least.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .errors import ContextMismatch
from .field import FieldCtx


def common_ctx(c1: FieldCtx, c2: FieldCtx) -> FieldCtx:
    """The field both operands live over; ContextMismatch when they differ."""
    if c1 is c2 or c1 == c2:
        return c1
    raise ContextMismatch(f"operands over {c1} and {c2}")


def _reduced(ctx: FieldCtx, acc: dict) -> dict:
    """Canonical raw coefficients with the zero ones dropped."""
    p = ctx.p
    if p is None:
        return {m: c for m, c in acc.items() if c}
    return {m: r for m, c in acc.items() if (r := c % p)}


def terms_add(ctx: FieldCtx, A: dict, B: dict, negate: bool = False) -> dict:
    """A + B, or A - B when ``negate``."""
    if not B:
        return dict(A)
    out = dict(A)
    for m, c in B.items():
        if negate:
            c = -c
        if m in out:
            out[m] += c
        else:
            out[m] = c
    return _reduced(ctx, out)


def _den(terms: dict) -> int:
    """The least common denominator of rational coefficients."""
    return lcm(*[c.denominator for c in terms.values()])


def _numerators(terms: dict, d: int) -> dict:
    """d * terms as integers; d is a multiple of every denominator."""
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def terms_mul(ctx: FieldCtx, A: dict, B: dict, acc: dict | None = None) -> dict:
    """A * B, plus ``acc`` when given (over F_p its coefficients may be
    unreduced).

    One loop sums the products as ints and reduces once at the end.  Over Q
    the operands and ``acc`` are first cleared to integer numerators over
    one common denominator D, so the loop needs no gcd, and each nonzero
    output term is one ``Fraction(c, D)``.  Pairs of exponents, the keys of
    ``BivarPoly``, are added inline.
    """
    if not (A and B):
        return {} if acc is None else _reduced(ctx, acc)
    p = ctx.p
    if p is None:
        dB = _den(B)
        D = _den(A) * dB
        if acc:
            D = lcm(D, _den(acc))
            acc = _numerators(acc, D)
        A, B = _numerators(A, D // dB), _numerators(B, dB)
    out = {} if acc is None else dict(acc)
    pair = len(next(iter(A))) == 2
    for m1, c1 in A.items():
        for m2, c2 in B.items():
            m = (m1[0] + m2[0], m1[1] + m2[1]) if pair else tuple(map(add, m1, m2))
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2
    if p is None:
        return {m: Fraction(c, D) for m, c in out.items() if c}
    return _reduced(ctx, out)


def terms_scale(ctx: FieldCtx, A: dict, raw, mon: tuple | None = None) -> dict:
    """raw * A, times the monomial ``mon`` when given."""
    if not raw:
        return {}
    p = ctx.p
    if mon is not None:
        A = {tuple(map(add, m, mon)): c for m, c in A.items()}
    if p is None:
        return {m: c * raw for m, c in A.items()}
    return {m: c * raw % p for m, c in A.items()}


def terms_neg(ctx: FieldCtx, A: dict) -> dict:
    p = ctx.p
    if p is None:
        return {m: -c for m, c in A.items()}
    return {m: p - c for m, c in A.items()}


def power(base, e: int, one):
    """base**e by square-and-multiply, for any ring type with ``*``."""
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def dot(pairs):
    """sum(a * b for a, b in pairs) in any ring type, None for no pairs."""
    acc = None
    for a, b in pairs:
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def eval_terms(terms: dict, images: list, const):
    """sum(const(c) * prod(images[i] ** e_i)) over the terms; each power
    images[i] ** e is computed once.  ``const`` maps a raw coefficient into
    the target ring, whose elements need ``*``, ``+`` and ``scale(raw)``.
    The terms are summed pairwise, so no running sum is copied per term."""
    parts = []
    cache: dict = {}
    for m, c in terms.items():
        prod = None
        for i, e in enumerate(m):
            if e:
                key = (i, e)
                if key not in cache:
                    cache[key] = images[i] ** e
                prod = cache[key] if prod is None else prod * cache[key]
        parts.append(const(c) if prod is None else prod.scale(c))
    if not parts:
        return const(0)
    while len(parts) > 1:
        odd = parts[-1:] if len(parts) % 2 else []
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + odd
    return parts[0]


def drl_key(exp: tuple[int, ...]):
    """Sort key realizing degrevlex: larger key = larger monomial."""
    return (sum(exp),) + tuple(-e for e in reversed(exp))


class MPoly:
    """A polynomial in the ring k[vars], vars a fixed name tuple."""

    __slots__ = ("ctx", "vars", "terms")

    def __init__(self, ctx: FieldCtx, vars: tuple[str, ...], terms: dict | None = None):
        self.ctx = ctx
        self.vars = vars
        self.terms = terms if terms is not None else {}

    # constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, ctx, vars):
        return cls(ctx, vars)

    @classmethod
    def const(cls, ctx, vars, raw):
        p = cls(ctx, vars)
        if raw:
            p.terms[(0,) * len(vars)] = raw
        return p

    @classmethod
    def var(cls, ctx, vars, name, power: int = 1):
        i = vars.index(name)
        exp = tuple(power if j == i else 0 for j in range(len(vars)))
        return cls(ctx, vars, {exp: ctx.rone})

    def _ctx(self, other: "MPoly") -> FieldCtx:
        if self.vars != other.vars:
            raise ValueError("polynomials from different rings")
        return common_ctx(self.ctx, other.ctx)

    # arithmetic -------------------------------------------------------------
    def __add__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        return MPoly(ctx, self.vars, terms_add(ctx, self.terms, other.terms))

    def __sub__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        return MPoly(ctx, self.vars, terms_add(ctx, self.terms, other.terms, negate=True))

    def __neg__(self) -> "MPoly":
        return MPoly(self.ctx, self.vars, terms_neg(self.ctx, self.terms))

    def __mul__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        return MPoly(ctx, self.vars, terms_mul(ctx, self.terms, other.terms))

    def scale(self, raw) -> "MPoly":
        return MPoly(self.ctx, self.vars, terms_scale(self.ctx, self.terms, raw))

    def mul_term(self, mon: tuple[int, ...], raw) -> "MPoly":
        return MPoly(self.ctx, self.vars, terms_scale(self.ctx, self.terms, raw, mon))

    def __pow__(self, e: int) -> "MPoly":
        return power(self, e, MPoly.const(self.ctx, self.vars, self.ctx.rone))

    # queries ---------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self):
        zero_mon = (0,) * len(self.vars)
        return self.terms.get(zero_mon, self.ctx.rzero)

    def leading(self) -> tuple[tuple[int, ...], object]:
        """Leading (monomial, raw coefficient) in degrevlex."""
        m = max(self.terms, key=drl_key)
        return m, self.terms[m]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: drl_key(mc[0]), reverse=True)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.ctx == other.ctx
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.vars, tuple(sorted(self.terms.items()))))

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((m[i] for m in self.terms), default=0)

    def substitute(self, values: dict[str, "MPoly"]) -> "MPoly":
        """Ring-homomorphic substitution; unnamed variables map to themselves."""
        ctx = self.ctx
        tvars = next(iter(values.values())).vars
        images = [
            values.get(name, MPoly.var(ctx, tvars, name) if name in tvars else None)
            for name in self.vars
        ]
        if any(im is None for im in images):
            raise ValueError("substitution must cover variables absent from the target ring")
        return eval_terms(self.terms, images, lambda raw: MPoly.const(ctx, tvars, raw))

    def __repr__(self):
        from .textio import mpoly_str

        return mpoly_str(self)
