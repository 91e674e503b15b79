"""Sparse multivariate polynomials over a field context, and the one
arithmetic kernel every polynomial type of the package runs on.

Every polynomial stores its coefficients as integers over one denominator:
``terms`` maps exponent tuples to nonzero ints and ``den`` is one positive
int, the coefficients being terms[m] / den.  The form is canonical,
gcd(den, all values) = 1, so equal polynomials have equal (terms, den).
Over F_p, den is 1 and the values lie in [1, p).  (FLINT's ``fmpq_poly``
keeps rational polynomials the same way.)

The kernel runs int loops only and returns (terms, den) pairs:
``terms_add`` (sum or difference over the lcm of the denominators),
``terms_mul`` (the product over the product of the denominators),
``terms_scale`` (by a raw scalar, optionally times a monomial) and
``terms_neg`` are the only sparse add/sub/mul loops; ``MPoly`` here and
``BivarPoly``/``RingElement`` in :mod:`jring` call them directly.  Over Q,
``canonical`` divides a result by gcd(den, all values) in one pass, so the
kernel returns canonical pairs when given canonical ones.  Stored term dicts
are never written after construction: a result may share its dict with an
operand (``terms_add`` returns A itself when B is empty).  ``common_ctx`` is
the single check that operands share a field.  R[T] runs the same
``RingElement`` code on keys (i, j, t) for y^i z^j T^t; the dense univariate
kernel of :mod:`bundle` serves only the X-polynomials of its resultant code.
``power`` is the one square-and-multiply, ``eval_terms`` the one
power-cached evaluation of a term dict (summed pairwise), ``dot`` the one
sum of products.

Raw coefficients (``Fraction`` over Q, int over F_p) cross only at the
boundary: ``cleared`` puts a dict of them into the stored form (the
constructors call it when given no ``den``), and ``raw_coeff`` turns a
stored value back into one (leading coefficients, printing, field
elements).

``MPoly`` is the substrate for the Buchberger engine and for parsing:
polynomials in a free commutative polynomial ring with a fixed ordered
variable tuple.  The monomial order everywhere is degrevlex with the
variable tuple ordered from greatest to least.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import ContextMismatch
from .field import FieldCtx


def common_ctx(c1: FieldCtx, c2: FieldCtx) -> FieldCtx:
    """The field both operands live over; ContextMismatch when they differ."""
    if c1 is c2 or c1 == c2:
        return c1
    raise ContextMismatch(f"operands over {c1} and {c2}")


def cleared(ctx: FieldCtx, raw: dict) -> tuple[dict, int]:
    """(terms, den) of a dict of raw coefficients, zero ones dropped."""
    p = ctx.p
    if p is not None:
        return {m: r for m, c in raw.items() if (r := c % p)}, 1
    raw = {m: c for m, c in raw.items() if c}
    den = lcm(*[c.denominator for c in raw.values()])
    return {m: c.numerator * (den // c.denominator) for m, c in raw.items()}, den


def raw_coeff(ctx: FieldCtx, c: int, den: int):
    """The raw coefficient c / den."""
    return c if ctx.p is not None else Fraction(c, den)


def canonical(terms: dict, den: int) -> tuple[dict, int]:
    """terms / den with gcd(den, all values) divided out; den 1 when empty."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return {m: c // g for m, c in terms.items()}, den // g
    return terms, den


def settled(ctx: FieldCtx, acc: dict, den: int) -> tuple[dict, int]:
    """(terms, den) of int sums ``acc`` over den: the zero values dropped
    (values reduced mod p over F_p; over Q ``acc`` itself is kept when it
    holds no zero), then made canonical."""
    p = ctx.p
    if p is not None:
        acc = {m: r for m, c in acc.items() if (r := c % p)}
    elif 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    return canonical(acc, den)


def terms_over(A: dict, dA: int, D: int) -> dict:
    """The values of A/dA over the denominator D, a multiple of dA."""
    return A if dA == D else {m: c * (D // dA) for m, c in A.items()}


def terms_add(ctx: FieldCtx, A: dict, dA: int, B: dict, dB: int, negate: bool = False):
    """(terms, den) of A/dA + B/dB, or of A/dA - B/dB when ``negate``; the
    pair (A, dA) itself when B is empty."""
    if not B:
        return A, dA
    D = dA if dA == dB else lcm(dA, dB)
    out = terms_over(A, dA, D)
    if out is A:
        out = dict(A)  # stored dicts are never written
    s = D // dB
    if negate:
        s = -s
    for m, c in B.items():
        if s != 1:
            c *= s
        if m in out:
            out[m] += c
        else:
            out[m] = c
    return settled(ctx, out, D)


def terms_mul(ctx: FieldCtx, A: dict, dA: int, B: dict, dB: int, acc: dict | None = None):
    """(terms, den) of (A * B + acc) / (dA * dB): the product of A/dA and
    B/dB, plus the values ``acc`` over the same denominator when given.

    One int loop sums the products and reduces once at the end (over F_p
    the values of ``acc`` may be unreduced).  Exponent pairs and triples,
    the keys of ``BivarPoly`` in R and R[T] and of ``MPoly`` in x, y, z,
    are added inline.  With dA = dB = 1 the values come back as summed,
    with no gcd pass.
    """
    if not (A and B):
        return ({}, 1) if acc is None else settled(ctx, acc, dA * dB)
    out = {} if acc is None else dict(acc)
    width = len(next(iter(A)))
    for m1, c1 in A.items():
        for m2, c2 in B.items():
            if width == 2:
                m = (m1[0] + m2[0], m1[1] + m2[1])
            elif width == 3:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            else:
                m = tuple(map(add, m1, m2))
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2
    return settled(ctx, out, dA * dB)


def terms_scale(ctx: FieldCtx, A: dict, den: int, raw, mon: tuple | None = None):
    """(terms, den) of raw * A/den, times the monomial ``mon`` when given.

    Over Q, raw = n/d: gcd(den, n) is divided out of n and den, and the
    gcd of d with the values out of d, so the product is canonical."""
    if not raw:
        return {}, 1
    if mon is not None:
        A = {tuple(map(add, m, mon)): c for m, c in A.items()}
    p = ctx.p
    if p is not None:
        return {m: c * raw % p for m, c in A.items()}, 1
    n, d = raw.numerator, raw.denominator
    if d != 1 and (g := gcd(d, *A.values())) != 1:
        A = {m: c // g for m, c in A.items()}
        d //= g
    if (g := gcd(den, n)) != 1:
        n //= g
        den //= g
    if n != 1:
        A = {m: c * n for m, c in A.items()}
    return A, den * d


def terms_neg(ctx: FieldCtx, A: dict) -> dict:
    p = ctx.p
    if p is None:
        return {m: -c for m, c in A.items()}
    return {m: p - c for m, c in A.items()}


def power(base, e: int, one):
    """base**e by square-and-multiply, for any ring type with ``*``."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
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


def eval_terms(terms: dict, den: int, images: list, const):
    """sum(const(c) * prod(images[i] ** e_i)) / den over the terms; each
    power images[i] ** e is computed once.  ``const`` maps a raw coefficient
    into the target ring, whose elements need ``*``, ``+`` and
    ``scale(raw)``.  The terms are summed pairwise, so no running sum is
    copied per term, and divided by den once at the end."""
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
    return parts[0] if den == 1 else parts[0].scale(Fraction(1, den))


def drl_key(exp: tuple[int, ...]):
    """Sort key realizing degrevlex: larger key = larger monomial."""
    return (sum(exp),) + tuple(-e for e in reversed(exp))


class MPoly:
    """A polynomial in the ring k[vars], vars a fixed name tuple, stored as
    ``terms`` / ``den``; a dict given without ``den`` holds raw
    coefficients and is cleared into that form."""

    __slots__ = ("ctx", "vars", "terms", "den")

    def __init__(self, ctx: FieldCtx, vars: tuple[str, ...], terms: dict | None = None,
                 den: int | None = None):
        self.ctx = ctx
        self.vars = vars
        if den is None:
            terms, den = cleared(ctx, terms or {})
        self.terms = terms
        self.den = den

    # constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, ctx, vars):
        return cls(ctx, vars, {}, 1)

    @classmethod
    def const(cls, ctx, vars, raw):
        return cls(ctx, vars, {(0,) * len(vars): raw})

    @classmethod
    def var(cls, ctx, vars, name, power: int = 1):
        i = vars.index(name)
        exp = tuple(power if j == i else 0 for j in range(len(vars)))
        return cls(ctx, vars, {exp: 1}, 1)

    def _ctx(self, other: "MPoly") -> FieldCtx:
        if self.vars != other.vars:
            raise ValueError("polynomials from different rings")
        return common_ctx(self.ctx, other.ctx)

    # arithmetic -------------------------------------------------------------
    def __add__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        return MPoly(ctx, self.vars, *terms_add(ctx, self.terms, self.den, other.terms, other.den))

    def __sub__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        diff = terms_add(ctx, self.terms, self.den, other.terms, other.den, negate=True)
        return MPoly(ctx, self.vars, *diff)

    def __neg__(self) -> "MPoly":
        return MPoly(self.ctx, self.vars, terms_neg(self.ctx, self.terms), self.den)

    def __mul__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        product = terms_mul(ctx, self.terms, self.den, other.terms, other.den)
        return MPoly(ctx, self.vars, *product)

    def scale(self, raw) -> "MPoly":
        return MPoly(self.ctx, self.vars, *terms_scale(self.ctx, self.terms, self.den, raw))

    def mul_term(self, mon: tuple[int, ...], raw) -> "MPoly":
        return MPoly(self.ctx, self.vars, *terms_scale(self.ctx, self.terms, self.den, raw, mon))

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
        return raw_coeff(self.ctx, self.terms.get((0,) * len(self.vars), 0), self.den)

    def leading(self) -> tuple[tuple[int, ...], object]:
        """Leading (monomial, raw coefficient) in degrevlex."""
        m = max(self.terms, key=drl_key)
        return m, raw_coeff(self.ctx, self.terms[m], self.den)

    def sorted_terms(self):
        """(monomial, raw coefficient) pairs, degrevlex descending."""
        ctx, den = self.ctx, self.den
        items = sorted(self.terms.items(), key=lambda mc: drl_key(mc[0]), reverse=True)
        return [(m, raw_coeff(ctx, c, den)) for m, c in items]

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.ctx == other.ctx
            and self.vars == other.vars
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.vars, self.den, tuple(sorted(self.terms.items()))))

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
        return eval_terms(
            self.terms, self.den, images, lambda raw: MPoly.const(ctx, tvars, raw)
        )

    def __repr__(self):
        from .textio import mpoly_str

        return mpoly_str(self)
