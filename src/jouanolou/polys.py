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
``terms_scale`` (by a raw scalar, optionally times a monomial),
``terms_neg`` and ``terms_sub_into`` (a scaled, shifted subtraction in
place from a dict the caller owns, on packed int keys, the step of the
Groebner reduction) are the only sparse add/sub/mul loops; ``MPoly``, the
one sparse polynomial class, and ``RingElement`` in :mod:`jring` call them
directly.  Over Q, ``canonical`` divides a result by gcd(den, all values)
in one pass, so the kernel returns canonical pairs when given canonical
ones.  Stored term dicts are never written after construction: a result may
share its dict with an operand (``terms_add`` returns A itself when B is
empty).  ``common_ctx`` is the single check that operands share a field.
``power`` is the one square-and-multiply, ``eval_terms`` the one
power-cached evaluation of a term dict (summed pairwise), ``dot`` the one
sum of products.

Large products are one big-integer multiply (Kronecker substitution;
Fateman 2005, Harvey 2009): ``packed_sum`` maps every key to one slot in
the box of the exponents, multiplies the packed operands and unpacks once.
A slot is only as wide as the sum it must hold (``slot_bytes``): 1, 2, 4
or 8 bytes, whole 64-bit words past that.  CPython multiplies in about
length^1.585 (Karatsuba), so a narrower slot is a cheaper multiply: in
corpora 0-2 of the benchmark workloads, 154 of the 170 packed sums of
``witness_boundary`` (mostly F_7) take 2 or 4 bytes, and the 296 Q sums of
``group_roundtrip`` 4 (193) or 8 bytes.

``terms_mul`` and ``dot`` settle pack-or-loop in one place, ``_products``,
by three guards, measured with CPython 3.11 on a 2-core x86-64 VM:
- The cutoff PACK_MIN_PAIRS = 1000 term pairs.  On the products of 100
  pairs or more in corpora 0-1 of the ``group_roundtrip`` and
  ``witness_boundary`` benchmark workloads, the loop won 251 of 312 below
  300 pairs and packing all 88 from 1000 on, by about 2.6x.  With the
  narrower slots packing won 132 of 162 at 300-499 pairs and all 36 at
  500-999 in corpora 0-2, but a cutoff of 500 would save about 4 ms in
  three corpora, below what the benchmark resolves.
- The slot range at most PACK_SLOTS_PER_PAIR = 1 times the pairs: it keeps
  a sparse product such as x^(10^6) * (...) on the loop and bounds the
  packed buffer by the loop's work.  Of the 492 products and sums of 1000
  pairs or more in corpora 0-2 of both workloads (set-up included), all
  but one ``MPoly`` sum (1.05) have at most 0.39 slots per pair.
- The operand boxes: a packed multiply costs box(A) * box(B) slots, so
  ``_products`` declines r = sum(box(A) * box(B)) / pairs above
  PACK_BOX_PER_PAIR = 16.  Every packed sum of corpora 0-2 of both
  workloads (set-up included) and of an ``oplus`` chain to degree 6 over Q
  and F_7 has r = 2.0-9.4 and stays packed, in the same key order.  The
  packed sums of cold ``n_pi(12..20)``, whose operands fill 7-10% of their
  boxes, had r = 43.5-135 over Q (5, 19 and 39 sums at n = 12, 16, 20) and
  157-221 over F_7 (5 at n = 20); on the loop cold ``n_pi(24)`` over Q
  takes 0.74-0.80 s, against 8.0-8.5 s packed.
``dot`` on ``MPoly`` pairs (the certificate checks and cofactor weights of
:mod:`groebner`) is one ``_products`` call at every size; on the ring
elements of R and R[T] (the fused sum :mod:`jring` registers in FUSED_DOTS)
it is one per part from the cutoff on, and below it the running sum of ring
products, so small results keep that composition's key order.
The dict loop stays as the small-product path and as the tests' oracle.
Large products and large sums come back in slot order, not the loop's: no
result may depend on key order (printing sorts; ``realize`` sums floats in
dict order, and its recorded floats hold).

Raw coefficients (``Fraction`` over Q, int over F_p) cross only at the
boundary: ``cleared`` puts a dict of them into the stored form (the
constructors call it when given no ``den``), and ``raw_coeff`` turns a
stored value back into one (leading coefficients, printing, field
elements).

``MPoly`` is the substrate for the Buchberger engine, for parsing and for
the parts of the device's ring elements: polynomials in a free commutative
polynomial ring with a fixed ordered variable tuple.  The monomial order
everywhere is degrevlex with the variable tuple ordered from greatest to
least.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import ContextMismatch
from .field import FieldCtx


# the three guards of ``_products``; the module docstring has the measurements
PACK_MIN_PAIRS = 1000
PACK_SLOTS_PER_PAIR = 1
PACK_BOX_PER_PAIR = 16


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


def _box(A: dict) -> tuple[list, list]:
    """The per-variable minimum and maximum exponents of A's keys."""
    cols = list(zip(*A))
    return [min(c) for c in cols], [max(c) for c in cols]


def _pack(A: dict, low: list, high: list, strides: list, nbytes: int) -> int:
    """A as one int: the value at key m sits in the nbytes-byte slot
    sum((m_v - low_v) * stride_v), positive and negative values packed
    apart and subtracted."""
    base = sum(map(mul, low, strides))
    size = (sum(map(mul, high, strides)) - base + 1) * nbytes
    pos, neg = bytearray(size), None
    for m, c in A.items():
        i = (sum(map(mul, m, strides)) - base) * nbytes
        if c > 0:
            pos[i:i + nbytes] = c.to_bytes(nbytes, "little")
        else:
            if neg is None:
                neg = bytearray(size)
            neg[i:i + nbytes] = (-c).to_bytes(nbytes, "little")
    packed = int.from_bytes(pos, "little")
    return packed if neg is None else packed - int.from_bytes(neg, "little")


_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def slot_bytes(bound: int) -> int:
    """The bytes of a Kronecker slot for sums of absolute value at most
    ``bound``, a sign bit included: 1, 2, 4 or 8, the least that holds it,
    and past 8 whole 64-bit words."""
    bits = bound.bit_length() + 1
    for nbytes in _SLOT_FORMATS:
        if bits <= 8 * nbytes:
            return nbytes
    return 8 * ((bits + 63) // 64)


def packed_sum(products, max_slots: int, acc: dict | None = None, box: dict | None = None):
    """sum(s * A * B over (s, A, B) in products) + acc as a dict of int
    sums, by Kronecker substitution (zero slots of the products dropped;
    the caller settles the sum); None when the slot range exceeds
    ``max_slots``.

    The slots cover the box of the products' exponents, the last variable
    with stride 1.  A slot is :func:`slot_bytes` of the bound
    sum(|s| * max|a| * max|b| * min(|A|, |B|)) on its values: 1, 2, 4 or 8
    bytes, or whole 64-bit words past that.  Each operand is boxed (unless
    ``box`` has it by id) and packed once, however many products it
    enters; each product is one
    big-int multiply shifted to its place, and the sum is unpacked once:
    every slot is offset by half its range so the whole is
    nonnegative, written out by ``to_bytes`` and read back by one
    little-endian ``struct`` format (B, H, I or Q, words recombined past
    8 bytes), whatever the host's byte order."""
    operands = {id(X): X for _, A, B in products for X in (A, B)}
    box = box or {key: _box(X) for key, X in operands.items()}
    boxes = [(s, A, B, *box[id(A)], *box[id(B)]) for s, A, B in products]
    low = [min(v) for v in zip(*(map(add, la, lb) for _, _, _, la, _, lb, _ in boxes))]
    high = [max(v) for v in zip(*(map(add, ha, hb) for _, _, _, _, ha, _, hb in boxes))]
    spans = [h - l + 1 for l, h in zip(low, high)]
    slots = prod(spans)
    if slots > max_slots:
        return None
    strides = [prod(spans[v + 1:]) for v in range(len(spans))]
    bound = sum(abs(s) * max(map(abs, A.values())) * max(map(abs, B.values()))
                * min(len(A), len(B)) for s, A, B, *_ in boxes)
    nbytes = slot_bytes(bound)
    bits = 8 * nbytes
    packed = {key: _pack(X, *box[key], strides, nbytes) for key, X in operands.items()}
    total = 0
    for s, A, B, la, ha, lb, hb in boxes:
        shift = sum(map(mul, map(sub, map(add, la, lb), low), strides)) * bits
        total += (s * packed[id(A)] * packed[id(B)]) << shift
    half = 1 << (bits - 1)
    total += int.from_bytes((bytes(nbytes - 1) + b"\x80") * slots, "little")
    raw = total.to_bytes(slots * nbytes, "little")
    if nbytes <= 8:
        slot_vals = struct.unpack(f"<{slots}{_SLOT_FORMATS[nbytes]}", raw)
    else:
        words = nbytes // 8
        vals = struct.unpack(f"<{slots * words}Q", raw)
        slot_vals = vals[words - 1::words]
        for j in range(words - 2, -1, -1):
            slot_vals = [(v << 64) | w for v, w in zip(slot_vals, vals[j::words])]
    keys = product(*(range(l, h + 1) for l, h in zip(low, high)))
    out = {m: v - half for m, v in zip(keys, slot_vals) if v != half}
    if acc:
        for m, c in acc.items():
            out[m] = out.get(m, 0) + c
    return out


def terms_mul(ctx: FieldCtx, A: dict, dA: int, B: dict, dB: int, acc: dict | None = None):
    """(terms, den) of (A * B + acc) / (dA * dB): the product of A/dA and
    B/dB, plus the values ``acc`` over the same denominator when given.

    One int loop sums the products and reduces once at the end (over F_p
    the values of ``acc`` may be unreduced).  With dA = dB = 1 the values
    come back as summed, with no gcd pass.  :func:`_products` picks the
    dict loop or one packed multiply.
    """
    if not (A and B):
        return ({}, 1) if acc is None else settled(ctx, acc, dA * dB)
    return _products(ctx, [(1, A, B)], len(A) * len(B), dA * dB, acc)


def _products(ctx: FieldCtx, scaled: list, pairs: int, den: int, acc: dict | None = None):
    """(terms, den) of (sum(s * A * B over (s, A, B) in scaled) + acc) / den,
    A and B nonempty, ``pairs`` the term pairs in all: one
    :func:`packed_sum` from PACK_MIN_PAIRS pairs on, when the operand boxes
    (:func:`_box_work`) are at most PACK_BOX_PER_PAIR times ``pairs`` and
    the slot range at most PACK_SLOTS_PER_PAIR times, else the dict loop of
    :func:`_mul_into` (``acc`` first, then the products in order)."""
    out = None
    if pairs >= PACK_MIN_PAIRS:
        work, box = _box_work(scaled)
        if work <= PACK_BOX_PER_PAIR * pairs:
            out = packed_sum(scaled, pairs * PACK_SLOTS_PER_PAIR, acc, box)
    if out is None:
        out = {} if acc is None else dict(acc)
        for s, A, B in scaled:
            _mul_into(out, A, B, s)
    return settled(ctx, out, den)


def _box_work(scaled: list) -> tuple[int, dict]:
    """(sum(box(A) * box(B)) over the products (s, A, B), what the packed
    multiplies cost, box(X) the slots of the box of X's exponents; and
    ``_box`` of each operand by id, for :func:`packed_sum`)."""
    box = {id(X): _box(X) for X in {id(X): X for _, A, B in scaled for X in (A, B)}.values()}
    slots = {key: prod(h - l + 1 for l, h in zip(*b)) for key, b in box.items()}
    return sum(slots[id(A)] * slots[id(B)] for _, A, B in scaled), box


def _mul_into(out: dict, A: dict, B: dict, s: int = 1) -> None:
    """Add the int products s * A * B into ``out`` in place, unsettled.
    Exponent vectors of two to four entries are added inline: the parts of
    R and R[T] (``MPoly`` in ``PARTS``, (y, z) and (y, z, T)), and ``MPoly``
    in x, y, z and in x, y, z, T (certificate checks and cofactor
    expansions)."""
    width = len(next(iter(A)))
    for m1, c1 in A.items():
        if s != 1:
            c1 *= s
        for m2, c2 in B.items():
            if width == 2:
                m = (m1[0] + m2[0], m1[1] + m2[1])
            elif width == 3:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            elif width == 4:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            else:
                m = tuple(map(add, m1, m2))
            if m in out:
                out[m] += c1 * c2
            else:
                out[m] = c1 * c2


def terms_sub_into(ctx: FieldCtx, acc: dict, den: int, B: dict, dB: int, raw, mon: int):
    """Subtract raw * x^mon * B/dB from the int values ``acc`` over den in
    place, raw a nonzero raw coefficient; returns (den, the keys new to
    acc).  Keys are ints on which a monomial product is a sum, the packed
    monomials of :mod:`groebner`, its only caller.
    ``acc`` is the caller's own dict, never a stored one.

    Only the shifted keys of B are touched: each value is updated, a zero
    one deleted.  Over F_p each touched value is reduced mod p.  Over Q acc
    is rescaled only when the lcm of den and the denominator of raw * B/dB
    exceeds den, and gcd(den, all values) is divided out after, so the
    returned den is canonical for acc."""
    p = ctx.p
    if p is None:
        n, d = raw.numerator, raw.denominator
        step = d * dB
        D = den if den % step == 0 else lcm(den, step)
        if D != den:
            f = D // den
            for m, c in acc.items():
                acc[m] = c * f
        s = n * (D // step)
    else:
        D, s = 1, raw
    new = []
    for m, c in B.items():
        m += mon
        v = acc.get(m)
        if v is None:
            acc[m] = -s * c if p is None else -s * c % p
            new.append(m)
        elif v := (v - s * c if p is None else (v - s * c) % p):
            acc[m] = v
        else:
            del acc[m]
    if D != 1 and (g := gcd(D, *acc.values())) != 1:
        for m, c in acc.items():
            acc[m] = c // g
        D //= g
    return D, new


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


# the fused sums of products of other ring types, by the type of the first
# factor: :mod:`jring` registers the one of R and R[T] (see ``dot``)
FUSED_DOTS: dict = {}


def dot(pairs):
    """sum(a * b for a, b in pairs) in any ring type, None for no pairs.

    ``MPoly`` pairs are one accumulation over the lcm of the pair
    denominators, settled once by :func:`_products`, as ``terms_mul`` is.
    A type in FUSED_DOTS (the ring elements of :mod:`jring`) is given the
    pairs and the cutoff PACK_MIN_PAIRS and returns its fused sum, or None
    below the cutoff.  Otherwise ``dot`` keeps a running sum of ``*`` and
    ``+``, so small ring sums keep the key order of that composition."""
    pairs = list(pairs)
    if pairs:
        kind = type(pairs[0][0])
        if kind is MPoly:
            return _mpoly_dot(pairs)
        fused = FUSED_DOTS.get(kind)
        if fused is not None and (out := fused(pairs, PACK_MIN_PAIRS)) is not None:
            return out
    acc = None
    for a, b in pairs:
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def _mpoly_dot(pairs):
    """The fused sum of products of ``dot`` on MPoly pairs."""
    first = pairs[0][0]
    for a, b in pairs:
        first._ctx(a)
        ctx = a._ctx(b)
    live = [(a, b) for a, b in pairs if a.terms and b.terms]
    D = lcm(*(a.den * b.den for a, b in live))
    scaled = [(D // (a.den * b.den), a.terms, b.terms) for a, b in live]
    pairs = sum(len(A) * len(B) for _, A, B in scaled)
    return MPoly(ctx, first.vars, *_products(ctx, scaled, pairs, D))


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
        # parts of one ring share its PARTS tuple: the identity test settles them
        if self.vars is not other.vars and self.vars != other.vars:
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
