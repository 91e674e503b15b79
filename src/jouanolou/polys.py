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
Groebner reduction and the second half of its S-polynomial) are the only sparse add/sub/mul loops, and
``sum_of_scaled`` the one unsettled sum of products.  ``MPoly`` is the one
sparse polynomial class; the ring elements of :mod:`jring` are ``MPoly``
subclasses, and every result of its arithmetic is built as its operand's
type by ``MPoly._of``.  Over Q, ``canonical`` divides a result by
gcd(den, all values) in one pass, so the kernel returns canonical pairs
when given canonical ones.  Stored term dicts are never written after
construction: a result may share its dict with an operand (``terms_add``
returns A itself when B is empty).  ``common_ctx`` is the single check
that operands share a field.  ``power`` is the one square-and-multiply,
``eval_terms`` the one power-cached evaluation of a term dict (summed
pairwise), ``dot`` the one sum of products.

Large products are one big-integer multiply (Kronecker substitution;
Fateman 2005, Harvey 2009): ``packed_sum`` maps every key to one slot in
the box of the exponents, multiplies the packed operands and unpacks once.
A slot is only as wide as the sum it must hold (``slot_bytes``): 1, 2, 4
or 8 bytes, whole 64-bit words past that.  CPython multiplies in about
length^1.585 (Karatsuba), so a narrower slot is a cheaper multiply.  The
bound on a slot of A * B is min(|A|_1 * max|b|, max|a| * |B|_1), |A|_1 the
sum of A's absolute values: rigorous (each term of A meets at most one
term of B in a slot) and never above the older max|a| * max|b| *
min(|A|, |B|).  In corpora 0-2 of the benchmark workloads (set-up
included) it gives 8 bytes to 58 of the 205 packed sums of
``group_roundtrip`` (75 under the older bound; 144 take 4) and to 7 of the
138 of ``witness_boundary`` (11; 72 take 2, mostly F_7), and the one
16-byte sum of a warm ``oplus(f, f)``, f = ``map 3 [1; 0 | 0; 1]`` over Q,
takes 8.  Packing costs one interpreter step per term and unpacking one
per slot, the rest is C: ``_pack`` adds each value to its slot in one list
of slots offset by half their range, writes the list with one
``struct.pack`` (joined ``to_bytes`` past 8 bytes) and subtracts the
pattern of offsets once; the sum is offset the same way and read back by
one ``struct.unpack``.

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
  packed buffer by the loop's work.  Of the 344 sums of 1000 pairs or more
  in corpora 0-2 of both workloads (set-up included), all but one
  ``MPoly`` sum (1.05) have at most 0.88 slots per pair.
- The operand boxes: a packed multiply costs box(A) * box(B) slots, so
  ``_products`` declines r = sum(box(A) * box(B)) / pairs above
  PACK_BOX_PER_PAIR = 24.  The census of the sums of 1000 pairs or more,
  their operands the stored ring elements (x spans 2 in an operand, 3 in a
  product): corpora 0-2 of both workloads have r = 2.07-16.8 and all pack
  but the sum above; an ``oplus`` chain to degree 6 has r = 2.5-16.0 over
  Q and F_7 and packs; warm ``oplus(f, f)`` of ``map 3 [1; 0 | 0; 1]`` packs
  12 of 12 sums over Q (r up to 17.8) and 10 of 12 over F_7 (r up to 23.0;
  the other two have r = 53-55), which a cutoff of 16 left on the loop,
  taking 36-37 ms over Q and 21-25 ms over F_7 against 30-31 and
  9.5-10 ms at 24.  Cold ``n_pi(12, 16, 20)`` packs nothing: its sums
  fill little of their boxes, r = 9.8-350 over Q and F_7, and every one
  with r at most 24 has at least 5.1 slots per pair, so the slot guard
  declines it too; those within the slot guard have r of 55 or more.
  Packed, cold ``n_pi(24)`` over Q took 8.0-8.5 s, against 0.74-0.80 s on
  the loop.
``dot`` is one ``_products`` call per result polynomial at every size:
on ``MPoly`` pairs (the certificate checks and cofactor weights of
:mod:`groebner`) and on a sum of ring elements of R and R[T].
The dict loop stays as the small-product path and as the tests' oracle.
Large products and large sums come back in slot order, not the loop's, and
no result depends on key order: printing sorts, and ``realize`` reads the
terms in sorted key order.

Raw coefficients (``Fraction`` over Q, int over F_p) cross only at the
boundary: ``cleared`` puts a dict of them into the stored form (the
constructors call it when given no ``den``), and ``raw_coeff`` turns a
stored value back into one (leading coefficients, printing, field
elements).

``MPoly`` is the substrate for the Buchberger engine, for parsing and for
the device's ring elements: polynomials in a free commutative polynomial
ring with a fixed ordered variable tuple.  The monomial order everywhere
is degrevlex with the variable tuple ordered from greatest to least.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import ContextMismatch
from .field import FieldCtx, FieldElem


# the three guards of ``_products``; the module docstring has the measurements
PACK_MIN_PAIRS = 1000
PACK_SLOTS_PER_PAIR = 1
PACK_BOX_PER_PAIR = 24


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
    sum((m_v - low_v) * stride_v), every |value| below half the slot's
    range.  Each slot holds its value plus half that range, so all are
    nonnegative; they are written out at once (one ``struct.pack`` up to 8
    bytes, joined ``to_bytes`` past that) and the pattern of halves is
    subtracted once from the int read back."""
    base = sum(map(mul, low, strides))
    count = sum(map(mul, high, strides)) - base + 1
    half = 1 << (8 * nbytes - 1)
    slots = [half] * count
    for m, c in A.items():
        slots[sum(map(mul, m, strides)) - base] += c
    if nbytes <= 8:
        raw = struct.pack(f"<{count}{_SLOT_FORMATS[nbytes]}", *slots)
    else:
        raw = b"".join(v.to_bytes(nbytes, "little") for v in slots)
    return int.from_bytes(raw, "little") - _halves(nbytes, count)


def _halves(nbytes: int, count: int) -> int:
    """The int of ``count`` nbytes-byte slots that each hold half their range."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")


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


def packed_sum(products, max_slots: int, box: dict | None = None):
    """sum(s * A * B over (s, A, B) in products) as a dict of int sums, by
    Kronecker substitution (zero slots of the products dropped; the caller
    settles the sum); None when the slot range exceeds ``max_slots``.

    The slots cover the box of the products' exponents, the last variable
    with stride 1.  A slot is :func:`slot_bytes` of the bound
    sum(|s| * min(|A|_1 * max|b|, max|a| * |B|_1)) on its values, |A|_1 the
    sum of the absolute values of A: a slot of A * B adds at most one value
    of A times one of B per term of A.  Each operand is boxed (unless
    ``box`` has it by id), measured and packed once, however many products
    it enters (:func:`_pack`); each product is one big-int multiply shifted
    to its place, and the sum is unpacked once: every slot is offset by
    half its range so the whole is nonnegative, written out by ``to_bytes``
    and read back by one little-endian ``struct`` format (B, H, I or Q,
    words recombined past 8 bytes), whatever the host's byte order."""
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
    sizes = {}
    for key, X in operands.items():
        values = list(map(abs, X.values()))
        sizes[key] = max(values), sum(values)
    bound = 0
    for s, A, B in products:
        (top_a, norm_a), (top_b, norm_b) = sizes[id(A)], sizes[id(B)]
        bound += abs(s) * min(norm_a * top_b, top_a * norm_b)
    nbytes = slot_bytes(bound)
    bits = 8 * nbytes
    packed = {key: _pack(X, *box[key], strides, nbytes) for key, X in operands.items()}
    total = 0
    for s, A, B, la, ha, lb, hb in boxes:
        shift = sum(map(mul, map(sub, map(add, la, lb), low), strides)) * bits
        total += (s * packed[id(A)] * packed[id(B)]) << shift
    half = 1 << (bits - 1)
    total += _halves(nbytes, slots)
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
    return {m: v - half for m, v in zip(keys, slot_vals) if v != half}


def terms_mul(ctx: FieldCtx, A: dict, dA: int, B: dict, dB: int):
    """(terms, den) of the product of A/dA and B/dB, over dA * dB.

    One int loop sums the products and reduces once at the end.  With
    dA = dB = 1 the values come back as summed, with no gcd pass.
    :func:`_products` picks the dict loop or one packed multiply.
    """
    if not (A and B):
        return {}, 1
    return settled(ctx, _products([(1, A, B)], len(A) * len(B)), dA * dB)


def _products(scaled: list, pairs: int) -> dict:
    """sum(s * A * B over (s, A, B) in scaled) as a new dict of int sums,
    unsettled, A and B nonempty, ``pairs`` the term pairs in all: one
    :func:`packed_sum` from PACK_MIN_PAIRS pairs on, when the operand boxes
    (:func:`_box_work`) are at most PACK_BOX_PER_PAIR times ``pairs`` and
    the slot range at most PACK_SLOTS_PER_PAIR times, else the dict loop of
    :func:`_mul_into` (the products in order)."""
    if pairs >= PACK_MIN_PAIRS:
        work, box = _box_work(scaled)
        if work <= PACK_BOX_PER_PAIR * pairs:
            out = packed_sum(scaled, pairs * PACK_SLOTS_PER_PAIR, box)
            if out is not None:
                return out
    out = {}
    for s, A, B in scaled:
        _mul_into(out, A, B, s)
    return out


def _box_work(scaled: list) -> tuple[int, dict]:
    """(sum(box(A) * box(B)) over the products (s, A, B), what the packed
    multiplies cost, box(X) the slots of the box of X's exponents; and
    ``_box`` of each operand by id, for :func:`packed_sum`)."""
    box = {id(X): _box(X) for X in {id(X): X for _, A, B in scaled for X in (A, B)}.values()}
    slots = {key: prod(h - l + 1 for l, h in zip(*b)) for key, b in box.items()}
    return sum(slots[id(A)] * slots[id(B)] for _, A, B in scaled), box


def _mul_into(out: dict, A: dict, B: dict, s: int = 1) -> None:
    """Add the int products s * A * B into ``out`` in place, unsettled.
    Exponent vectors of two to four entries are added inline, in a loop
    picked once per call by the key width: the elements of R and R[T] (keys
    (x, y, z) and (x, y, z, T)), and ``MPoly`` in two to four variables
    (certificate checks, cofactor expansions and the Groebner engine's
    inputs).  Every loop runs A's terms outside and B's inside, so the keys
    of ``out`` come in one order whatever the width."""
    width = len(next(iter(A)))
    B = B.items()
    if width == 2:
        for (i1, j1), c1 in A.items():
            if s != 1:
                c1 *= s
            for (i2, j2), c2 in B:
                m = (i1 + i2, j1 + j2)
                if m in out:
                    out[m] += c1 * c2
                else:
                    out[m] = c1 * c2
    elif width == 3:
        for (i1, j1, k1), c1 in A.items():
            if s != 1:
                c1 *= s
            for (i2, j2, k2), c2 in B:
                m = (i1 + i2, j1 + j2, k1 + k2)
                if m in out:
                    out[m] += c1 * c2
                else:
                    out[m] = c1 * c2
    elif width == 4:
        for (i1, j1, k1, l1), c1 in A.items():
            if s != 1:
                c1 *= s
            for (i2, j2, k2, l2), c2 in B:
                m = (i1 + i2, j1 + j2, k1 + k2, l1 + l2)
                if m in out:
                    out[m] += c1 * c2
                else:
                    out[m] = c1 * c2
    else:
        for m1, c1 in A.items():
            if s != 1:
                c1 *= s
            for m2, c2 in B:
                m = tuple(map(add, m1, m2))
                if m in out:
                    out[m] += c1 * c2
                else:
                    out[m] = c1 * c2


def terms_sub_into(ctx: FieldCtx, acc: dict, den: int, B: dict, dB: int, raw, mon: int):
    """Subtract raw * x^mon * B/dB from the int values ``acc`` over den in
    place, raw a nonzero raw coefficient; returns (den, the keys new to
    acc).  Keys are ints on which a monomial product is a sum, the packed
    monomials of :mod:`groebner`, its only caller, at two sites: each
    reduction step, and each S-polynomial, whose acc is the shifted,
    scaled copy of its first element.  ``acc`` is the caller's own dict,
    never a stored one; the values of acc need not be canonical over den.

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


def dot(pairs):
    """sum(a * b for a, b in pairs), None for no pairs: the
    ``sum_of_products`` of the first factor's type (``MPoly``, or the ring
    elements of :mod:`jring`), one accumulation per result polynomial."""
    pairs = list(pairs)
    return type(pairs[0][0]).sum_of_products(pairs) if pairs else None


def sum_of_scaled(products) -> tuple[dict, int]:
    """(acc, D): sum(s * A/dA * B/dB over (s, A, dA, B, dB) in products) as
    a new dict of int sums over D, unsettled: the products with an empty
    factor dropped, the others put over the lcm D of the dA * dB and summed
    by one :func:`_products`."""
    products = [(s, A, dA, B, dB) for s, A, dA, B, dB in products if A and B]
    if not products:
        return {}, 1
    D = lcm(*(dA * dB for _, _, dA, _, dB in products))
    scaled = [(s * (D // (dA * dB)), A, B) for s, A, dA, B, dB in products]
    return _products(scaled, sum(len(A) * len(B) for _, A, B in scaled)), D


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
        # polynomials of one ring share its vars tuple: the identity test settles them
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError("polynomials from different rings")
        return common_ctx(self.ctx, other.ctx)

    def _of(self, ctx: FieldCtx, terms: dict, den: int):
        """The stored (terms, den) as a polynomial of self's type and ring:
        every result of the arithmetic below is built here."""
        out = object.__new__(type(self))
        out.ctx, out.vars, out.terms, out.den = ctx, self.vars, terms, den
        return out

    # arithmetic -------------------------------------------------------------
    def __add__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        return self._of(ctx, *terms_add(ctx, self.terms, self.den, other.terms, other.den))

    def __sub__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        return self._of(ctx, *terms_add(ctx, self.terms, self.den, other.terms, other.den, True))

    def __neg__(self) -> "MPoly":
        return self._of(self.ctx, terms_neg(self.ctx, self.terms), self.den)

    def __mul__(self, other: "MPoly") -> "MPoly":
        ctx = self._ctx(other)
        return self._of(ctx, *terms_mul(ctx, self.terms, self.den, other.terms, other.den))

    @classmethod
    def sum_of_products(cls, pairs) -> "MPoly":
        """The fused sum of products of :func:`dot` on MPoly pairs."""
        first = pairs[0][0]
        for a, b in pairs:
            first._ctx(a)
            ctx = a._ctx(b)
        products = [(1, a.terms, a.den, b.terms, b.den) for a, b in pairs]
        return first._of(ctx, *settled(ctx, *sum_of_scaled(products)))

    def scale(self, c) -> "MPoly":
        """c * self, c a raw value or an element of the same field."""
        if isinstance(c, FieldElem):
            common_ctx(self.ctx, c.ctx)
            c = c.val
        return self._of(self.ctx, *terms_scale(self.ctx, self.terms, self.den, c))

    def mul_term(self, mon: tuple[int, ...], raw) -> "MPoly":
        return self._of(self.ctx, *terms_scale(self.ctx, self.terms, self.den, raw, mon))

    def __pow__(self, e: int) -> "MPoly":
        return power(self, e, self._of(self.ctx, {(0,) * len(self.vars): 1}, 1))

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
