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
min(|A|, |B|).  Packing costs one interpreter step per term and unpacking
a few C passes per slot: ``_pack`` adds each value to its slot in one
list of slots offset by half their range, the index summed inline per key
width, and writes the list with one ``struct.pack`` (joined ``to_bytes``
past 8 bytes); the sum is offset the same way, read back by one
``struct.unpack`` from its lowest to its highest nonzero slot, and its
nonzero slots are picked and keyed by ``itertools`` in C.

An operand packed under the strides of the product's box is padded: in
the certificate checks of ``witness_boundary``, 55 terms in (x, y, z, T)
whose box holds 120 slots span 1183.  So a packed sum may split its
keys after a head of leading variables (the two-level route): each
operand is cut into one block per head, Kronecker-packed in the tail
variables only, the blocks are multiplied pair by pair into one int per
result head, and each result head is unpacked once.  Full packing is the
split with no head, and the dict loop the split with no tail.  Ring sums
(``fold``: keys x first, operands of x-degree at most 1) fold
x^2 = x - yz inside the packed integer before unpacking: the x^2 block
is contiguous, one addition puts it into the x block and one subtraction
into the x^0 block shifted by yz, the slot bound doubles and the box is
one wider in y and z.  The dict loop folds key by key (``fold_keys``).

``terms_mul`` and ``dot`` settle the route in one place, ``_products``,
by three guards, measured with CPython 3.11 on a 2-core x86-64 VM:
- The cutoff PACK_MIN_PAIRS = 1000 term pairs, counted over the products
  whose factors both have more than one term: a product with a one-term
  factor is linear work on the loop.  On the products of 100 pairs or
  more in corpora 0-1 of the ``group_roundtrip`` and ``witness_boundary``
  benchmark workloads, the loop won 251 of 312 below 300 pairs and
  packing all 88 from 1000 on, by about 2.6x.  With the narrower slots
  packing won 132 of 162 at 300-499 pairs and all 36 at 500-999 in
  corpora 0-2, but a cutoff of 500 would save about 4 ms in three
  corpora, below what the benchmark resolves.  In corpora 0-2 of both
  workloads (set-up included) the one-term count leaves 10 sums of
  ``group_roundtrip`` and 1 of ``witness_boundary`` below the cutoff,
  which had 1000 pairs or more in all: packed they took 5.8 and 0.5 ms,
  on the loop 4.3 and 0.3 ms.
- The slot range at most PACK_SLOTS_PER_PAIR = 1 times the pairs: it keeps
  a sparse product such as x^(10^6) * (...) on the loop and bounds the
  packed buffer by the loop's work.  Of the 309 sums past the cutoff in
  corpora 0-2 of both workloads (set-up included), all but one ``MPoly``
  sum of ``witness_boundary`` (1.10) have at most 0.96 slots per pair.
- The padded work (``padded_work``): a split after h head variables
  multiplies every block of A by every block of B, each as long as its
  operand's tail box under the product's strides.  ``_products`` takes
  the fewest head variables whose padded work is at most
  PACK_PAD_PER_PAIR = 24 times the pairs, and the dict loop when no split
  has.  The bound keeps the value of the operand-box guard it replaces,
  which compared box(A) * box(B) with the pairs: on the sums below the
  padding is 8.5-40 times that (median 8.7) in three variables and 13-75
  times (median 28) in four.  The census of the sums past the cutoff
  in corpora 0-2 (set-up included): of the 138 of ``witness_boundary``,
  3 pack in full, 23 split after x, 94 after (x, y) and 17 after
  (x, y, z), and the one above keeps to the loop; of the 171 of
  ``group_roundtrip``, 54 pack in full, 108 split after x and 9 after
  (x, y).  Best of 3 in process, they took 0.069 and 0.050 s, against
  0.063 and 0.047 s for the fastest route of each sum.  The doubled
  bound of the fold gives 8 bytes to 41 sums of ``group_roundtrip``
  (130 take 4) and to 7 of ``witness_boundary``, 16 to one (69 take 2,
  60 take 4).  Warm ``oplus(f, f)``, f = ``map 3 [1; 0 | 0; 1]``, splits
  its 8 sums after (x, y): over Q it took 9.4 ms against 16 ms with full
  packing and the key fold, over F_7 6.1 ms against 5.4 ms, its 1- and
  2-byte slots making full packing cheap although padded 110-250 times
  the pairs.  Cold ``n_pi(12, 16, 20)`` packs nothing over Q and F_7:
  its sums within the slot guard have a padded work of at least 55
  times the pairs at every split.  Packed, cold ``n_pi(24)`` over Q took
  8.0-8.5 s, against 0.74-0.80 s on the loop.
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
from itertools import chain, compress, islice, product, repeat
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import ContextMismatch
from .field import FieldCtx, FieldElem


# the three guards of ``_products``; the module docstring has the measurements
PACK_MIN_PAIRS = 1000
PACK_SLOTS_PER_PAIR = 1
PACK_PAD_PER_PAIR = 24


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


def _pack(A: dict, low: list, high: list, strides: list, nbytes: int) -> bytes:
    """The slots of A, little-endian: the value at key m sits in the
    nbytes-byte slot sum((m_v - low_v) * stride_v), every |value| below
    half the slot's range, and each slot holds its value plus half that
    range, so all are nonnegative.  The index is summed inline, one loop
    per key width of two to four (as in :func:`_mul_into`), and the slots
    are written out at once: one ``struct.pack`` up to 8 bytes, joined
    ``to_bytes`` past that."""
    base = sum(map(mul, low, strides))
    count = sum(map(mul, high, strides)) - base + 1
    slots = [1 << (8 * nbytes - 1)] * count
    width = len(strides)
    if width == 2:
        s0, s1 = strides
        for (i, j), c in A.items():
            slots[i * s0 + j * s1 - base] += c
    elif width == 3:
        s0, s1, s2 = strides
        for (i, j, k), c in A.items():
            slots[i * s0 + j * s1 + k * s2 - base] += c
    elif width == 4:
        s0, s1, s2, s3 = strides
        for (i, j, k, l), c in A.items():
            slots[i * s0 + j * s1 + k * s2 + l * s3 - base] += c
    else:
        for m, c in A.items():
            slots[sum(map(mul, m, strides)) - base] += c
    if nbytes <= 8:
        return struct.pack(f"<{count}{_SLOT_FORMATS[nbytes]}", *slots)
    return b"".join(v.to_bytes(nbytes, "little") for v in slots)


def _blocks(A: dict, low: list, high: list, strides: list, nbytes: int, head: int) -> dict:
    """A's terms grouped by their first ``head`` exponents, each group one
    int: {head index: block}.  A is packed once (:func:`_pack`) and cut
    every strides[head - 1] slots, the slots of one head of the product's
    box; each block keeps the span of A's tail box,
    sum((high_v - low_v) * stride_v) + 1 slots over the tail variables, and
    a block of no term is dropped.  Head 0 leaves one block, A itself."""
    raw = _pack(A, low, high, strides, nbytes)
    step = len(raw) if not head else strides[head - 1] * nbytes
    count = sum(map(mul, map(sub, high[head:], low[head:]), strides[head:])) + 1
    size = count * nbytes
    empty, halves = _half_bytes(nbytes, count), _halves(nbytes, count)
    chunks = (raw[i:i + size] for i in range(0, len(raw), step))
    return {h: int.from_bytes(b, "little") - halves for h, b in enumerate(chunks) if b != empty}


def _half_bytes(nbytes: int, count: int) -> bytes:
    """``count`` nbytes-byte slots that each hold half their range."""
    return (bytes(nbytes - 1) + b"\x80") * count


def _halves(nbytes: int, count: int) -> int:
    """The int of ``count`` nbytes-byte slots that each hold half their range."""
    return int.from_bytes(_half_bytes(nbytes, count), "little")


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


def _layout(products, box: dict, fold: bool):
    """(low, high, strides, fold) of the slots of a packed sum: the box of
    the products' exponents, the last variable with stride 1.  ``fold``
    stays only when x reaches 2; the box then starts at x^0 and is one
    wider in y and z, the room of x^2 -> x and x^2 -> yz."""
    low = [min(v) for v in zip(*(map(add, box[id(A)][0], box[id(B)][0]) for _, A, B in products))]
    high = [max(v) for v in zip(*(map(add, box[id(A)][1], box[id(B)][1]) for _, A, B in products))]
    fold = fold and high[0] == 2
    if fold:
        low[0] = 0
        high[1] += 1
        high[2] += 1
    spans = [h - l + 1 for l, h in zip(low, high)]
    return low, high, [prod(spans[v + 1:]) for v in range(len(spans))], fold


def padded_work(products, box: dict, strides: list, head: int) -> int:
    """What the packed multiplies of a sum split after ``head`` variables
    cost in slot pairs: over the products (s, A, B), the blocks of A times
    the blocks of B times their padded spans.  An operand has at most as
    many blocks as its box has heads, and a block spans its box's tail
    under the product's strides: with no head, 55 terms in (x, y, z, T)
    whose box holds 120 slots span 1183."""
    def work(X):
        low, high = box[id(X)]
        heads = prod(h - l + 1 for l, h in zip(low[:head], high[:head]))
        return heads * (sum(map(mul, map(sub, high[head:], low[head:]), strides[head:])) + 1)

    return sum(work(A) * work(B) for _, A, B in products)


def packed_sum(products, max_slots: int, box: dict | None = None, head: int = 0,
               fold: bool = False):
    """sum(s * A * B over (s, A, B) in products) as a dict of int sums, by
    Kronecker substitution (zero slots of the products dropped; the caller
    settles the sum); None when the slot range exceeds ``max_slots``.

    The slots cover the box of the products' exponents (:func:`_layout`).
    A slot is :func:`slot_bytes` of the bound
    sum(|s| * min(|A|_1 * max|b|, max|a| * |B|_1)) on its values, |A|_1 the
    sum of the absolute values of A: a slot of A * B adds at most one value
    of A times one of B per term of A.  Each operand is boxed (unless
    ``box`` has it by id), measured and cut into blocks once
    (:func:`_blocks`), however many products it enters.  The keys split
    after their first ``head`` exponents: a product is one big-int multiply
    per pair of blocks, added into the int of its result head, and each
    result head is unpacked once.  Head 0 is full packing, one multiply per
    product; the dict loop is the split with no tail.  Unpacking offsets
    every slot by half its range so the whole is nonnegative, writes it out
    by ``to_bytes``, keeps each head's slots from its lowest to its highest
    nonzero one and reads them back by one little-endian ``struct`` format
    (B, H, I or Q, words recombined past 8 bytes), whatever the host's
    byte order.

    ``fold`` is for ring sums (x first, operands of x-degree at most 1):
    the x^2 slots are folded by x^2 = x - yz before unpacking, one addition
    of the x^2 block into the x block and one subtraction into the x^0
    block shifted by yz, so a slot may hold two sums and the bound doubles
    (:func:`_fold_packed`)."""
    operands = {id(X): X for _, A, B in products for X in (A, B)}
    box = box or {key: _box(X) for key, X in operands.items()}
    low, high, strides, fold = _layout(products, box, fold)
    slots = strides[0] * (high[0] - low[0] + 1)
    if slots > max_slots:
        return None
    tail = strides[head - 1] if head else slots
    sizes = {}
    for key, X in operands.items():
        values = list(map(abs, X.values()))
        sizes[key] = max(values), sum(values)
    bound = 0
    for s, A, B in products:
        (top_a, norm_a), (top_b, norm_b) = sizes[id(A)], sizes[id(B)]
        bound += abs(s) * min(norm_a * top_b, top_a * norm_b)
    nbytes = slot_bytes(2 * bound if fold else bound)
    bits = 8 * nbytes
    blocks = {key: _blocks(X, *box[key], strides, nbytes, head) for key, X in operands.items()}
    sums = {}
    for s, A, B in products:
        offset = sum(map(mul, map(sub, map(add, box[id(A)][0], box[id(B)][0]), low), strides))
        h0, t0 = divmod(offset, tail)
        blocks_b = blocks[id(B)].items()
        for ha, xa in blocks[id(A)].items():
            xa = (s * xa) << (t0 * bits)
            for hb, xb in blocks_b:
                h = ha + hb + h0
                if h in sums:
                    sums[h] += xa * xb
                else:
                    sums[h] = xa * xb
    count = _fold_packed(sums, strides, head, bits) if fold else tail
    # a head is read from its lowest to its highest nonzero slot: the first
    # holds the lowest set bit of its int, the last its top bit
    runs = [(h, ((total & -total).bit_length() - 1) // bits, abs(total).bit_length() // bits + 1, total)
            for h, total in sums.items() if total]
    halves = _halves(nbytes, count)
    raw = b"".join((total + halves).to_bytes(count * nbytes, "little")[lo * nbytes:hi * nbytes]
                   for _, lo, hi, total in runs)
    used = len(raw) // nbytes
    if nbytes <= 8:
        slot_vals = struct.unpack(f"<{used}{_SLOT_FORMATS[nbytes]}", raw)
    else:
        words = nbytes // 8
        vals = struct.unpack(f"<{used * words}Q", raw)
        slot_vals = vals[words - 1::words]
        for j in range(words - 2, -1, -1):
            slot_vals = [(v << 64) | w for v, w in zip(slot_vals, vals[j::words])]
    heads = list(product(*(range(l, h + 1) for l, h in zip(low[:head], high[:head]))))
    tails = [range(l, h + 1) for l, h in zip(low[head:], high[head:])]
    keys = chain.from_iterable(
        islice(product(*((e,) for e in heads[h]), *tails), lo, hi) for h, lo, hi, _ in runs)
    half = 1 << (bits - 1)
    nonzero = bytes(map(half.__ne__, slot_vals))
    return dict(zip(compress(keys, nonzero), map(sub, compress(slot_vals, nonzero), repeat(half))))


def _fold_packed(sums: dict, strides: list, head: int, bits: int) -> int:
    """Fold the x^2 slots of a packed ring sum by x^2 = x - yz, in place,
    and return the slots each result head is unpacked from.  With no head
    the x^2 block is the top third of the one int, read off by a rounded
    shift (the slots below it sum to less than half its unit), added at
    the x block and subtracted at x^0 shifted by yz, and only the x^0 and
    x blocks are unpacked.  With a head, x is in it: each x^2 head is added
    into its x head and subtracted into its x^0 head, y and z moved in the
    head or, past it, by a shift of the block."""
    sx = strides[0]
    if not head:
        (total,) = sums.values()
        top_shift = 2 * sx * bits
        top = (total + (1 << (top_shift - 1))) >> top_shift
        sums[0] = (total - (top << top_shift) + (top << (sx * bits))
                   - (top << ((strides[1] + strides[2]) * bits)))
        return 2 * sx
    tail = strides[head - 1]
    hx = sx // tail
    hyz = sum(strides[v] // tail for v in (1, 2) if v < head)
    tyz = sum(strides[v] for v in (1, 2) if v >= head) * bits
    for h in [h for h in sums if h >= 2 * hx]:
        top = sums.pop(h)
        for to, v in ((h - hx, top), (h - 2 * hx + hyz, -(top << tyz))):
            sums[to] = sums[to] + v if to in sums else v
    return tail


def terms_mul(ctx: FieldCtx, A: dict, dA: int, B: dict, dB: int):
    """(terms, den) of the product of A/dA and B/dB, over dA * dB.

    One int loop sums the products and reduces once at the end.  With
    dA = dB = 1 the values come back as summed, with no gcd pass.
    :func:`_products` picks the dict loop or a packed route.
    """
    if not (A and B):
        return {}, 1
    return settled(ctx, _products([(1, A, B)], _pair_work(A, B)), dA * dB)


def _pair_work(A: dict, B: dict) -> int:
    """The term pairs of A * B, or 0 when a factor has one term: such a
    product is linear work on the dict loop, and packing cannot beat it."""
    return len(A) * len(B) if len(A) > 1 < len(B) else 0


def _products(scaled: list, pairs: int, fold: bool = False) -> dict:
    """sum(s * A * B over (s, A, B) in scaled) as a new dict of int sums,
    unsettled, A and B nonempty, ``pairs`` the term pairs of the products
    with no one-term factor (:func:`_pair_work`).  From PACK_MIN_PAIRS
    pairs on, when the slot range is at most PACK_SLOTS_PER_PAIR times
    ``pairs``, one :func:`packed_sum` split after the fewest head variables
    whose :func:`padded_work` is at most PACK_PAD_PER_PAIR times ``pairs``;
    else the dict loop of :func:`_mul_into` (the products in order).
    ``fold`` folds the x^2 keys of a ring sum, in the packed integer or,
    after the loop, by :func:`fold_keys`."""
    if pairs >= PACK_MIN_PAIRS:
        box = {id(X): _box(X) for X in {id(X): X for _, A, B in scaled for X in (A, B)}.values()}
        low, high, strides, _ = _layout(scaled, box, fold)
        if strides[0] * (high[0] - low[0] + 1) <= pairs * PACK_SLOTS_PER_PAIR:
            for head in range(len(strides)):
                if padded_work(scaled, box, strides, head) <= PACK_PAD_PER_PAIR * pairs:
                    return packed_sum(scaled, pairs * PACK_SLOTS_PER_PAIR, box, head, fold)
    out = {}
    for s, A, B in scaled:
        _mul_into(out, A, B, s)
    return fold_keys(out) if fold else out


def fold_keys(acc: dict) -> dict:
    """``acc`` with each x^2 key folded by x^2 = x - yz, in place: keys of
    x-degree at most 2, x first."""
    for m in [m for m in acc if m[0] == 2]:
        c = acc.pop(m)
        high, low = (1,) + m[1:], (0, m[1] + 1, m[2] + 1) + m[3:]
        acc[high] = acc.get(high, 0) + c
        acc[low] = acc.get(low, 0) - c
    return acc


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


def sum_of_scaled(products, fold: bool = False) -> tuple[dict, int]:
    """(acc, D): sum(s * A/dA * B/dB over (s, A, dA, B, dB) in products) as
    a new dict of int sums over D, unsettled: the products with an empty
    factor dropped, the others put over the lcm D of the dA * dB and summed
    by one :func:`_products`, ``fold`` folding the x^2 keys of a ring sum."""
    products = [(s, A, dA, B, dB) for s, A, dA, B, dB in products if A and B]
    if not products:
        return {}, 1
    D = lcm(*(dA * dB for _, _, dA, _, dB in products))
    scaled = [(s * (D // (dA * dB)), A, B) for s, A, dA, B, dB in products]
    return _products(scaled, sum(_pair_work(A, B) for _, A, B in scaled), fold), D


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
