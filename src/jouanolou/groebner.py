"""Ideal membership with cofactor certificates via extended Buchberger.

Problems live in k[x,y,z] or k[x,y,z,T]; the quotient relation
x^2 - x + yz can be adjoined as an extra generator so that membership
modulo the device's coordinate ring is decided in the free polynomial
ring.  A successful membership test returns cofactors that are re-verified
by independent expansion before being handed out.

A caller that needs only the decision (the homotopy verifier, on a
segment without a certificate) asks for ``cofactors=False``.  The engine
runs the same steps, and the run ends by checking its own derivation
instead of expanding it: every basis element the answer rests on must
equal its recorded line, an input generator, or its S-pair multiples
less its reduction quotients, each line one exact equality of
tuple-keyed ``MPoly`` sums whose references point to earlier elements
only.  Then the target equals its quotients times the basis, or the
constant found is nonzero, so the answer is certified as strictly as by
re-expansion (a checker simpler than the algorithm, McConnell, Mehlhorn,
Naeher & Schweitzer, *Certifying algorithms*, 2011).  Expanded cofactors
grow with every level of the derivation, while a line stays the size of
the reduction that made it: over the 59 decisions of the benchmark's
``witness_boundary`` corpora 0-2 the check took 0.028 s, where expanding
and re-expanding the cofactors took 0.121 s (CPython 3.11, 2-core
x86-64 VM).  The cofactors of such a certificate are built, and
re-verified, on first read.

Cofactors are kept as history, not carried through the completion.  Each
basis element records how it was made: an input generator its index, an
S-pair remainder its two parents with their monomial multipliers and the
quotients of its reduction, one raw term dict per basis element the
reduction subtracted.  Only when a certificate is needed (a constant lands
in the basis, or the target reduces to zero) are the expressions in the
input generators expanded, for the elements the certificate depends on
only, by reverse accumulation (Griewank & Walther, *Evaluating
Derivatives*, ch. 3): one weight polynomial per element, walked in
decreasing basis index, since parents and divisors always precede the
element they make.  A long derivation costs no recursion, each weight is
one fused sum of products, and the weights of the input generators are the
cofactors, each the same sum over derivation paths as a forward expansion.
A refuted or undecided run expands nothing.

The reduction consumes the dict it is given as its remainder and subtracts
each reducer from it in place, touching only the reducer's terms; it finds
each leading monomial by popping a heap of the remainder's monomials, and
an entry whose monomial has left the remainder is skipped.  Each basis
element keeps the inverse of its leading coefficient, so a step's quotient
coefficient is one product (one ``Fraction`` over Q), and a remainder term
becomes a raw coefficient only when it moves to the normal form.  An
S-polynomial is built the same way: x^mi * f_i / lc(f_i) as one shifted
dict of ints, from which x^mj * f_j / lc(f_j) is subtracted in place.  A
pair whose leading monomials share no variable (disjoint support bitmasks)
is never queued, since its S-polynomial reduces to zero.  The monomial
order is degrevlex with x > y > z > T throughout; pair selection is by
smallest lcm and the divisor is the first basis element whose leading
monomial divides, so identical inputs yield identical certificates.  The
basis only grows, so that first divisor among basis[:k] never changes: one
run keeps a memo of it per monomial, and a monomial with no divisor among
the first k elements is later probed against basis[k:] only.  The step
budget is spent once per reduction step.  Every generator must share the
target's field and variables, checked before any step.

Monomials are packed exponent vectors (Monagan & Pearce, CASC 2007): the
engine packs each generator and the target once, and unpacks only the
multipliers and quotients of the certificate it expands.  The key of
(e1, ..., en), variables greatest first, holds the FIELD_BITS-bit fields
(d, e1+...+e(n-1), ..., e1+e2, e1) from the top, d the total degree.  Int
order is then degrevlex: the degrees compare first; at equal degree
d - en is larger where en is smaller, then, at equal en, d - en - e(n-1)
where e(n-1) is smaller, and so on, which is ``drl_key`` order.  Every
field is linear in the exponents, so a monomial product is a key sum, a
quotient of a divisible pair a key difference, and a leading monomial
``max(keys)``.  The divisor test alone compares exponents, by one
subtraction per basis element: each element caches its leading exponents
in GUARD_BITS-wide fields (``guarded``), each field's top bit clear, and a
run spreads a monomial the same way at most once, with every top bit set.
Subtracting a divisor's fields from those clears a top bit exactly where
the divisor's exponent is the larger, and no borrow crosses a field, so
"divides" is "every top bit survives".

No field carries into the next: a field is at most the degree, and every
degree stays at most MAX_DEGREE.  Packing refuses a generator or target of
larger degree, and each lcm's degree is checked before its pair is queued
(``DegreeOverflow``, an undecided outcome).  Degrevlex is degree-compatible,
so every monomial of an S-polynomial has at most its lcm's degree, and a
reduction step shifts the reducer's terms to at most the degree of the
remainder's leading monomial, which never rises.  ``Certificate.verify``
stays on the tuple-keyed ``MPoly`` arithmetic, so the independent re-check
shares no code with this key layout.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import BudgetExceeded, DegreeOverflow
from .field import FieldCtx, ascii_int
from .polys import MPoly, cleared, dot, raw_coeff, terms_sub_into

DEFAULT_BUDGET = 10**6
FIELD_BITS = 32
MAX_DEGREE = (1 << FIELD_BITS) - 1
# a field of the divisor test: an exponent, at most MAX_DEGREE, and a guard bit
GUARD_BITS = FIELD_BITS + 1


def step_budget() -> int:
    raw = os.environ.get("JOU_STEP_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    n = ascii_int(raw, signed=False)
    if n is None:
        raise ValueError(f"JOU_STEP_BUDGET must be a nonnegative integer, got {raw!r}")
    return n


def pack(exp: tuple[int, ...]) -> int:
    """The engine key of an exponent vector; DegreeOverflow past MAX_DEGREE."""
    key = d = 0
    for k, e in enumerate(exp):
        d += e
        key |= d << (FIELD_BITS * k)
    if d > MAX_DEGREE:
        raise DegreeOverflow(f"monomial degree {d} exceeds the engine's {MAX_DEGREE}")
    return key


def unpack(key: int, n: int) -> tuple[int, ...]:
    """The exponent vector of n variables whose engine key is ``key``."""
    exp, below = [], 0
    for k in range(n):
        d = key >> (FIELD_BITS * k) & MAX_DEGREE
        exp.append(d - below)
        below = d
    return tuple(exp)


def guarded(key: int, n: int) -> int:
    """The exponents of the engine key ``key`` of n variables, the first
    lowest, in GUARD_BITS-wide fields with their guard bits clear."""
    out = below = 0
    for k in range(n):
        d = key >> (FIELD_BITS * k) & MAX_DEGREE
        out |= (d - below) << (GUARD_BITS * k)
        below = d
    return out


@cache
def guard_mask(n: int) -> int:
    """The guard bits of n GUARD_BITS-wide fields: with ``a`` and ``b`` from
    :func:`guarded`, b's monomial divides a's iff
    ((a | guards) - b) & guards == guards."""
    return sum(1 << (GUARD_BITS * k + FIELD_BITS) for k in range(n))


def relation_poly(ctx: FieldCtx, vars: tuple[str, ...]) -> MPoly:
    """The defining relation x^2 - x + yz in the free polynomial ring."""
    x = MPoly.var(ctx, vars, "x")
    y = MPoly.var(ctx, vars, "y")
    z = MPoly.var(ctx, vars, "z")
    return x * x - x + y * z


@dataclass
class IdealProblem:
    generators: list[MPoly]
    target: MPoly
    include_relation: bool = False

    def all_generators(self) -> list[MPoly]:
        gens = list(self.generators)
        if self.include_relation:
            gens.append(relation_poly(self.target.ctx, self.target.vars))
        return gens


class Certificate:
    """Cofactors with sum(cofactors[i] * generators[i]) == target; one per
    generator plus one for the relation when it was adjoined.

    ``cofactors`` is given as a list or as a zero-argument builder of one,
    which runs on the first read of the property, once, and is kept."""

    __slots__ = ("problem", "_cofactors")

    def __init__(self, problem: IdealProblem, cofactors):
        self.problem = problem
        self._cofactors = cofactors

    @property
    def cofactors(self) -> list[MPoly]:
        if callable(self._cofactors):
            self._cofactors = self._cofactors()
        return self._cofactors

    def verify(self) -> bool:
        gens = self.problem.all_generators()
        if len(gens) != len(self.cofactors):
            return False
        return dot(zip(self.cofactors, gens)) == self.problem.target

    @property
    def generator_cofactors(self) -> list[MPoly]:
        return self.cofactors[: len(self.problem.generators)]


class _Tracked:
    """A basis element, ``terms``/``den`` on engine keys, and its origin:
    the index of the input generator it is, or (multiples, quotients) for
    the element sum(c * x^m * basis[k] over (k, m, c) in multiples)
    - sum(quotients[k] * basis[k]), m a key and quotients holding raw term
    dicts on keys.  ``lm`` is the leading key, ``exp`` its exponents,
    ``div`` them in guard-bit fields, for the divisor test, and ``supp``
    the bitmask of the variables in it, for the coprime test; ``lc`` is the
    raw leading coefficient and ``inv`` its inverse."""

    __slots__ = ("terms", "den", "origin", "lm", "exp", "div", "supp", "lc", "inv")

    def __init__(self, ctx: FieldCtx, n: int, terms: dict, den: int, origin):
        self.terms, self.den, self.origin = terms, den, origin
        self.lm = max(terms)
        self.exp = unpack(self.lm, n)
        self.div = guarded(self.lm, n)
        self.supp = sum(1 << k for k, e in enumerate(self.exp) if e)
        self.lc = raw_coeff(ctx, terms[self.lm], den)
        self.inv = ctx.rinv(self.lc)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("groebner step budget exhausted (raise JOU_STEP_BUDGET)")


def _reduce_tracked(ctx: FieldCtx, n: int, terms: dict, den: int, basis: list[_Tracked],
                    budget: _Budget, memo: dict | None = None):
    """Full normal form of terms/den (engine keys, n variables) modulo the
    basis, and the quotients: ((normal terms, den), quotients) with
    terms/den == normal + sum(quotients[k] * basis[k]), quotients mapping the
    index of every basis element a step subtracted to a dict of raw
    coefficients, one term per such step.

    ``terms`` is consumed: it becomes the remainder, one dict of values
    over a running denominator.  An irreducible leading term leaves it for
    the normal form, as a raw coefficient, and a step subtracts the reducer
    in place (``terms_sub_into``), touching only the reducer's terms and
    pushing the keys new to the remainder on a heap of negated keys.  A
    step's quotient coefficient is the remainder's leading value times the
    reducer's ``inv``, one ``Fraction`` over Q.

    ``memo`` holds first divisors, valid while the basis only grows: at a
    key m, k >= 0 is the index of the first element whose leading monomial
    divides m, and ~k says that none of basis[:k] does, with m's
    guard-bit fields at key ~m (a negative int, no monomial's key), so the
    next probe of m scans basis[k:] only and spreads m no more.  A missing
    entry reads ~0.  Without a memo the call keeps its own."""
    if memo is None:
        memo = {}
    p = ctx.p
    tail = {}  # raw coefficients of the irreducible leading terms
    quotients: dict[int, dict] = {}
    heap = [-m for m in terms]
    heapq.heapify(heap)
    guards = guard_mask(n)
    size = len(basis)
    while heap:
        lm = -heapq.heappop(heap)
        c = terms.get(lm)
        if c is None:
            continue  # cancelled since it was pushed
        k = memo.get(lm, -1)
        if k < 0 and (k := ~k) < size:
            probe = memo.get(~lm)
            if probe is None:
                probe = guarded(lm, n) | guards
            for k in range(k, size):
                if (probe - basis[k].div) & guards == guards:  # it divides lm
                    memo[lm] = k
                    break
            else:
                memo[lm], memo[~lm] = ~size, probe
                k = size
        if k >= size:
            tail[lm] = raw_coeff(ctx, terms.pop(lm), den)
            continue
        hit = basis[k]
        budget.spend()
        qmon = lm - hit.lm
        if p is None:
            qc = Fraction(c * hit.inv.numerator, den * hit.inv.denominator)
        else:
            qc = c * hit.inv % p
        quotients.setdefault(k, {})[qmon] = qc
        den, new = terms_sub_into(ctx, terms, den, hit.terms, hit.den, qc, qmon)
        for m in new:  # below lm, and kept
            heapq.heappush(heap, -m)
    return cleared(ctx, tail), quotients


def _expand(basis: list[_Tracked], origin, n: int, ctx: FieldCtx, vars) -> list[MPoly]:
    """The expression in the n input generators of the element ``origin``
    makes, as n cofactors on exponent tuples, by reverse accumulation.

    Each basis element the origin depends on gets one weight, its
    coefficient in the expression.  The walk runs from the highest index
    down, so an element's weight is complete before it passes to its
    parents and divisors, whose indices are lower; each weight is one
    ``dot`` of its pending (multiplier or -quotient, child weight) pairs,
    and the weights of the generators are the cofactors."""
    cofactors = [MPoly.zero(ctx, vars)] * n
    if isinstance(origin, int):
        cofactors[origin] = MPoly.const(ctx, vars, ctx.rone)
        return cofactors
    pending: dict[int, list] = {}
    nvars = len(vars)

    def pass_on(orig, weight):
        multiples, quotients = orig
        for k, mon, c in multiples:
            pending.setdefault(k, []).append((MPoly(ctx, vars, {unpack(mon, nvars): c}), weight))
        for k, q in quotients.items():
            minus_q = MPoly(ctx, vars, {unpack(m, nvars): -c for m, c in q.items()})
            pending.setdefault(k, []).append((minus_q, weight))

    pass_on(origin, MPoly.const(ctx, vars, ctx.rone))
    for k in range(len(basis) - 1, -1, -1):
        if k not in pending:
            continue
        weight = dot(pending.pop(k))
        if weight.is_zero:
            continue
        orig = basis[k].origin
        if isinstance(orig, int):
            cofactors[orig] = weight
        else:
            pass_on(orig, weight)
    return cofactors


_REFUSED = "internal: certificate failed independent re-verification"


def _check_derivation(basis: list[_Tracked], origin, value: MPoly, gens: list[MPoly]) -> None:
    """Check that ``value`` is the element ``origin`` makes, and every line
    of the derivation it rests on; AssertionError at the first that fails.

    A line is the origin of one basis element, read as the engine records
    it: an input generator's index, whose generator the element must
    equal, or (multiples, quotients), for an element that must equal
    sum(c * x^m * basis[k]) - sum(quotients[k] * basis[k]), where every k
    indexes an earlier element (for ``origin``, any element), so no line
    rests on itself.  Each line is one ``dot`` on exponent tuples, the
    engine's keys unpacked, and each element is checked once."""
    ctx, vars = value.ctx, value.vars
    nvars = len(vars)
    exps: dict[int, tuple] = {}
    elements: dict[int, MPoly] = {}

    def on_tuples(terms: dict, den: int | None = None) -> MPoly:
        out = {}
        for m, c in terms.items():
            e = exps.get(m)
            if e is None:
                e = exps[m] = unpack(m, nvars)
            out[e] = c
        return MPoly(ctx, vars, out, den)

    todo = [(origin, value, len(basis))]
    while todo:
        origin, value, bound = todo.pop()
        if isinstance(origin, int):
            if not 0 <= origin < len(gens) or value != gens[origin]:
                raise AssertionError(_REFUSED)
            continue
        multiples, quotients = origin
        pairs = [(on_tuples({m: c}), k) for k, m, c in multiples]
        pairs += [(on_tuples({m: ctx.rneg(c) for m, c in q.items()}), k)
                  for k, q in quotients.items()]
        for _, k in pairs:
            if not 0 <= k < bound:
                raise AssertionError(_REFUSED)
            if k not in elements:
                tr = basis[k]
                elements[k] = on_tuples(tr.terms, tr.den)
                todo.append((tr.origin, elements[k], k))
        made = dot((a, elements[k]) for a, k in pairs) or MPoly.zero(ctx, vars)
        if made != value:
            raise AssertionError(_REFUSED)


def express_in_ideal(problem: IdealProblem, budget: int | None = None, *,
                     cofactors: bool = True) -> Certificate | None:
    """Decide membership of the target; return a verified certificate or None.

    Exact decision: Buchberger completion then reduction of the target to
    normal form (zero iff member).  Constant targets short-circuit as soon
    as a constant lands in the basis.  DegreeOverflow when a degree would
    pass MAX_DEGREE.

    With ``cofactors`` (the default) the certificate's cofactors are
    expanded from the derivation at once and re-verified by expanding
    sum(cofactors[i] * generators[i]) against the target.  Without, the
    same run is certified by checking its derivation line by line
    (:func:`_check_derivation`): the target equals its quotients times the
    basis, or the constant found is a nonzero one, and every basis element
    the answer rests on equals its line.  Nothing is expanded; the
    certificate builds and re-verifies its cofactors on first read.
    Steps, budget outcomes and cofactors are the same either way.
    """
    gens = problem.all_generators()
    target = problem.target
    ctx, vars = target.ctx, target.vars
    n, nvars = len(gens), len(vars)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:  # the in-place reduction below checks no ring
        target._ctx(g)
    bud = _Budget(budget if budget is not None else step_budget())

    def packed(p: MPoly) -> dict:
        return {pack(m): c for m, c in p.terms.items()}

    def certified(build) -> Certificate:
        """The certificate of the cofactors ``build()`` expands, re-verified:
        at once, or on first read after the derivation is checked."""

        def expanded() -> list[MPoly]:
            out = build()
            if not Certificate(problem, out).verify():
                raise AssertionError(_REFUSED)
            return out

        return Certificate(problem, expanded() if cofactors else expanded)

    def certificate_from_constant(tr: _Tracked) -> Certificate:
        if not cofactors:
            found = MPoly(ctx, vars, {unpack(m, nvars): c for m, c in tr.terms.items()}, tr.den)
            if found.is_zero or not found.is_constant:
                raise AssertionError(_REFUSED)
            _check_derivation(basis, tr.origin, found, gens)
        scale = ctx.rdiv(target.constant_value(), tr.lc)
        return certified(lambda: [v.scale(scale) for v in _expand(basis, tr.origin, n, ctx, vars)])

    basis: list[_Tracked] = []
    pairs: list[tuple] = []
    memo: dict[int, int] = {}

    def add_element(tr: _Tracked):
        j = len(basis)
        basis.append(tr)
        for i in range(j):
            if not basis[i].supp & tr.supp:
                continue  # coprime leading monomials: S-poly reduces to zero
            heapq.heappush(pairs, (pack(tuple(map(max, basis[i].exp, tr.exp))), i, j))

    if target.is_zero:
        return Certificate(problem, [MPoly.zero(ctx, vars) for _ in range(n)])
    const_target = target.is_constant
    target_terms = packed(target)

    for i, g in enumerate(gens):
        if g.is_zero:
            continue
        tr = _Tracked(ctx, nvars, packed(g), g.den, i)
        if const_target and tr.lm == 0:
            return certificate_from_constant(tr)
        add_element(tr)

    p = ctx.p
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        fi, fj = basis[i], basis[j]
        mi, mj = lcm - fi.lm, lcm - fj.lm
        # the S-polynomial x^mi * fi / lc(fi) - x^mj * fj / lc(fj): the first
        # term on ints over |its leading value|, then the second subtracted
        if p is not None:
            spoly, den = {m + mi: c * fi.inv % p for m, c in fi.terms.items()}, 1
        elif (top := fi.terms[fi.lm]) > 0:
            spoly, den = {m + mi: c for m, c in fi.terms.items()}, top
        else:
            spoly, den = {m + mi: -c for m, c in fi.terms.items()}, -top
        den, _ = terms_sub_into(ctx, spoly, den, fj.terms, fj.den, fj.inv, mj)
        (rem, den), quotients = _reduce_tracked(ctx, nvars, spoly, den, basis, bud, memo)
        if not rem:
            continue
        multiples = ((i, mi, fi.inv), (j, mj, ctx.rneg(fj.inv)))
        tr = _Tracked(ctx, nvars, rem, den, (multiples, quotients))
        if const_target and tr.lm == 0:
            return certificate_from_constant(tr)
        add_element(tr)

    (rem, _), quotients = _reduce_tracked(ctx, nvars, target_terms, target.den, basis, bud, memo)
    if rem:
        return None
    if not cofactors:
        _check_derivation(basis, ((), quotients), -target, gens)
    return certified(lambda: [-v for v in _expand(basis, ((), quotients), n, ctx, vars)])
