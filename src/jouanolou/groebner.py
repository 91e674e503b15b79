"""Ideal membership with cofactor certificates via extended Buchberger.

Problems live in k[x,y,z] or k[x,y,z,T]; the quotient relation
x^2 - x + yz can be adjoined as an extra generator so that membership
modulo the device's coordinate ring is decided in the free polynomial
ring.  A successful membership test returns cofactors that are re-verified
by independent expansion before being handed out.

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

The reduction keeps one remainder dict and subtracts each reducer from it
in place, touching only the reducer's terms; it finds each leading monomial
by popping a heap of the remainder's monomials, and an entry whose monomial
has left the remainder is skipped.  The monomial order is degrevlex with
x > y > z > T throughout; pair selection is by smallest lcm and the divisor
is the first basis element whose leading monomial divides, so identical
inputs yield identical certificates.  The step budget is spent once per
reduction step.  Every generator must share the target's field and
variables, checked before any step.

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
``max(keys)``.  The divisor test alone compares exponents, the remainder's
leading key unpacked once per step against each basis element's cached
exponent tuple.

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
from dataclasses import dataclass, field
from operator import le

from .errors import BudgetExceeded, DegreeOverflow
from .field import FieldCtx, ascii_int
from .polys import MPoly, cleared, dot, raw_coeff, terms_add, terms_scale, terms_sub_into

DEFAULT_BUDGET = 10**6
FIELD_BITS = 32
MAX_DEGREE = (1 << FIELD_BITS) - 1


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


@dataclass
class Certificate:
    """Cofactors with sum(cofactors[i] * generators[i]) == target; one per
    generator plus one for the relation when it was adjoined."""

    problem: IdealProblem
    cofactors: list[MPoly] = field(default_factory=list)

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
    dicts on keys.  ``lm`` is the leading key, ``exp`` its exponents."""

    __slots__ = ("terms", "den", "origin", "lm", "exp", "lc")

    def __init__(self, ctx: FieldCtx, n: int, terms: dict, den: int, origin):
        self.terms, self.den, self.origin = terms, den, origin
        self.lm = max(terms)
        self.exp = unpack(self.lm, n)
        self.lc = raw_coeff(ctx, terms[self.lm], den)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("groebner step budget exhausted (raise JOU_STEP_BUDGET)")


def _reduce_tracked(ctx: FieldCtx, n: int, terms: dict, den: int, basis: list[_Tracked],
                    budget: _Budget):
    """Full normal form of terms/den (engine keys, n variables) modulo the
    basis, and the quotients: ((normal terms, den), quotients) with
    terms/den == normal + sum(quotients[k] * basis[k]), quotients mapping the
    index of every basis element a step subtracted to a dict of raw
    coefficients, one term per such step.

    The remainder is one dict of values over a running denominator, this
    loop's own: an irreducible leading term is dropped from it, and a step
    subtracts the reducer in place (``terms_sub_into``), touching only the
    reducer's terms and pushing the keys new to the remainder on a heap of
    negated keys."""
    tail = {}  # raw coefficients of the irreducible leading terms
    quotients: dict[int, dict] = {}
    work = dict(terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    while heap:
        lm = -heapq.heappop(heap)
        if lm not in work:
            continue  # cancelled since it was pushed
        lc = raw_coeff(ctx, work[lm], den)
        exp = unpack(lm, n)
        for k, hit in enumerate(basis):
            if all(map(le, hit.exp, exp)):  # hit.lm divides lm
                break
        else:
            tail[lm] = lc
            del work[lm]
            continue
        budget.spend()
        qmon = lm - hit.lm
        qc = ctx.rdiv(lc, hit.lc)
        quotients.setdefault(k, {})[qmon] = qc
        den, new = terms_sub_into(ctx, work, den, hit.terms, hit.den, qc, qmon)
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


def _shifted(ctx: FieldCtx, tr: _Tracked, mon: int, raw):
    """(terms, den) of raw * x^mon * tr, mon a key."""
    return terms_scale(ctx, {m + mon: c for m, c in tr.terms.items()}, tr.den, raw)


def express_in_ideal(problem: IdealProblem, budget: int | None = None) -> Certificate | None:
    """Decide membership of the target; return verified cofactors or None.

    Exact decision: Buchberger completion then reduction of the target to
    normal form (zero iff member).  Constant targets short-circuit as soon
    as a constant lands in the basis.  DegreeOverflow when a degree would
    pass MAX_DEGREE.
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

    def certified(cofactors: list[MPoly]) -> Certificate:
        cert = Certificate(problem, cofactors)
        if not cert.verify():
            raise AssertionError("internal: certificate failed independent re-verification")
        return cert

    def certificate_from_constant(tr: _Tracked) -> Certificate:
        scale = ctx.rdiv(target.constant_value(), tr.lc)
        return certified([v.scale(scale) for v in _expand(basis, tr.origin, n, ctx, vars)])

    basis: list[_Tracked] = []
    pairs: list[tuple] = []

    def add_element(tr: _Tracked):
        j = len(basis)
        basis.append(tr)
        for i in range(j):
            lcm = tuple(map(max, basis[i].exp, tr.exp))
            if sum(lcm) == sum(basis[i].exp) + sum(tr.exp):
                continue  # coprime leading monomials: S-poly reduces to zero
            heapq.heappush(pairs, (pack(lcm), i, j))

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

    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        fi, fj = basis[i], basis[j]
        mi, mj = lcm - fi.lm, lcm - fj.lm
        ci = ctx.rdiv(ctx.rone, fi.lc)
        cj = ctx.rdiv(ctx.rone, fj.lc)
        spoly = terms_add(ctx, *_shifted(ctx, fi, mi, ci), *_shifted(ctx, fj, mj, cj), negate=True)
        (rem, den), quotients = _reduce_tracked(ctx, nvars, *spoly, basis, bud)
        if not rem:
            continue
        tr = _Tracked(ctx, nvars, rem, den, (((i, mi, ci), (j, mj, ctx.rneg(cj))), quotients))
        if const_target and tr.lm == 0:
            return certificate_from_constant(tr)
        add_element(tr)

    (rem, _), quotients = _reduce_tracked(ctx, nvars, target_terms, target.den, basis, bud)
    if rem:
        return None
    return certified([-v for v in _expand(basis, ((), quotients), n, ctx, vars)])
