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
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from operator import le

from .errors import BudgetExceeded
from .field import FieldCtx, ascii_int
from .polys import MPoly, dot, drl_key, raw_coeff, terms_sub_into

DEFAULT_BUDGET = 10**6


def step_budget() -> int:
    raw = os.environ.get("JOU_STEP_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    n = ascii_int(raw, signed=False)
    if n is None:
        raise ValueError(f"JOU_STEP_BUDGET must be a nonnegative integer, got {raw!r}")
    return n


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
    """A basis element and its origin: the index of the input generator it
    is, or (multiples, quotients) for the element
    sum(c * x^m * basis[k] over (k, m, c) in multiples)
    - sum(quotients[k] * basis[k]), quotients holding raw term dicts."""

    __slots__ = ("poly", "origin", "lm", "lc")

    def __init__(self, poly: MPoly, origin):
        self.poly = poly
        self.origin = origin
        self.lm, self.lc = poly.leading()


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("groebner step budget exhausted (raise JOU_STEP_BUDGET)")


def _heap_key(m):
    """Min-heap key of a monomial, smallest for the degrevlex-largest; the
    monomial is key[:0:-1]."""
    return (-sum(m),) + m[::-1]


def _reduce_tracked(p: MPoly, basis: list[_Tracked], budget: _Budget):
    """Full normal form of p modulo the basis, and the quotients:
    p == normal + sum(quotients[k] * basis[k].poly), quotients mapping the
    index of every basis element a step subtracted to a dict of raw
    coefficients, one term per such step.

    The remainder is one dict of values over a running denominator, this
    loop's own: an irreducible leading term is dropped from it, and a step
    subtracts the reducer in place (``terms_sub_into``), touching only the
    reducer's terms and pushing the keys new to the remainder."""
    ctx = p.ctx
    tail = {}  # raw coefficients of the irreducible leading terms
    quotients: dict[int, dict] = {}
    work, den = dict(p.terms), p.den
    heap = [_heap_key(m) for m in work]
    heapq.heapify(heap)
    while heap:
        lm = heapq.heappop(heap)[:0:-1]
        if lm not in work:
            continue  # cancelled since it was pushed
        lc = raw_coeff(ctx, work[lm], den)
        for k, hit in enumerate(basis):
            if all(map(le, hit.lm, lm)):  # hit.lm divides lm
                break
        else:
            tail[lm] = lc
            del work[lm]
            continue
        budget.spend()
        qmon = tuple(a - b for a, b in zip(lm, hit.lm))
        qc = ctx.rdiv(lc, hit.lc)
        quotients.setdefault(k, {})[qmon] = qc
        den, new = terms_sub_into(ctx, work, den, hit.poly.terms, hit.poly.den, qc, qmon)
        for m in new:  # below lm, and kept
            heapq.heappush(heap, _heap_key(m))
    return MPoly(ctx, p.vars, tail), quotients


def _expand(basis: list[_Tracked], origin, n: int, ctx: FieldCtx, vars) -> list[MPoly]:
    """The expression in the n input generators of the element ``origin``
    makes, as n cofactors, by reverse accumulation.

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

    def pass_on(orig, weight):
        multiples, quotients = orig
        for k, mon, c in multiples:
            pending.setdefault(k, []).append((MPoly(ctx, vars, {mon: c}), weight))
        for k, q in quotients.items():
            minus_q = MPoly(ctx, vars, {m: -c for m, c in q.items()})
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


def express_in_ideal(problem: IdealProblem, budget: int | None = None) -> Certificate | None:
    """Decide membership of the target; return verified cofactors or None.

    Exact decision: Buchberger completion then reduction of the target to
    normal form (zero iff member).  Constant targets short-circuit as soon
    as a constant lands in the basis.
    """
    gens = problem.all_generators()
    target = problem.target
    ctx, vars = target.ctx, target.vars
    n = len(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:  # the in-place reduction below checks no ring
        target._ctx(g)
    bud = _Budget(budget if budget is not None else step_budget())

    def certified(cofactors: list[MPoly]) -> Certificate:
        cert = Certificate(problem, cofactors)
        if not cert.verify():
            raise AssertionError("internal: certificate failed independent re-verification")
        return cert

    def certificate_from_constant(tr: _Tracked) -> Certificate:
        scale = ctx.rdiv(target.constant_value(), tr.poly.constant_value())
        return certified([v.scale(scale) for v in _expand(basis, tr.origin, n, ctx, vars)])

    basis: list[_Tracked] = []
    pairs: list[tuple] = []

    def add_element(tr: _Tracked):
        j = len(basis)
        basis.append(tr)
        for i in range(j):
            summed = tuple(a + b for a, b in zip(basis[i].lm, tr.lm))
            lcm = tuple(max(a, b) for a, b in zip(basis[i].lm, tr.lm))
            if lcm == summed:
                continue  # coprime leading monomials: S-poly reduces to zero
            heapq.heappush(pairs, (drl_key(lcm), i, j))

    if target.is_zero:
        return Certificate(problem, [MPoly.zero(ctx, vars) for _ in range(n)])
    const_target = target.is_constant

    for i, g in enumerate(gens):
        if g.is_zero:
            continue
        tr = _Tracked(g, i)
        if const_target and tr.poly.is_constant:
            return certificate_from_constant(tr)
        add_element(tr)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        fi, fj = basis[i], basis[j]
        lcm = tuple(max(a, b) for a, b in zip(fi.lm, fj.lm))
        mi = tuple(a - b for a, b in zip(lcm, fi.lm))
        mj = tuple(a - b for a, b in zip(lcm, fj.lm))
        ci = ctx.rdiv(ctx.rone, fi.lc)
        cj = ctx.rdiv(ctx.rone, fj.lc)
        spoly = fi.poly.mul_term(mi, ci) - fj.poly.mul_term(mj, cj)
        rem, quotients = _reduce_tracked(spoly, basis, bud)
        if rem.is_zero:
            continue
        tr = _Tracked(rem, (((i, mi, ci), (j, mj, ctx.rneg(cj))), quotients))
        if const_target and tr.poly.is_constant:
            return certificate_from_constant(tr)
        add_element(tr)

    rem, quotients = _reduce_tracked(target, basis, bud)
    if not rem.is_zero:
        return None
    return certified([-v for v in _expand(basis, ((), quotients), n, ctx, vars)])
