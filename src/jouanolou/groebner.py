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
only, in increasing basis index: parents and divisors always precede the
element they make, so a long derivation costs no recursion, and each
quotient is applied as one product.  A refuted or undecided run expands
nothing.

The reduction finds each leading monomial by popping a heap of the
remainder's monomials; an entry whose monomial has left the remainder is
skipped.  The monomial order is degrevlex with x > y > z > T throughout;
pair selection is by smallest lcm and the divisor is the first basis
element whose leading monomial divides, so identical inputs yield
identical certificates.  The step budget is spent once per reduction step.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from operator import le

from .errors import BudgetExceeded
from .field import FieldCtx, ascii_int
from .polys import MPoly, dot, drl_key, raw_coeff, terms_add

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
    coefficients, one term per such step."""
    ctx = p.ctx
    tail = {}  # raw coefficients of the irreducible leading terms
    quotients: dict[int, dict] = {}
    # the remainder as values over den in a dict of this loop's own (a
    # nonempty terms_add returns a new dict), so an irreducible leading term
    # is dropped in place; den may stop being canonical, which raw_coeff and
    # terms_add do not need
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
        red = hit.poly.mul_term(qmon, qc)
        before = work
        work, den = terms_add(ctx, work, den, red.terms, red.den, negate=True)
        for m in red.terms:
            if m not in before:  # new to the remainder, so below lm and kept
                heapq.heappush(heap, _heap_key(m))
    return MPoly(ctx, p.vars, tail), quotients


def _expand(basis: list[_Tracked], origin, n: int, ctx: FieldCtx, vars) -> list[MPoly]:
    """The expression in the n input generators of the element ``origin``
    makes, as n cofactors.  Only the basis elements it depends on are
    expanded, in increasing index, so no element waits on a later one."""
    zero = MPoly.zero(ctx, vars)

    def deps(orig):
        if isinstance(orig, int):
            return ()
        multiples, quotients = orig
        return [k for k, _, _ in multiples] + list(quotients)

    def combine(orig):
        if isinstance(orig, int):
            one = MPoly.const(ctx, vars, ctx.rone)
            return [one if t == orig else zero for t in range(n)]
        multiples, quotients = orig
        out = [zero] * n
        for k, mon, c in multiples:
            for t, v in enumerate(vecs[k]):
                if v.terms:
                    out[t] = out[t] + v.mul_term(mon, c)
        for k, q in quotients.items():
            Q = MPoly(ctx, vars, q)
            for t, v in enumerate(vecs[k]):
                if v.terms:
                    out[t] = out[t] - Q * v
        return out

    cone: set[int] = set()
    pending = list(deps(origin))
    while pending:
        k = pending.pop()
        if k not in cone:
            cone.add(k)
            pending.extend(deps(basis[k].origin))
    vecs: dict[int, list[MPoly]] = {}
    for k in sorted(cone):
        vecs[k] = combine(basis[k].origin)
    return combine(origin)


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
