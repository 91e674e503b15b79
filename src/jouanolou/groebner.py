"""Ideal membership with cofactor certificates via extended Buchberger.

Problems live in k[x,y,z] or k[x,y,z,T]; the quotient relation
x^2 - x + yz can be adjoined as an extra generator so that membership
modulo the device's coordinate ring is decided in the free polynomial
ring.  Every basis element carries its expression in the input
generators, so a successful membership test returns cofactors that are
re-verified by independent expansion before being handed out.

The monomial order is degrevlex with x > y > z > T throughout; pair
selection is by smallest lcm, so identical inputs yield identical
certificates.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field

from .errors import BudgetExceeded
from .field import FieldCtx
from .polys import MPoly, dot, drl_key, raw_coeff, terms_add

DEFAULT_BUDGET = 10**6


def step_budget() -> int:
    raw = os.environ.get("JOU_STEP_BUDGET")
    return int(raw) if raw else DEFAULT_BUDGET


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
    __slots__ = ("poly", "vec", "lm", "lc")

    def __init__(self, poly: MPoly, vec: list[MPoly]):
        self.poly = poly
        self.vec = vec
        self.lm, self.lc = poly.leading()


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("groebner step budget exhausted (raise JOU_STEP_BUDGET)")


def _divides(m1, m2) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _reduce_tracked(p: MPoly, vec: list[MPoly], basis: list[_Tracked], budget: _Budget):
    """Full normal form of p modulo the basis, with tracking.

    Invariant: (work + tail) - sum(vec[i]*gen[i]) is constant.  So when the
    incoming vec represents p itself (p == sum(vec*gens)), the returned tail
    satisfies tail == sum(vec_out*gens); when vec comes in as zeros,
    tail == p + sum(vec_out*gens).
    """
    ctx = p.ctx
    vars = p.vars
    tail = {}  # raw coefficients of the irreducible leading terms
    # the remainder as values over den in a dict of this loop's own (a
    # nonempty terms_add returns a new dict), so an irreducible leading term
    # is dropped in place; den may stop being canonical, which raw_coeff and
    # terms_add do not need
    work, den = dict(p.terms), p.den
    while work:
        lm = max(work, key=drl_key)
        lc = raw_coeff(ctx, work[lm], den)
        hit = None
        for b in basis:
            if _divides(b.lm, lm):
                hit = b
                break
        if hit is None:
            tail[lm] = lc
            del work[lm]
            continue
        budget.spend()
        qmon = tuple(a - b for a, b in zip(lm, hit.lm))
        qc = ctx.rdiv(lc, hit.lc)
        red = hit.poly.mul_term(qmon, qc)
        work, den = terms_add(ctx, work, den, red.terms, red.den, negate=True)
        for i, v in enumerate(hit.vec):
            if not v.is_zero:
                vec[i] = vec[i] - v.mul_term(qmon, qc)
    return MPoly(ctx, vars, tail), vec


def _unit_vec(ctx, vars, n, i):
    return [
        MPoly.const(ctx, vars, ctx.rone) if j == i else MPoly.zero(ctx, vars) for j in range(n)
    ]


def express_in_ideal(problem: IdealProblem, budget: int | None = None) -> Certificate | None:
    """Decide membership of the target; return verified cofactors or None.

    Exact decision: Buchberger completion then tracked reduction of the
    target to normal form (zero iff member).  Constant targets
    short-circuit as soon as a constant lands in the basis.
    """
    gens = problem.all_generators()
    target = problem.target
    ctx, vars = target.ctx, target.vars
    n = len(gens)
    if not gens:
        raise ValueError("need at least one generator")
    bud = _Budget(budget if budget is not None else step_budget())

    def certificate_from_constant(tr: _Tracked) -> Certificate | None:
        if not target.is_constant:
            return None
        scale = ctx.rdiv(target.constant_value(), tr.poly.constant_value())
        cert = Certificate(problem, [v.scale(scale) for v in tr.vec])
        if not cert.verify():
            raise AssertionError("internal: constant certificate failed re-verification")
        return cert

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
        tr = _Tracked(g, _unit_vec(ctx, vars, n, i))
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
        vec = [MPoly.zero(ctx, vars) for _ in range(n)]
        for k, v in enumerate(fi.vec):
            if not v.is_zero:
                vec[k] = vec[k] + v.mul_term(mi, ci)
        for k, v in enumerate(fj.vec):
            if not v.is_zero:
                vec[k] = vec[k] - v.mul_term(mj, cj)
        rem, vec = _reduce_tracked(spoly, vec, basis, bud)
        if rem.is_zero:
            continue
        tr = _Tracked(rem, vec)
        if const_target and tr.poly.is_constant:
            return certificate_from_constant(tr)
        add_element(tr)

    quotients = [MPoly.zero(ctx, vars) for _ in range(n)]
    rem, quotients = _reduce_tracked(target, quotients, basis, bud)
    if not rem.is_zero:
        return None
    cert = Certificate(problem, [-q for q in quotients])
    if not cert.verify():
        raise AssertionError("internal: certificate failed independent re-verification")
    return cert
