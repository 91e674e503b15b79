import heapq
import itertools
from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from jouanolou import groebner
from jouanolou.errors import BudgetExceeded, ContextMismatch, DegreeOverflow
from jouanolou.field import Fp, QQ
from jouanolou.groebner import MAX_DEGREE, IdealProblem, express_in_ideal, pack, relation_poly, unpack
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.polys import MPoly, dot, drl_key


def poly(s, ctx=QQ, vars=RingElement.VARS):
    from jouanolou.textio import parse_poly

    parsed = parse_poly(s, ctx, allow_T=False)
    terms = {}
    for mon, c in parsed.sorted_terms():
        assert mon[3] == 0, "test helper expects w-free input"
        terms[mon[:3]] = c
    return MPoly(ctx, vars, terms)


def one(ctx=QQ, vars=RingElement.VARS):
    return MPoly.const(ctx, vars, ctx.rone)


def tracked(g, origin):
    """The engine's basis element for g, its terms packed."""
    return groebner._Tracked(g.ctx, len(g.vars), {pack(m): c for m, c in g.terms.items()}, g.den,
                             origin)


def reduce_packed(p, basis, budget):
    """The engine's reduction of p, packed at the boundary: (normal form,
    quotients) on exponent tuples."""
    n = len(p.vars)
    (terms, den), quotients = groebner._reduce_tracked(
        p.ctx, n, {pack(m): c for m, c in p.terms.items()}, p.den, basis, budget
    )
    normal = MPoly(p.ctx, p.vars, {unpack(m, n): c for m, c in terms.items()}, den)
    return normal, {k: {unpack(m, n): c for m, c in q.items()} for k, q in quotients.items()}


def test_unimodular_row_certificate():
    prob = IdealProblem([poly("2*x - 1"), poly("2*y")], one(), include_relation=True)
    cert = express_in_ideal(prob)
    assert cert is not None and cert.verify()


def test_not_in_ideal():
    prob = IdealProblem([poly("y"), poly("z")], one(), include_relation=True)
    assert express_in_ideal(prob) is None


def test_identity_membership():
    g1 = poly("x + y")
    cert = express_in_ideal(IdealProblem([g1, poly("z^2 + x")], g1))
    assert cert is not None
    assert [str(c) for c in cert.cofactors] == ["1", "0"]


def test_determinism():
    target = poly("x^2*z + y*z + x*y*z - x")  # z*(x^2+y) + x*(y*z - 1)
    prob1 = IdealProblem([poly("x^2 + y"), poly("y*z - 1"), poly("x + z")], target)
    prob2 = IdealProblem([poly("x^2 + y"), poly("y*z - 1"), poly("x + z")], target)
    c1, c2 = express_in_ideal(prob1), express_in_ideal(prob2)
    assert c1 is not None and c2 is not None and c1.verify()
    assert [p.terms for p in c1.cofactors] == [p.terms for p in c2.cofactors]


def test_budget_exceeded():
    gens = [poly("x^2 + y*z + 1"), poly("y^2 + x*z + 1"), poly("z^2 + x*y + 1")]
    with pytest.raises(BudgetExceeded):
        express_in_ideal(IdealProblem(gens, one()), budget=3)


def _brute_force_member(gens, target, ctx, max_deg=3):
    """Exhaustive search for cofactors of total degree <= max_deg over F_3."""
    monomials = [
        m
        for m in itertools.product(range(max_deg + 1), repeat=3)
        if sum(m) <= max_deg
    ]
    # solve the linear system over F_3 for cofactor coefficients
    unknown_cols = []
    for gi, g in enumerate(gens):
        for m in monomials:
            prod = g.mul_term(m, ctx.rone)
            unknown_cols.append(prod)
    rows = sorted({mon for col in unknown_cols for mon in col.terms} | set(target.terms))
    A = [[int(col.terms.get(r, 0)) % 3 for col in unknown_cols] for r in rows]
    b = [int(target.terms.get(r, 0)) % 3 for r in rows]
    # Gaussian elimination mod 3
    A = [row[:] for row in A]
    b = b[:]
    ncols = len(unknown_cols)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][c] % 3), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        b[r], b[piv] = b[piv], b[r]
        inv = pow(A[r][c], -1, 3)
        A[r] = [(v * inv) % 3 for v in A[r]]
        b[r] = (b[r] * inv) % 3
        for i in range(len(A)):
            if i != r and A[i][c] % 3:
                f = A[i][c]
                A[i] = [(vi - f * vr) % 3 for vi, vr in zip(A[i], A[r])]
                b[i] = (b[i] - f * b[r]) % 3
        pivots.append(c)
        r += 1
    for i in range(r, len(A)):
        if b[i] % 3:
            return False
    return True


def test_agreement_with_brute_force_over_f3():
    ctx = Fp(3)
    cases = [
        ([poly("x + y", ctx), poly("y + 1", ctx)], one(ctx)),
        ([poly("x*y", ctx), poly("z", ctx)], one(ctx)),
        ([poly("x + 1", ctx), poly("x*z + y", ctx)], poly("y + z + x*z", ctx)),
        ([poly("x^2 + y", ctx), poly("y^2", ctx)], poly("x^2", ctx)),
        ([poly("x + y + z", ctx), poly("x*y", ctx)], one(ctx)),
    ]
    for gens, target in cases:
        got = express_in_ideal(IdealProblem(gens, target)) is not None
        want = _brute_force_member(gens, target, ctx)
        assert got == want, f"disagreement on {gens} -> {target}"


def test_relation_poly_shape():
    r = relation_poly(QQ, RingElement.VARS)
    assert str(r) in ("x^2 + y*z - x", "y*z + x^2 - x")
    # degrevlex leading term of x^2 - x + yz is x^2 (degree ties: x^2 > yz)
    lead, _ = r.leading()
    assert lead == (2, 0, 0)


def test_degrevlex_order():
    # x^2 > x*y > y^2 > x*z > y*z > z^2 in degrevlex with x > y > z
    mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(mons, key=drl_key, reverse=True) == mons


def test_certificate_includes_relation_cofactor():
    prob = IdealProblem([poly("2*x - 1"), poly("2*y")], one(), include_relation=True)
    cert = express_in_ideal(prob)
    assert len(cert.cofactors) == 3
    assert len(cert.generator_cofactors) == 2


def test_env_budget_override(monkeypatch):
    from jouanolou import groebner as gb

    monkeypatch.setenv("JOU_STEP_BUDGET", "4")
    assert gb.step_budget() == 4
    gens = [poly("x^2 + y*z + 1"), poly("y^2 + x*z + 1"), poly("z^2 + x*y + 1")]
    with pytest.raises(BudgetExceeded):
        express_in_ideal(IdealProblem(gens, one()))
    monkeypatch.delenv("JOU_STEP_BUDGET")
    assert gb.step_budget() == gb.DEFAULT_BUDGET


def test_membership_agrees_with_sympy_on_random_draws():
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(31)
    xs = sympy.symbols("x y z")
    pool = ["x + y", "x*y - 1", "z^2 + x", "x^2 + y*z", "y - 2", "x*z + y + 1", "z"]
    for _ in range(12):
        texts = rng.sample(pool, 3)
        target_text = rng.choice(pool)
        gens = [poly(t) for t in texts]
        target = poly(target_text)
        got = express_in_ideal(IdealProblem(gens, target)) is not None
        sgens = [sympy.sympify(t.replace("^", "**")) for t in texts]
        starget = sympy.sympify(target_text.replace("^", "**"))
        gb = sympy.groebner(sgens, *xs, order="grevlex")
        want = gb.reduce(starget)[1] == 0
        assert got == want, f"{texts} |- {target_text}: engine {got}, oracle {want}"


def test_reduction_drops_a_long_irreducible_tail_without_subtracting(monkeypatch):
    """A remainder with one reducible leading term over a long irreducible
    tail: each tail term moves to the normal form with no subtraction, so
    the kernel subtracts once per reduction step, not once per tail term.
    The half on y^30 leaves the remaining values over an even denominator,
    all even, once it is dropped."""
    from jouanolou.polys import terms_sub_into

    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return terms_sub_into(*args, **kw)

    monkeypatch.setattr(groebner, "terms_sub_into", counted)
    tail = {(0, 30, 0): Fraction(1, 2)}
    tail.update({(0, i, j): Fraction(i + 2 * j + 1) for i in range(20) for j in range(1, 20)})
    p = MPoly(QQ, RingElement.VARS, {(2, 0, 0): Fraction(1), **tail})
    g = poly("x - 1/3")
    basis = [tracked(g, 0)]
    normal, quotients = reduce_packed(p, basis, groebner._Budget(10))
    assert len(calls) == 2  # x^2 -> x/3 -> 1/9
    assert normal == MPoly(QQ, RingElement.VARS, {**tail, (0, 0, 0): Fraction(1, 9)})
    assert normal == p - MPoly(QQ, RingElement.VARS, quotients[0]) * g


def test_reduction_keeps_a_monomial_that_cancels_and_comes_back():
    """y^2 leaves the remainder at the first step and re-enters at the
    second: the normal form holds it once, and the two steps are all the
    budget pays for."""
    p = poly("x^2 + y^2")
    b0, b1 = poly("x^2 + x*y + y^2"), poly("x*y - y^2")
    basis = [tracked(b0, 0), tracked(b1, 1)]
    budget = groebner._Budget(10)
    normal, quotients = reduce_packed(p, basis, budget)
    assert normal == poly("-y^2")
    assert quotients == {0: {(0, 0, 0): 1}, 1: {(0, 0, 0): -1}}
    assert budget.left == 8
    assert p == normal + MPoly(QQ, RingElement.VARS, quotients[0]) * b0 + MPoly(
        QQ, RingElement.VARS, quotients[1]
    ) * b1


# --- the extended algorithm that carries cofactor vectors, as an oracle ----------
#
# The engine expands cofactors from each basis element's history only when a
# certificate is needed.  This is the algorithm it replaced, which updates
# one cofactor vector per basis element at every reduction step: the same
# pair order, divisor choice and step count, so the same certificates.


class _OracleTracked:
    def __init__(self, poly, vec):
        self.poly = poly
        self.vec = vec
        self.lm, self.lc = poly.leading()


class _OracleBudget:
    def __init__(self, n):
        self.left = n
        self.spent = 0

    def spend(self):
        self.spent += 1
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("oracle budget exhausted")


def _oracle_reduce(p, vec, basis, budget):
    ctx = p.ctx
    tail = {}
    work = p
    while not work.is_zero:
        lm, lc = work.leading()
        hit = next((b for b in basis if all(a <= e for a, e in zip(b.lm, lm))), None)
        if hit is None:
            tail[lm] = lc
            work = work - MPoly(ctx, p.vars, {lm: lc})
            continue
        budget.spend()
        qmon = tuple(a - b for a, b in zip(lm, hit.lm))
        qc = ctx.rdiv(lc, hit.lc)
        work = work - hit.poly.mul_term(qmon, qc)
        for i, v in enumerate(hit.vec):
            if not v.is_zero:
                vec[i] = vec[i] - v.mul_term(qmon, qc)
    return MPoly(ctx, p.vars, tail), vec


def oracle_express(problem, budget):
    """(cofactors or None, steps spent); BudgetExceeded past ``budget``."""
    gens = problem.all_generators()
    target = problem.target
    ctx, vars = target.ctx, target.vars
    n = len(gens)
    bud = _OracleBudget(budget)
    zero = MPoly.zero(ctx, vars)

    def from_constant(tr):
        scale = ctx.rdiv(target.constant_value(), tr.poly.constant_value())
        return [v.scale(scale) for v in tr.vec], bud.spent

    if target.is_zero:
        return [zero] * n, 0
    basis, pairs = [], []

    def add(tr):
        j = len(basis)
        basis.append(tr)
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(basis[i].lm, tr.lm))
            if lcm != tuple(a + b for a, b in zip(basis[i].lm, tr.lm)):
                heapq.heappush(pairs, (drl_key(lcm), i, j))

    for i, g in enumerate(gens):
        if g.is_zero:
            continue
        tr = _OracleTracked(g, [one(ctx, vars) if k == i else zero for k in range(n)])
        if target.is_constant and g.is_constant:
            return from_constant(tr)
        add(tr)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        fi, fj = basis[i], basis[j]
        lcm = tuple(max(a, b) for a, b in zip(fi.lm, fj.lm))
        mi = tuple(a - b for a, b in zip(lcm, fi.lm))
        mj = tuple(a - b for a, b in zip(lcm, fj.lm))
        ci, cj = ctx.rdiv(ctx.rone, fi.lc), ctx.rdiv(ctx.rone, fj.lc)
        spoly = fi.poly.mul_term(mi, ci) - fj.poly.mul_term(mj, cj)
        vec = [a.mul_term(mi, ci) - b.mul_term(mj, cj) for a, b in zip(fi.vec, fj.vec)]
        rem, vec = _oracle_reduce(spoly, vec, basis, bud)
        if rem.is_zero:
            continue
        tr = _OracleTracked(rem, vec)
        if target.is_constant and rem.is_constant:
            return from_constant(tr)
        add(tr)
    rem, quotients = _oracle_reduce(target, [zero] * n, basis, bud)
    return (None if not rem.is_zero else [-q for q in quotients]), bud.spent


F7 = Fp(7)
ORACLE_CAP = 150


def polys_in(ctx, vars, max_terms, max_deg, min_terms=1):
    coeff = (
        st.integers(1, 6)
        if ctx.p is not None
        else st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    )
    mon = st.sampled_from(
        [m for m in itertools.product(range(max_deg + 1), repeat=len(vars)) if sum(m) <= max_deg]
    )
    terms = st.dictionaries(mon, coeff, min_size=min_terms, max_size=max_terms)
    return terms.map(lambda t: MPoly(ctx, vars, t))


@st.composite
def problems(draw, ctx):
    vars = draw(st.sampled_from([RingElement.VARS, RingPolyT.VARS]))
    gens = draw(st.lists(polys_in(ctx, vars, 4, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), MPoly.zero(ctx, vars))
    kind = draw(st.sampled_from(["unit", "one", "constant", "member", "random"]))
    if kind == "unit":  # 1 = g + sum(h_i * gens[i]): a unit ideal, and a constant target
        hs = draw(st.lists(polys_in(ctx, vars, 2, 1), min_size=len(gens), max_size=len(gens)))
        gens.append(one(ctx, vars) - dot(zip(hs, gens)))
        target = one(ctx, vars)
    elif kind == "one":
        target = one(ctx, vars)
    elif kind == "constant":
        target = MPoly.const(ctx, vars, ctx.rfrom_int(draw(st.integers(2, 5))))
    elif kind == "member":  # a combination of the generators
        hs = draw(st.lists(polys_in(ctx, vars, 3, 2, 0), min_size=len(gens), max_size=len(gens)))
        target = dot(zip(hs, gens))
    else:
        target = draw(polys_in(ctx, vars, 4, 3, 0))
    return IdealProblem(gens, target, include_relation=draw(st.booleans()))


@pytest.mark.parametrize("ctx", [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7")])
def test_history_cofactors_match_the_vector_tracking_oracle(ctx):
    """Equal cofactors as canonical (terms, den), the same step count (the
    engine succeeds with exactly the oracle's steps and raises with one
    fewer), and BudgetExceeded wherever the oracle runs out."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(problems(ctx))
    def check(problem):
        try:
            want, steps = oracle_express(problem, ORACLE_CAP)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                express_in_ideal(problem, budget=ORACLE_CAP)
            return
        cert = express_in_ideal(problem, budget=steps)
        if want is None:
            assert cert is None
        else:
            assert cert is not None and cert.verify()
            assert [(c.terms, c.den) for c in cert.cofactors] == [(c.terms, c.den) for c in want]
        if steps:
            with pytest.raises(BudgetExceeded):
                express_in_ideal(problem, budget=steps - 1)

    check()


def test_cofactor_expansion_of_a_long_derivation_chain():
    """A 1500-element chain, each element made from the one before it less
    x times generator 0: the expansion walks the chain by index, so its
    depth is no recursion depth."""
    ctx, vars = QQ, RingElement.VARS
    x = MPoly.var(ctx, vars, "x")
    stub = x  # the expansion reads origins only
    basis = [tracked(stub, 0), tracked(stub, 1)]
    for k in range(2, 1500):
        multiples = ((k - 1, pack((0, 0, 0)), ctx.rone),)
        basis.append(tracked(stub, (multiples, {0: {pack((1, 0, 0)): ctx.rone}})))
    # element k expands to e_1 - (k - 1) x e_0; ask for the last one
    origin = (((1499, pack((0, 0, 0)), ctx.rone),), {})
    got = groebner._expand(basis, origin, 2, ctx, vars)
    assert got == [x.scale(ctx.rfrom_int(-1498)), one(ctx, vars)]


# --- the copy-per-step reduction, as an oracle ----------------------------------
#
# The engine subtracts each reducer from one remainder in place.  This is the
# reduction it replaced, which builds every reducer as an MPoly and makes a new
# remainder of the whole sum at every step: the same pops, divisors and steps.


def _heap_key(m):
    """Min-heap key of a monomial, smallest for the degrevlex-largest; the
    monomial is key[:0:-1]."""
    return (-sum(m),) + m[::-1]


def reference_reduce(p, basis, budget):
    """(normal form, quotients) of p modulo the basis of ``_OracleTracked``
    elements, one copy per step."""
    from jouanolou.polys import raw_coeff, terms_add

    ctx = p.ctx
    tail, quotients = {}, {}
    work, den = dict(p.terms), p.den
    heap = [_heap_key(m) for m in work]
    heapq.heapify(heap)
    while heap:
        lm = heapq.heappop(heap)[:0:-1]
        if lm not in work:
            continue
        lc = raw_coeff(ctx, work[lm], den)
        hit = next((k for k, b in enumerate(basis) if all(a <= e for a, e in zip(b.lm, lm))), None)
        if hit is None:
            tail[lm] = lc
            del work[lm]
            continue
        budget.spend()
        qmon = tuple(a - b for a, b in zip(lm, basis[hit].lm))
        qc = ctx.rdiv(lc, basis[hit].lc)
        quotients.setdefault(hit, {})[qmon] = qc
        red = basis[hit].poly.mul_term(qmon, qc)
        before = work
        work, den = terms_add(ctx, work, den, red.terms, red.den, negate=True)
        for m in red.terms:
            if m not in before:
                heapq.heappush(heap, _heap_key(m))
    return MPoly(ctx, p.vars, tail), quotients


@st.composite
def reductions(draw, ctx):
    """(p, basis polynomials, budget) in k[x,y,z] or k[x,y,z,T]."""
    vars = draw(st.sampled_from([RingElement.VARS, RingPolyT.VARS]))
    basis = draw(st.lists(polys_in(ctx, vars, 3, 2), min_size=1, max_size=3))
    p = draw(polys_in(ctx, vars, 6, 4, 0))
    return p, basis, draw(st.integers(0, 30))


@pytest.mark.parametrize("ctx", [pytest.param(QQ, id="Q"), pytest.param(F7, id="F7")])
def test_in_place_reduction_matches_the_copy_per_step_oracle(ctx):
    """Equal normal forms, quotients and budget.left at a drawn budget, or
    BudgetExceeded in both; and at the oracle's own step count the engine
    succeeds with nothing left, and raises with one step fewer."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(reductions(ctx))
    def check(case):
        p, polys, n = case
        basis = [tracked(g, i) for i, g in enumerate(polys)]
        ref_basis = [_OracleTracked(g, None) for g in polys]
        want_budget, got_budget = groebner._Budget(n), groebner._Budget(n)
        try:
            want = reference_reduce(p, ref_basis, want_budget)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                reduce_packed(p, basis, got_budget)
        else:
            assert reduce_packed(p, basis, got_budget) == want
            assert got_budget.left == want_budget.left
        full = groebner._Budget(10**6)
        want = reference_reduce(p, ref_basis, full)
        steps = 10**6 - full.left
        exact = groebner._Budget(steps)
        assert reduce_packed(p, basis, exact) == want
        assert exact.left == 0
        if steps:
            with pytest.raises(BudgetExceeded):
                reduce_packed(p, basis, groebner._Budget(steps - 1))

    check()


def test_in_place_reduction_denominator_grows_then_cancels(monkeypatch):
    """x^2 + y modulo 2x - z and z^2 + 4 over Q: the running denominator
    goes 2, 4 and back to 1 as the constant -1/4 * 4 joins y/4 * 4."""
    from jouanolou.polys import terms_sub_into

    dens = []

    def recorded(*args):
        out = terms_sub_into(*args)
        dens.append(out[0])
        return out

    monkeypatch.setattr(groebner, "terms_sub_into", recorded)
    p = poly("x^2 + y")
    b0, b1 = poly("2*x - z"), poly("z^2 + 4")
    basis = [tracked(b0, 0), tracked(b1, 1)]
    budget = groebner._Budget(3)
    normal, quotients = reduce_packed(p, basis, budget)
    assert dens == [2, 4, 1]
    assert normal == poly("y - 1") and budget.left == 0
    assert quotients == {0: {(1, 0, 0): Fraction(1, 2), (0, 0, 1): Fraction(1, 4)},
                         1: {(0, 0, 0): Fraction(1, 4)}}
    ref_basis = [_OracleTracked(b0, None), _OracleTracked(b1, None)]
    assert (normal, quotients) == reference_reduce(p, ref_basis, groebner._Budget(3))


X_Y, X_Y_Z_T = ("x", "y"), RingPolyT.VARS


@pytest.mark.parametrize(
    "gens, target, error",
    [
        # not in the ideal: an unchecked reduction returns None for these
        ([poly("3*x", F7)], poly("x*y + 1"), ContextMismatch),
        ([MPoly(QQ, X_Y, {(1, 0): 1})], poly("z"), ValueError),
        ([MPoly(QQ, X_Y_Z_T, {(1, 0, 0, 0): 1})], poly("z"), ValueError),
        # in the ideal, and a constant generator
        ([poly("3*x", F7)], poly("x"), ContextMismatch),
        ([poly("3", F7)], one(), ContextMismatch),
        ([MPoly(QQ, X_Y, {(1, 0): 1})], poly("x"), ValueError),
        ([MPoly(QQ, X_Y_Z_T, {(1, 0, 0, 0): 1})], poly("x"), ValueError),
    ],
    ids=["field", "xy", "xyzT", "field-member", "field-constant", "xy-member", "xyzT-member"],
)
def test_mixed_ring_problems_are_refused(gens, target, error):
    """A generator over another field or variable tuple than the target is
    refused before any step, as MPoly arithmetic refuses it."""
    with pytest.raises(error) as info:
        express_in_ideal(IdealProblem(gens, target))
    if error is ValueError:
        assert str(info.value) == "polynomials from different rings"


# --- engine keys -----------------------------------------------------------------


def exponent_vectors(n, top=2**20):
    return st.tuples(*(st.integers(0, top) for _ in range(n)))


@pytest.mark.parametrize("n", [3, 4])
def test_engine_keys_order_unpack_and_multiply_as_exponent_vectors(n):
    """Key order is ``drl_key`` order, unpack inverts pack, and the key of
    a product is the sum of the keys."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(exponent_vectors(n), exponent_vectors(n))
    def check(a, b):
        ka, kb = pack(a), pack(b)
        assert (ka < kb) == (drl_key(a) < drl_key(b)) and (ka == kb) == (a == b)
        assert unpack(ka, n) == a
        assert pack(tuple(x + y for x, y in zip(a, b))) == ka + kb

    check()


@pytest.mark.parametrize("n", [3, 4])
def test_engine_keys_stop_at_the_field_limit(n):
    """A vector of degree MAX_DEGREE packs and unpacks exactly, one of
    degree MAX_DEGREE + 1 is refused."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, MAX_DEGREE), min_size=n - 1, max_size=n - 1), st.booleans())
    def check(cuts, over):
        cuts = sorted(cuts)
        top = MAX_DEGREE + over
        exp = tuple(b - a for a, b in zip([0] + cuts, cuts + [top]))
        if over:
            with pytest.raises(DegreeOverflow):
                pack(exp)
        else:
            assert unpack(pack(exp), n) == exp

    check()


@st.composite
def bounded_vectors(draw, n):
    """Exponent vectors of n variables and degree at most MAX_DEGREE, whose
    fields are often 0 or the whole degree, up to MAX_DEGREE."""
    top = draw(st.sampled_from([0, 1, 3, MAX_DEGREE]) | st.integers(0, MAX_DEGREE))
    cut = st.sampled_from([0, top]) | st.integers(0, top)
    cuts = sorted(draw(st.lists(cut, min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [top]))


@pytest.mark.parametrize("n", [1, 3, 4, 5])
def test_the_guard_bit_divisor_test_equals_the_exponent_comparison(n):
    """``guarded`` spreads a key's exponents into guard-bit fields, and the
    reduction's one-subtraction test says b divides a exactly when
    all(map(le, b, a)): on independent vectors, and on b cut down from a
    (so often dividing it) or raised by one in a field."""
    guards = groebner.guard_mask(n)
    W = groebner.GUARD_BITS

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bounded_vectors(n), bounded_vectors(n), st.sampled_from(["any", "cut", "raise"]),
           st.integers(0, n - 1))
    def check(a, b, how, k):
        if how == "cut":
            b = tuple(map(min, a, b))
        elif how == "raise" and sum(a) < MAX_DEGREE:
            b = a[:k] + (a[k] + 1,) + a[k + 1:]
        ga, gb = groebner.guarded(pack(a), n), groebner.guarded(pack(b), n)
        assert ga == sum(e << (W * i) for i, e in enumerate(a))
        assert (((ga | guards) - gb) & guards == guards) == all(map(le, b, a))

    check()


def test_the_engine_refuses_a_degree_past_the_field_limit():
    """A generator or target past MAX_DEGREE, or a pair whose lcm is, is
    refused before any step is spent: budget 0 raises DegreeOverflow, not a
    spent budget.  A pair whose lcm has degree MAX_DEGREE is queued and
    decided."""
    ctx, vars = QQ, RingElement.VARS
    x_big = MPoly.var(ctx, vars, "x", MAX_DEGREE + 1)
    with pytest.raises(DegreeOverflow):
        express_in_ideal(IdealProblem([x_big], one()), budget=0)
    with pytest.raises(DegreeOverflow):
        express_in_ideal(IdealProblem([poly("x")], x_big), budget=0)
    h = 2**31  # x^h y and x y^h have degree 2^31 + 1, their lcm 2^32
    gens = [MPoly(ctx, vars, {(h, 1, 0): 1}), MPoly(ctx, vars, {(1, h, 0): 1})]
    with pytest.raises(DegreeOverflow):
        express_in_ideal(IdealProblem(gens, one()), budget=0)
    gens[1] = MPoly(ctx, vars, {(1, h - 1, 0): 1})
    assert express_in_ideal(IdealProblem(gens, one()), budget=0) is None
