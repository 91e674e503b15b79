import itertools
from fractions import Fraction

import pytest

from jouanolou.errors import BudgetExceeded
from jouanolou.field import Fp, QQ
from jouanolou.groebner import IdealProblem, express_in_ideal, relation_poly
from jouanolou.morphism import GB_VARS
from jouanolou.polys import MPoly, drl_key


def poly(s, ctx=QQ, vars=GB_VARS):
    from jouanolou.textio import parse_poly

    parsed = parse_poly(s, ctx, allow_T=False)
    terms = {}
    for mon, c in parsed.sorted_terms():
        assert mon[3] == 0, "test helper expects w-free input"
        terms[mon[:3]] = c
    return MPoly(ctx, vars, terms)


def one(ctx=QQ, vars=GB_VARS):
    return MPoly.const(ctx, vars, ctx.rone)


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
    r = relation_poly(QQ, GB_VARS)
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
    the kernel adds once per reduction step, not once per tail term.  The
    half on y^30 leaves the remaining values over an even denominator, all
    even, once it is dropped."""
    from jouanolou import groebner
    from jouanolou.polys import terms_add

    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return terms_add(*args, **kw)

    monkeypatch.setattr(groebner, "terms_add", counted)
    tail = {(0, 30, 0): Fraction(1, 2)}
    tail.update({(0, i, j): Fraction(i + 2 * j + 1) for i in range(20) for j in range(1, 20)})
    p = MPoly(QQ, GB_VARS, {(2, 0, 0): Fraction(1), **tail})
    g = poly("x - 1/3")
    zero = MPoly.zero(QQ, GB_VARS)
    basis = [groebner._Tracked(g, [one()])]
    normal, vec = groebner._reduce_tracked(p, [zero], basis, groebner._Budget(10))
    assert len(calls) == 2  # x^2 -> x/3 -> 1/9
    assert normal == MPoly(QQ, GB_VARS, {**tail, (0, 0, 0): Fraction(1, 9)})
    assert normal == p + vec[0] * g
