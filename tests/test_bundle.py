import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from jouanolou import bundle, jring, morphism, polys
from jouanolou.bundle import (
    bezout_from_unit_resultant,
    det_subset,
    expand_mixed,
    expand_sections,
    generation_cofactors,
    mn_matrices,
    mu_product,
    normalize_section,
    poly_add,
    poly_mul,
    raised_lift,
    resultant_identities,
    resultant_univ,
    sigma,
    sylvester_matrix,
    unit_scalar,
    unit_split,
)
from jouanolou.errors import PreconditionViolated, ResultantNotUnit
from jouanolou.field import FieldCtx, Fp, QQ
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import cert_expands_to_one, generation_columns, n_pi
from jouanolou.textio import map_str, parse_ring, ring_str


def R(s, ctx=QQ):
    return parse_ring(s, ctx)


ONE = RingElement.one(QQ)
ZERO = RingElement.zero(QQ)


def test_normalize_pure_bottom_generator():
    s = normalize_section(1, [ONE, ZERO])
    assert s == (ONE, ZERO)
    assert expand_sections(1, s) == [(R("x"), R("z"))]


def test_normalize_mixed_generator():
    assert normalize_section(2, [ZERO, ONE, ZERO]) == (R("x*y + 2*y*w"), R("z*w"))


def test_normalize_pure_top_generator():
    assert normalize_section(2, [ZERO, ZERO, ONE]) == (ZERO, ONE)


def test_normalize_idempotent():
    c0, c1 = normalize_section(3, [R("y"), R("x + 1"), ZERO, R("z^2")])
    assert normalize_section(3, [c0, ZERO, ZERO, c1]) == (c0, c1)


def test_normalize_checks_the_vector_length():
    with pytest.raises(ValueError, match="length 3"):
        normalize_section(2, [ONE, ZERO])
    with pytest.raises(ValueError, match="length 2"):
        sigma(1, [ZERO, ONE], [ONE, ZERO, ZERO])
    with pytest.raises(ValueError, match="length 4"):
        normalize_section(-3, [RingPolyT.zero(QQ)] * 2)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_normalize_skips_zero_entries_and_keeps_the_ring(ctx):
    zero, zero_t = RingElement.zero(ctx), RingPolyT.zero(ctx)
    for n in (1, 3, -2):
        size = abs(n) + 1
        assert normalize_section(n, [zero] * size) == (zero, zero)
        assert all(type(c) is RingElement for c in normalize_section(n, [zero] * size))
        assert all(type(c) is RingPolyT for c in normalize_section(n, [zero_t] * size))
    # entries of R beside a zero of R[T]: the pair lies in R[T], as lifted
    vec = [R("y", ctx), zero_t, R("x + 1", ctx), zero]
    pair = normalize_section(3, vec)
    assert all(type(c) is RingPolyT for c in pair)
    flat = [R("y", ctx), zero, R("x + 1", ctx), zero]
    assert pair == tuple(RingPolyT.from_ring(c) for c in normalize_section(3, flat))


def test_mu_products():
    x, y = (ONE, ZERO), (ZERO, ONE)
    assert mu_product(x, 1, x, 1) == (ONE, ZERO)
    assert mu_product(y, 1, y, 1) == (ZERO, ONE)
    assert mu_product(x, 1, y, 1) == (R("x*y + 2*y*w"), R("z*w"))


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_mu_product_expands_to_the_componentwise_product(kind):
    rng = random.Random(f"mu:{kind}")
    sign = 1 if kind == "P" else -1
    gens = ("x", "y", "z", "w", "1", "2*x - y", "z*w + 3")
    for _ in range(12):
        m, n = rng.randint(1, 3) * sign, rng.randint(1, 3) * sign
        c = (R(rng.choice(gens)), R(rng.choice(gens)))
        d = (R(rng.choice(gens)), R(rng.choice(gens)))
        ex, ew = expand_sections(m, c)[0]
        fx, fw = expand_sections(n, d)[0]
        assert expand_sections(m + n, mu_product(c, m, d, n)) == [(ex * fx, ew * fw)]


def test_p1_q1_products_land_on_diagonal():
    # componentwise products of the degree-1 spanning columns against their
    # mirror-family counterparts are multiples of [x; w]
    pairs = {
        ("x", "z"): ("x", "y"),  # -> x*[x; w]
    }
    combos = [
        (("x", "z"), ("x", "y"), R("x")),
        (("x", "z"), ("z", "w"), R("z")),
        (("y", "w"), ("x", "y"), R("y")),
        (("y", "w"), ("z", "w"), R("w")),
    ]
    for (p1, p2), (q1, q2), factor in combos:
        prod = (R(p1) * R(q1), R(p2) * R(q2))
        assert prod == (factor * R("x"), factor * R("w"))


@pytest.mark.parametrize("ctx", [QQ, Fp(7)])
def test_mn_matrices_small(ctx):
    pair = mn_matrices(ctx, 1)
    one = RingElement.one(ctx)
    assert pair.A == one and pair.B == one
    assert pair.Mn == (
        (RingElement.gen_x(ctx), RingElement.gen_y(ctx)),
        (RingElement.gen_z(ctx), RingElement.gen_w(ctx)),
    )
    for n in (1, 2, 3, 4):
        p = mn_matrices(ctx, n)
        x, w = RingElement.gen_x(ctx), RingElement.gen_w(ctx)
        assert x**n * p.A + w**n * p.B == one
        M = p.Mn
        sq00 = M[0][0] * M[0][0] + M[0][1] * M[1][0]
        assert sq00 == M[0][0]


def test_unit_split():
    for m in (1, 2, 3, 5):
        A, B = unit_split(QQ, m)
        x, w = R("x"), R("w")
        assert x**m * A + w**m * B == ONE


def _ring_sum(ctx, terms):
    """sum(c * x^a y^b z^d w^e) over ((a, b, d, e), c) pairs, c an integer,
    through the normal form of a polynomial of the free ring (oracle)."""
    raw = {m: r for m, c in terms if (r := ctx.rfrom_int(c))}
    return jring.mpoly_to_ring(polys.MPoly(ctx, ("x", "y", "z", "w"), raw))


def _rewrite_oracle(ctx, n, i):
    m = abs(n)
    if i == m:
        return RingElement.zero(ctx), RingElement.one(ctx)
    p = _ring_sum(ctx, (((m - i - d, i, 0, d), comb(m, d)) for d in range(m - i + 1)))
    q = _ring_sum(ctx, (((m - d, 0, m - i, d + i - m), comb(m, d)) for d in range(m - i + 1, m + 1)))
    return (p.tau(), q.tau()) if n < 0 else (p, q)


def _unit_split_oracle(ctx, m):
    top = 2 * m - 1
    return (_ring_sum(ctx, (((m - 1 - k, 0, 0, k), comb(top, k)) for k in range(m))),
            _ring_sum(ctx, (((top - k, 0, 0, k - m), comb(top, k)) for k in range(m, 2 * m))))


@pytest.mark.parametrize("ctx", [QQ, Fp(7), Fp(5)], ids=str)
def test_int_built_constants_equal_the_free_ring_construction(ctx, monkeypatch):
    """The constants built afresh on ints equal the free-ring construction
    (rewrite pairs, unit splits) and ring powers (pure powers)."""
    monkeypatch.setattr(bundle, "_REWRITE_CACHE", {})
    for n in (*range(1, 13), *range(-12, 0)):
        for i in range(abs(n) + 1):
            assert bundle.rewrite_constants(ctx, n, i) == _rewrite_oracle(ctx, n, i), (n, i)
    for m in range(1, 25):
        assert unit_split.__wrapped__(ctx, m) == _unit_split_oracle(ctx, m), m
    gens = (RingElement.gen_x, RingElement.gen_y, RingElement.gen_z, RingElement.gen_w)
    for n in range(13):
        assert bundle.pure_powers.__wrapped__(ctx, n) == tuple(g(ctx) ** n for g in gens), n


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_cached_constants_repeat_equal_to_fresh_constants(ctx):
    """Cached rewrite pairs and unit splits equal the oracle's on repeated
    calls and for an equal field given as another context object."""
    for n, i, m in ((3, 1, 2), (-4, 2, 5), (3, 1, 2)):
        for field in (ctx, FieldCtx(ctx.p)):
            assert bundle.rewrite_constants(field, n, i) == _rewrite_oracle(ctx, n, i)
            assert unit_split(field, m) == _unit_split_oracle(ctx, m)


def test_sigma_identity_pair():
    L0, L1 = [ZERO, ONE], [ONE, ZERO]  # (alpha, beta)
    s0, s1 = sigma(1, L0, L1)
    assert expand_sections(1, s0, s1) == [(R("x"), R("z")), (R("y"), R("w"))]
    assert resultant_univ(L0, L1, 1, 1) == ONE


def test_sigma_collapses_but_resultant_differs():
    L0, L1 = [R("z"), R("x")], [ONE, ZERO]  # (x*alpha + z*beta, beta)
    s0, s1 = sigma(1, L0, L1)
    assert expand_sections(1, s0, s1) == [(R("x"), R("z")), (R("y"), R("w"))]
    assert resultant_univ(L0, L1, 1, 1) == R("x")
    assert resultant_univ(L0, L1, 1, 1) != ONE


def test_two_by_two_resultant():
    a0, b0, b1 = R("y + 2"), R("z"), R("3")
    # (alpha + a0 beta, b1 alpha + b0 beta)
    assert resultant_univ([a0, ONE], [b0, b1], 1, 1) == b0 - a0 * b1


def _trimmed(lst):
    out = list(lst)
    while out and out[-1].is_zero:
        out.pop()
    return out


def test_bezout_examples():
    U, V = bezout_from_unit_resultant([ZERO, ONE], [ONE])  # (X, 1): U = 0, V = 1
    assert _trimmed(U) == [] and _trimmed(V) == [ONE]
    U, V = bezout_from_unit_resultant([-ONE, ONE], [ONE, ONE])  # (X-1, X+1)
    assert U == [R("-1/2")] and V == [R("1/2")]
    with pytest.raises(ResultantNotUnit):
        bezout_from_unit_resultant([ZERO, ONE], [R("y")])  # (X, y)


def test_bezout_reverifies():
    rng = random.Random(2)
    for _ in range(20):
        A = [R(str(rng.randint(-3, 3))) for _ in range(rng.randint(1, 4))] + [ONE]
        B = [R(str(rng.randint(-3, 3))) for _ in range(len(A) - 1)]
        try:
            U, V = bezout_from_unit_resultant(A, B)
        except ResultantNotUnit:
            continue
        combo = poly_add(poly_mul(A, U, ZERO), poly_mul(B, V, ZERO))
        assert combo[0] == ONE and all(c.is_zero for c in combo[1:])


def test_resultant_identities_examples():
    # A = X + a0, B = b1 X + b0, u = 2: conservation gives -2(b0 - a0 b1)
    a0 = QQ.elem(3)
    b0, b1 = QQ.elem(5), QQ.elem(2)
    u = QQ.elem(2)
    A = [RingElement.from_scalar(a0), ONE]
    B = [RingElement.from_scalar(b0), RingElement.from_scalar(b1)]
    rep = resultant_identities(A, B, [ZERO], u)
    assert rep.all_hold
    expected = RingElement.from_scalar(-(u * (b0 - a0 * b1)))
    assert rep.conservation_lhs == expected
    # reversal of (X, 1) at bound 1 flips the sign
    rep2 = resultant_identities([ZERO, ONE], [ONE], [ZERO], QQ.one)
    assert rep2.reversal_lhs == -ONE
    # shift with C = 0 is trivially stable
    assert rep2.shift_lhs == rep2.shift_rhs


def test_resultant_identities_preconditions():
    with pytest.raises(PreconditionViolated):
        resultant_identities([ONE, R("2")], [ONE], [ZERO], QQ.one)  # not monic
    with pytest.raises(PreconditionViolated):
        resultant_identities([ZERO, ONE], [ZERO], [ZERO], QQ.one)  # zero resultant


def test_section_equality_is_expanded_equality():
    # y*[x; z] and x*[y; w] are the same section with different coefficients
    s1, s2 = (R("y"), ZERO), (ZERO, R("x"))
    assert s1 != s2
    e1, e2 = expand_sections(1, s1, s2)
    assert e1 == e2


def test_tau_transport():
    # entrywise tau turns a P_n pair into the Q_n pair of the tau-moved section
    s = (R("x + 2*y"), R("z"))
    t = tuple(c.tau() for c in s)
    (ex, ew), (tx, tw) = expand_sections(2, s)[0], expand_sections(-2, t)[0]
    assert (tx, tw) == (ex.tau(), ew.tau())
    assert tuple(c.tau() for c in t) == s


def _float_at(r, x, y, z):
    """A ring element's value at a real point of the device."""
    return sum(float(c) * x**i * y**j * z**k for (i, j, k), c in r.to_mpoly().sorted_terms())


def test_patching_relation_numerically():
    # for sections of P_n, f_w = (z/x)^n f_x wherever x != 0
    import math

    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 3)
        vec = [R(str(rng.randint(-2, 2))) for _ in range(n + 1)]
        fx, fw = expand_sections(n, normalize_section(n, vec))[0]
        theta = rng.uniform(0.2, math.pi - 0.2)
        xv = (1 + math.cos(theta)) / 2
        yv = zv = math.sin(theta) / 2
        lhs = _float_at(fw, xv, yv, zv)
        rhs = (zv / xv) ** n * _float_at(fx, xv, yv, zv)
        assert abs(lhs - rhs) < 1e-9


def test_normalize_matches_bruteforce_oracle():
    rng = random.Random(9)
    ctx = Fp(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        kind = rng.choice(("P", "Q"))
        vec = []
        for _ in range(n + 1):
            e = RingElement.from_raw(ctx, ctx.rfrom_int(rng.randrange(5)))
            if rng.random() < 0.5:
                e = e * RingElement.gen_y(ctx)
            vec.append(e)
        d = n if kind == "P" else -n
        sec = normalize_section(d, vec)
        assert expand_sections(d, sec)[0] == expand_mixed(d, vec, ctx)


@pytest.mark.parametrize("kind", ["P", "Q"])
def test_normalize_over_rt_matches_bruteforce_oracle(kind):
    # the same normalizer serves R[T]: T-dependent vectors expand like the
    # brute-force sum, and T-free ones normalize as over R
    rng = random.Random(f"rt:{kind}")
    ctx = Fp(7)
    T = RingPolyT.gen_T(ctx)
    gens = (RingElement.gen_x, RingElement.gen_y, RingElement.gen_z, RingElement.one)
    for _ in range(10):
        n = rng.randint(1, 4)
        flat = [
            RingElement.from_scalar(ctx.elem(rng.randrange(7))) * rng.choice(gens)(ctx)
            for _ in range(n + 1)
        ]
        vec = [RingPolyT.from_ring(e) * T ** rng.randrange(3) for e in flat]
        d = n if kind == "P" else -n
        sec = normalize_section(d, vec)
        assert all(isinstance(c, RingPolyT) for c in sec)
        assert expand_sections(d, sec)[0] == expand_mixed(d, vec, ctx)
        lifted = normalize_section(d, [RingPolyT.from_ring(e) for e in flat])
        assert lifted == tuple(RingPolyT.from_ring(c) for c in normalize_section(d, flat))


def test_generation_cofactors_expand():
    # the pair behind (X^2+1)/X
    c0 = [ONE, ZERO, ONE]
    c1 = [ZERO, ONE, ZERO]
    cert = generation_cofactors(2, c0, c1)
    s0, s1 = sigma(2, c0, c1)
    cols = generation_columns(2, *s0, *s1)
    assert cert_expands_to_one(cert, cols)


def test_resultant_agrees_with_sympy_on_random_draws():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    X = sympy.symbols("X")
    for _ in range(20):
        da, db = rng.randint(1, 4), rng.randint(1, 4)
        a = [rng.randint(-4, 4) for _ in range(da)] + [rng.randint(1, 3)]
        b = [rng.randint(-4, 4) for _ in range(db)] + [rng.randint(1, 3)]
        A = [RingElement.from_scalar(QQ.elem(v)) for v in a]
        B = [RingElement.from_scalar(QQ.elem(v)) for v in b]
        ours = resultant_univ(A, B)
        As = sum(v * X**i for i, v in enumerate(a))
        Bs = sum(v * X**i for i, v in enumerate(b))
        want = sympy.resultant(As, Bs, X)
        assert ours == RingElement.from_scalar(QQ.elem(int(want)))


# ---------------------------------------------------------------------------
# the determinant engine against the subset expansion it replaced


def _det_oracle(rows, zero):
    """Determinant by expansion along rows with subset memoization."""
    size = len(rows)
    full = (1 << size) - 1
    minors = {}
    for mask in sorted(range(1, full + 1), key=lambda m: m.bit_count()):
        k = mask.bit_count()
        row = rows[size - k]
        acc = None
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            entry = row[low.bit_length() - 1]
            if not entry.is_zero:
                term = entry if k == 1 else entry * minors[mask ^ low]
                if sign < 0:
                    term = -term
                acc = term if acc is None else acc + term
            sign = -sign
        minors[mask] = zero if acc is None else acc
    return minors[full]


def _replaced_by_last_unit_row(rows, i, zero, one):
    unit = [zero] * (len(rows) - 1) + [one]
    return rows[:i] + [unit] + rows[i + 1:]


def _berkowitz(rows, zero, one):
    """(det M, last row of adj M) without division, over R, R[T] or k: the
    oracle of the large sizes.  The determinant is the last coefficient of
    Berkowitz's characteristic polynomial, and the row comes from Horner on
    adj M = (-1)^(m+1) (M^(m-1) + p1 M^(m-2) + ... + p(m-1) I)."""
    size = len(rows)

    def dot(row, vec):
        return sum((e * v for e, v in zip(row, vec) if not (e.is_zero or v.is_zero)), zero)

    poly = [one]  # coefficients of det(lambda*I - A_r), leading 1
    for r in range(size):
        # each leading block A_(r+1) = [[A_r, S], [R, a]] multiplies poly by
        # the Toeplitz matrix with first column (1, -a, -R*S, -R*A_r*S, ...)
        column, negated = [rows[i][r] for i in range(r)], [rows[r][r]]
        for _ in range(r):
            negated.append(dot(rows[r][:r], column))
            column = [dot(rows[i][:r], column) for i in range(r)]
        first = [one] + [-c for c in negated]
        poly = [sum((first[k] * poly[j - k] for k in range(j + 1) if j - k <= r), zero)
                for j in range(r + 2)]
    columns = list(zip(*rows))
    vec = [zero] * (size - 1) + [one]  # v <- v*M + p_k * e_last
    for k in range(1, size):
        vec = [dot(col, vec) for col in columns]
        vec[-1] = vec[-1] + poly[k]
    if size % 2 == 0:
        return poly[-1], [-v for v in vec]
    return -poly[-1], vec


def _cramer_bezout(A, B, m, n):
    """Bezout cofactors over R by Cramer's rule, one oracle determinant each."""
    zero, one = RingElement.zero(A[0].ctx), RingElement.one(A[0].ctx)
    rows = sylvester_matrix(A, B, m, n, zero)
    inv = unit_scalar(_det_oracle(rows, zero)).inverse()
    lam = [
        _det_oracle(_replaced_by_last_unit_row(rows, i, zero, one), zero).scale(inv)
        for i in range(m + n)
    ]
    return [lam[n - 1 - e] for e in range(n)], [lam[n + m - 1 - e] for e in range(m)]


def _random_entry(rng, ring, ctx, constant):
    """Mostly zeros and scalars; unless ``constant``, sometimes times a
    generator (or T over R[T])."""
    if rng.random() < 0.5:
        return ring.zero(ctx)
    e = RingElement.from_scalar(ctx.elem(rng.randint(-3, 3)))
    if not constant and rng.random() < 0.25:
        e = e * rng.choice((RingElement.gen_x, RingElement.gen_y, RingElement.gen_z))(ctx)
    if ring is RingElement:
        return e
    e = RingPolyT.from_ring(e)
    return e * RingPolyT.gen_T(ctx) if not constant and rng.random() < 0.25 else e


RINGS = [(RingElement, QQ), (RingElement, Fp(7)), (RingPolyT, QQ)]


def _random_matrix(rng, ring, ctx, size, constant):
    rows = [[_random_entry(rng, ring, ctx, constant) for _ in range(size)] for _ in range(size)]
    if not constant:
        rows[0][0] = rows[0][0] + RingElement.gen_y(ctx)
    return rows


def _division_free(rows, zero):
    """``det_subset`` with the route over k turned off, as for a symbolic
    matrix: Bareiss on constants of k, in R, R[T] or k itself."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(bundle, "_constant_values", lambda rows: None)
        return det_subset(rows, zero)


@pytest.mark.parametrize("ring, ctx", RINGS)
@pytest.mark.parametrize("constant", [True, False], ids=["constant", "symbolic"])
def test_determinant_engine_matches_subset_oracle(ring, ctx, constant):
    rng = random.Random(f"det:{ring.__name__}:{ctx.p}:{constant}")
    zero, one = ring.zero(ctx), ring.one(ctx)
    # constant entries take the route over k, entries in x, y, z, w or T
    # Bareiss, at every size
    for size in range(1, 11):
        rows = _random_matrix(rng, ring, ctx, size, constant)
        assert (bundle._constant_values(rows) is not None) == constant
        want = _det_oracle(rows, zero)
        det, last = det_subset(rows, zero)
        assert det == want
        if want.is_zero:
            # a singular matrix has no adjugate row on either route
            assert last is None and _division_free(rows, zero) == (zero, None)
            continue
        assert len(last) == size
        for i, entry in enumerate(last):
            assert entry == _det_oracle(_replaced_by_last_unit_row(rows, i, zero, one), zero)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)])
def test_determinant_engine_at_the_symbolic_split(ctx):
    # symbolic matrices of 11 and 12 rows, through Bareiss
    rng = random.Random(f"det:symbolic-split:{ctx.p}")
    zero = RingElement.zero(ctx)
    for size in (11, 12):
        rows = _random_matrix(rng, RingElement, ctx, size, False)
        want = _det_oracle(rows, zero)
        det, last = det_subset(rows, zero)
        assert det == want and not det.is_zero
        # last row of adj M times M is det M * e_last, which pins it when det M != 0
        for j in range(size):
            acc = zero
            for i in range(size):
                acc = acc + last[i] * rows[i][j]
            assert acc == (det if j == size - 1 else zero)


def test_determinant_engine_on_a_singular_matrix():
    rows = [[RingElement.from_scalar(QQ.elem(i + j)) for j in range(9)] for i in range(9)]
    # both routes read det 0 and give no adjugate row (rank 2 < 8)
    assert det_subset(rows, ZERO) == (ZERO, None)
    assert _division_free(rows, ZERO) == (ZERO, None)


@pytest.mark.parametrize("ctx, top", [(QQ, 6), (Fp(7), 4)])
def test_reference_cofactors_match_cramer(ctx, top, monkeypatch):
    ours = {n: generation_cofactors(n, *n_pi(n, ctx).homog) for n in range(1, top + 1)}
    monkeypatch.setattr(bundle, "bezout_from_unit_resultant", _cramer_bezout)
    for n, cert in ours.items():
        f = n_pi(n, ctx)
        want = generation_cofactors(n, *f.homog)
        assert cert == want == f.cert
        assert [ring_str(c) for c in cert] == [ring_str(c) for c in want]


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_generation_cofactors_eliminate_twice(ctx, monkeypatch):
    # one Bezout solve for the pair and one for the reversed pair, and no
    # separate resultant before them
    f = n_pi(3, ctx)
    sizes = []

    def counted(rows, zero):
        sizes.append(len(rows))
        return det_subset(rows, zero)

    monkeypatch.setattr(bundle, "det_subset", counted)
    assert generation_cofactors(3, *f.homog) == f.cert
    assert sizes == [6, 6]


@pytest.mark.parametrize(
    "L0, L1, res",
    [
        # (X + 1)^2 and X + 1: constants with a common root
        (["1", "2", "1"], ["1", "1", "0"], "0"),
        (["x", "1"], ["y", "1"], "-x + y"),
    ],
)
def test_generation_cofactors_refuse_without_unit_resultant(L0, L1, res):
    L0, L1 = [R(c) for c in L0], [R(c) for c in L1]
    n = len(L0) - 1
    assert ring_str(resultant_univ(L0, L1, n, n)) == res
    with pytest.raises(ResultantNotUnit) as refused:
        generation_cofactors(n, L0, L1)
    assert str(refused.value) == "pair does not have unit resultant"
    assert refused.value.__suppress_context__


@pytest.mark.parametrize("ctx", [QQ, Fp(7)])
def test_reference_maps_of_degree_seven_and_eight(ctx):
    for n in (7, 8):
        f = n_pi(n, ctx)
        assert f.degree == n
        assert cert_expands_to_one(f.cert, generation_columns(n, *f.data))


# ---------------------------------------------------------------------------
# the route over k for matrices of constants, against the division-free ones

K_FIELDS = [QQ, Fp(7), Fp(1000003)]
ENTRY_KINDS = ["R", "R[T]", "k"]


def _constant_entry(kind, ctx, value):
    c = ctx.elem(value)
    if kind == "k":
        return c
    return (RingElement if kind == "R" else RingPolyT).from_scalar(c)


def _random_constant(rng, kind, ctx):
    """Zero three times in ten, else a small integer (a fraction over Q)."""
    if rng.random() < 0.3:
        return _constant_entry(kind, ctx, 0)
    value = rng.randint(-9, 9) or 1
    if ctx.p is None:
        value = Fraction(value, rng.randint(1, 4))
    return _constant_entry(kind, ctx, value)


def _random_constant_matrix(rng, kind, ctx, size):
    return [[_random_constant(rng, kind, ctx) for _ in range(size)] for _ in range(size)]


def _oracle_adjugate_row(rows, zero, one):
    return [
        _det_oracle(_replaced_by_last_unit_row(rows, i, zero, one), zero) for i in range(len(rows))
    ]


@pytest.mark.parametrize("kind", ENTRY_KINDS)
@pytest.mark.parametrize("ctx", K_FIELDS, ids=str)
def test_k_route_matches_the_subset_oracle(ctx, kind):
    rng = random.Random(f"k-route:{kind}:{ctx.p}")
    zero, one = _constant_entry(kind, ctx, 0), _constant_entry(kind, ctx, 1)
    for size in range(1, 11):
        # draws until an invertible one; the singular ones on the way count too
        want = zero
        while want.is_zero:
            rows = _random_constant_matrix(rng, kind, ctx, size)
            assert bundle._constant_values(rows) is not None
            want = _det_oracle(rows, zero)
            det, last = det_subset(rows, zero)
            assert det == want
            if want.is_zero:
                # no adjugate row on either route
                assert last is None and _division_free(rows, zero) == (zero, None)
                continue
            assert last == _oracle_adjugate_row(rows, zero, one)
            assert all(type(e) is type(zero) for e in [det, *last])


@pytest.mark.parametrize("kind", ENTRY_KINDS)
@pytest.mark.parametrize("ctx", K_FIELDS, ids=str)
def test_k_route_matches_berkowitz_on_large_matrices(ctx, kind, monkeypatch):
    rng = random.Random(f"k-route-large:{kind}:{ctx.p}")
    zero, one = _constant_entry(kind, ctx, 0), _constant_entry(kind, ctx, 1)
    # the entries of R and R[T] cost more in Berkowitz: fewer sizes there
    sizes = range(11, 17) if kind == "k" else (11, 13, 16)
    for size in sizes:
        rows = _random_constant_matrix(rng, kind, ctx, size)
        while det_subset(rows, zero)[0].is_zero:
            rows = _random_constant_matrix(rng, kind, ctx, size)
        ours = det_subset(rows, zero)
        assert ours == _berkowitz(rows, zero, one) == _division_free(rows, zero)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_k_route_on_sylvester_matrices_with_vanishing_tops(ctx):
    rng = random.Random(f"k-route-sylvester:{ctx.p}")
    zero, one = RingElement.zero(ctx), RingElement.one(ctx)
    units = 0
    for n in range(1, 5):
        for vanishing in ((0,), (1,), (0, 1)):
            for _ in range(3):
                pair = [[_random_constant(rng, "R", ctx) for _ in range(n + 1)] for _ in range(2)]
                for side in vanishing:
                    pair[side][n] = zero
                pair[vanishing[0]][n - 1] = one  # a nonzero second coefficient
                A, B = pair
                rows = sylvester_matrix(A, B, n, n, zero)
                assert rows[0][0].is_zero or rows[n][0].is_zero  # a pivot needs a swap
                want = _det_oracle(rows, zero)
                assert resultant_univ(A, B, n, n) == want
                det, last = det_subset(rows, zero)
                assert det == want
                if want.is_zero:
                    # no adjugate row on either route
                    assert last is None and _division_free(rows, zero) == (zero, None)
                else:
                    assert last == _oracle_adjugate_row(rows, zero, one)
                if unit_scalar(want) is None:
                    with pytest.raises(ResultantNotUnit):
                        bezout_from_unit_resultant(A, B, n, n)
                else:
                    units += 1
                    assert bezout_from_unit_resultant(A, B, n, n) == _cramer_bezout(A, B, n, n)
    assert units >= 12


def test_k_route_on_the_pair_of_the_cli_sign_check():
    A, B = ([R(c) for c in text.split(";")] for text in ("1; 2; 0; 3; 1", "2; 0; 1; 1; 0"))
    assert resultant_univ(A, B, 4, 4) == R("-29")
    A7, B7 = ([R(c, Fp(7)) for c in text.split(";")] for text in ("1; 2; 0; 3; 1", "2; 0; 1; 1; 0"))
    assert resultant_univ(A7, B7, 4, 4) == R("6", Fp(7))


@pytest.mark.parametrize("kind", ENTRY_KINDS)
@pytest.mark.parametrize("ctx", K_FIELDS, ids=str)
def test_k_route_declines_singular_matrices(ctx, kind):
    rng = random.Random(f"k-route-singular:{kind}:{ctx.p}")
    zero, one = _constant_entry(kind, ctx, 0), _constant_entry(kind, ctx, 1)
    nonzero_adjugates = 0
    for size in range(3, 9):
        for deficiency in (1, 2):
            rows = _random_constant_matrix(rng, kind, ctx, size)
            # the last rows become combinations of the others: rank <= m - deficiency
            for r in range(size - deficiency, size):
                weights = [_random_constant(rng, kind, ctx) for _ in range(size - deficiency)]
                rows[r] = [
                    sum((w * rows[i][j] for i, w in enumerate(weights)), zero) for j in range(size)
                ]
            values = bundle._constant_values(rows)
            assert bundle._solve_over_k(ctx, values) == (ctx.rzero, None)
            assert det_subset(rows, zero) == (zero, None) == _division_free(rows, zero)
            # (0, None) also where adj M is not zero: at rank m - 1
            last = _oracle_adjugate_row(rows, zero, one)
            if deficiency == 2:
                assert all(e.is_zero for e in last)
            else:
                nonzero_adjugates += any(not e.is_zero for e in last)
    assert nonzero_adjugates >= 2


def _raises(*args):
    raise AssertionError("the resultant ran a route it does not need")


def _singular_constant_pairs(ctx):
    """Constant pairs of degree 3, 6 and 8 sharing the root -1, as in a
    RationalMapP1 that is not a map."""
    rng = random.Random(f"singular-constant-pair:{ctx.p}")
    zero, one = RingElement.zero(ctx), RingElement.one(ctx)
    for n in (3, 6, 8):
        A, B = (
            poly_mul([one, one], [_random_constant(rng, "R", ctx) for _ in range(n - 1)] + [one], zero)
            for _ in range(2)
        )
        yield n, A, B


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_resultant_of_a_singular_constant_pair_stays_over_k(ctx, monkeypatch):
    # elimination over k reads the determinant 0, and Bareiss does not run
    zero = RingElement.zero(ctx)
    monkeypatch.setattr(bundle, "_bareiss", _raises)
    for n, A, B in _singular_constant_pairs(ctx):
        rows = sylvester_matrix(A, B, n, n, zero)
        assert len(rows) == 2 * n and bundle._constant_values(rows) is not None
        # the oracle runs over k: 16 rows of R constants would take seconds
        values = [[e.constant_value() for e in row] for row in rows]
        want = RingElement.from_scalar(_det_oracle(values, ctx.elem(0)))
        assert want.is_zero
        assert resultant_univ(A, B, n, n) == want


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_bezout_refuses_a_singular_constant_pair_over_k(ctx, monkeypatch):
    # the Bezout solve reads det 0 off the elimination over k and refuses,
    # with no Bareiss pass after it
    monkeypatch.setattr(bundle, "_bareiss", _raises)
    for n, A, B in _singular_constant_pairs(ctx):
        with pytest.raises(ResultantNotUnit, match="pair does not have unit resultant"):
            generation_cofactors(n, A, B)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_resultant_leaves_out_the_adjugate_row(ctx, monkeypatch):
    # the 12-row pair (L0 + y*L1, L1 + z*L0) of the lift of n_pi(6): the
    # resultant eliminates M^t alone, while the adjugate row carries e_last
    # through the elimination and substitutes back, dividing more
    L0, L1 = n_pi(6, ctx).homog
    y, z = RingElement.gen_y(ctx), RingElement.gen_z(ctx)
    A = [a + y * b for a, b in zip(L0, L1)]
    B = [b + z * a for a, b in zip(L0, L1)]
    zero = RingElement.zero(ctx)
    rows = sylvester_matrix(A, B, 6, 6, zero)
    assert bundle._constant_values(rows) is None
    want = _det_oracle(rows, zero)
    divisions = []
    reduce = jring._reduce_tracked
    monkeypatch.setattr(jring, "_reduce_tracked", lambda *args: divisions.append(1) or reduce(*args))
    assert resultant_univ(A, B, 6, 6) == want
    alone = len(divisions)
    assert alone and det_subset(rows, zero, adjugate=False) == (want, None)
    assert len(divisions) == 2 * alone
    det, last = det_subset(rows, zero)
    assert det == want and len(divisions) - 2 * alone > alone
    # last row of adj M times M is det M * e_last
    for j in range(12):
        assert sum((last[i] * rows[i][j] for i in range(12)), zero) == (want if j == 11 else zero)


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_reference_maps_equal_without_the_k_route(ctx, monkeypatch):
    monkeypatch.setattr(morphism, "_NPI_CACHE", {})
    ours = {n: n_pi(n, ctx) for n in range(7, 13)}
    monkeypatch.setattr(morphism, "_NPI_CACHE", {})
    monkeypatch.setattr(bundle, "_constant_values", lambda rows: None)
    sizes = []
    bareiss = bundle._bareiss

    def counted(rows, zero, adjugate):
        sizes.append(len(rows))
        return bareiss(rows, zero, adjugate)

    monkeypatch.setattr(bundle, "_bareiss", counted)
    for n, f in ours.items():
        g = n_pi(n, ctx)
        assert map_str(f) == map_str(g)
        assert f.cert == g.cert and repr(f.cert) == repr(g.cert)
    assert sorted(set(sizes)) == list(range(14, 25, 2))


# ---------------------------------------------------------------------------
# Bareiss's elimination over R, R[T] and k, against the slow oracles

BAREISS_RINGS = [("R", QQ), ("R", Fp(7)), ("R[T]", QQ), ("R[T]", Fp(7)), ("k", QQ), ("k", Fp(7))]


def _bareiss_entry(rng, kind, ctx, nonzero=False):
    """Zero half the time unless ``nonzero``, else a small scalar, over R
    and R[T] sometimes times x, y or z (or T)."""
    while True:
        if kind == "k":
            e = ctx.elem(rng.randint(-3, 3) if rng.random() < 0.5 else 0)
        else:
            e = _random_entry(rng, RingElement if kind == "R" else RingPolyT, ctx, False)
        if not (nonzero and e.is_zero):
            return e


@pytest.mark.parametrize("kind, ctx", BAREISS_RINGS, ids=str)
def test_bareiss_swaps_rows_at_zero_pivots(kind, ctx):
    # M^t = P*U for U upper triangular with a nonzero diagonal and P a
    # permutation: each step finds its pivot where P put it, and det M is
    # sign(P) times the diagonal's product
    rng = random.Random(f"bareiss-swaps:{kind}:{ctx.p}")
    zero, one = _constant_entry(kind, ctx, 0), _constant_entry(kind, ctx, 1)
    odd = 0
    for size in range(2, 8):
        for _ in range(3):
            upper = [[_bareiss_entry(rng, kind, ctx, nonzero=i == j) if j >= i else zero
                      for j in range(size)] for i in range(size)]
            perm = rng.sample(range(size), size)
            rows = [list(col) for col in zip(*(upper[i] for i in perm))]
            inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
            odd += inversions % 2
            diagonal = one
            for i in range(size):
                diagonal = diagonal * upper[i][i]
            det, last = _division_free(rows, zero)
            assert det == (-diagonal if inversions % 2 else diagonal) == _det_oracle(rows, zero)
            assert last == _oracle_adjugate_row(rows, zero, one)
    assert odd >= 5


@pytest.mark.parametrize("kind, ctx", BAREISS_RINGS, ids=str)
def test_bareiss_returns_no_row_for_singular_matrices(kind, ctx):
    rng = random.Random(f"bareiss-singular:{kind}:{ctx.p}")
    zero = _constant_entry(kind, ctx, 0)
    for size in range(2, 8):
        rows = [[_bareiss_entry(rng, kind, ctx) for _ in range(size)] for _ in range(size)]
        # a row that combines two others with nonzero weights, or a zero column
        if size % 2:
            u, v = (_bareiss_entry(rng, kind, ctx, nonzero=True) for _ in range(2))
            rows[-1] = [u * a + v * b for a, b in zip(rows[0], rows[1])]
        else:
            for row in rows:
                row[size // 2] = zero
        assert _det_oracle(rows, zero).is_zero
        assert _division_free(rows, zero) == (zero, None)
        assert bundle._bareiss(rows, zero, False) == (zero, None)


@pytest.mark.parametrize("kind, ctx", BAREISS_RINGS, ids=str)
def test_bareiss_matches_berkowitz_on_large_matrices(kind, ctx):
    rng = random.Random(f"bareiss-large:{kind}:{ctx.p}")
    zero, one = _constant_entry(kind, ctx, 0), _constant_entry(kind, ctx, 1)
    # over R[T] these sparse draws divide by large norms, seconds from 14
    # rows on; 14 and 16 rows there are the Sylvester matrices of the lift of
    # n_pi(n) moved along T, (L0 + T*y*L1, L1 + T*z*L0)
    for size in (12,) if kind == "R[T]" else (12, 14, 16):
        want = (zero, None)
        while want[0].is_zero:
            rows = [[_bareiss_entry(rng, kind, ctx) for _ in range(size)] for _ in range(size)]
            want = _berkowitz(rows, zero, one)
        assert _division_free(rows, zero) == want
    if kind == "R[T]":
        t, y, z = RingPolyT.gen_T(ctx), RingElement.gen_y(ctx), RingElement.gen_z(ctx)
        for n in (7, 8):
            L0, L1 = ([RingPolyT.from_ring(c) for c in L] for L in n_pi(n, ctx).homog)
            A = [a + t * y * b for a, b in zip(L0, L1)]
            B = [b + t * z * a for a, b in zip(L0, L1)]
            rows = sylvester_matrix(A, B, n, n, zero)
            want = _berkowitz(rows, zero, one)
            assert not want[0].is_zero and det_subset(rows, zero) == want


# sha1 of map_str(n_pi(n)) at n = 12 and 16, recorded before the operand-box
# guard of ``polys._products``, when these builds packed 5 and 19 sums over Q
REFERENCE_MAP_SHA1 = {
    ("Q", 12): "75ae3e06ec1ff6ef238a46a081286cbc5dccf68c",
    ("Q", 16): "9651f8fe1dfb2b7a6f89f622b0ab91e6653fa6e0",
    ("F7", 12): "970320024b8b696bf8a297b10b59d43784b5390e",
    ("F7", 16): "7ef312e16c72612dfc0697be9fabf7d271c82304",
}
# sha1 of the lines ring_str(c) for c in n_pi(n).cert, recorded while the
# certificate came from two Sylvester solves (generation_cofactors)
REFERENCE_CERT_SHA1 = {
    ("Q", 12): "d74fb39bc22c0d5de6098be9cf769a302a87f653",
    ("Q", 16): "cc3667084556db923ffcbf269c054f3e488c00d8",
    ("F7", 12): "64b68a89b1b8f43f9c300c35c867018905487ffa",
    ("F7", 16): "112adcc890aec0d72a01fa9667b455f14f27eef7",
}


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=str)
def test_cold_reference_maps_pack_no_sum(ctx, monkeypatch):
    # the sums of a cold n_pi(n) fill 7-10% of their operand boxes: packed,
    # n_pi(24) over Q took ten times as long; counted, not timed
    packed = []

    def counted(*args):
        out = real(*args)
        packed.extend([] if out is None else [len(packed)])
        return out

    real = polys.packed_sum
    monkeypatch.setattr(polys, "packed_sum", counted)
    for n in (12, 16, 20):
        monkeypatch.setattr(morphism, "_NPI_CACHE", {})
        monkeypatch.setattr(bundle, "_REWRITE_CACHE", {})
        f = n_pi(n, ctx)
        text = map_str(f)
        assert packed == [], n
        if (str(ctx), n) in REFERENCE_MAP_SHA1:
            assert hashlib.sha1(text.encode()).hexdigest() == REFERENCE_MAP_SHA1[str(ctx), n]
            cert = "\n".join(ring_str(c) for c in f.cert)
            assert hashlib.sha1(cert.encode()).hexdigest() == REFERENCE_CERT_SHA1[str(ctx), n]


@pytest.mark.parametrize("ctx", [QQ, Fp(7)], ids=["Q", "F7"])
def test_pure_powers_repeat_equal_to_fresh_powers(ctx):
    """Cached powers equal powers computed afresh, on repeated calls and
    for an equal field given as another context object."""
    gens = (RingElement.gen_x, RingElement.gen_y, RingElement.gen_z, RingElement.gen_w)
    for n in (0, 1, 3, 1):
        fresh = tuple(g(ctx) ** n for g in gens)
        assert bundle.pure_powers(ctx, n) == fresh
        assert bundle.pure_powers(ctx, n) == fresh
    other = Fp(7) if ctx.p else QQ
    assert bundle.pure_powers(other, 2) == tuple(g(ctx) ** 2 for g in gens)


@pytest.mark.parametrize("ctx", [QQ, Fp(7), Fp(1000003)], ids=str)
def test_cassini_pair_is_the_bezout_pair_of_the_lift(ctx):
    """The lift recursion of n_pi is a product of [[X, -1], [1, 0]], of
    determinant 1: (-L1, L0) one step back solves the (n, n) system."""
    zero, one = RingElement.zero(ctx), RingElement.one(ctx)
    prev, lift = ([one], [zero]), ([zero, one], [one, zero])
    for n in range(1, 30):
        U, V = bezout_from_unit_resultant(*lift, n, n)
        assert (U, V) == ([-c for c in prev[1]], prev[0]), n
        prev, lift = lift, raised_lift(ctx.one, *lift, zero)


@pytest.mark.parametrize("ctx", [QQ, Fp(7), Fp(1000003)], ids=str)
def test_reference_certificate_equals_two_sylvester_solves(ctx):
    for n in range(1, 17):
        f = n_pi(n, ctx)
        assert f.cert == generation_cofactors(n, *f.homog), n
