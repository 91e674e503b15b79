"""The acceptance battery: every numbered check the library must pass,
runnable from the command line (``jou selftest``) and from the test suite.

Each criterion is a function returning a failure list (empty = pass); the
runner times them and prints one line per criterion.  All randomness is
seeded, so runs are reproducible.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .bundle import (
    expand_mixed,
    expand_sections,
    mn_matrices,
    normalize_section,
    resultant_identities,
)
from .errors import PreconditionViolated, ResultantZero
from .field import FieldCtx, FieldElem, Fp, QQ
from .homgrp import ReferenceFamily, decompose, naive_sum_deg1, oplus
from .homotopy import (
    Segment,
    gu1_example_witness,
    interp_lift,
    lift_row_homotopy,
    mutate_witness,
    scaling_witness,
    transpose_inverse_witness,
    verify,
)
from .jring import RingElement
from .morphism import (
    JMap,
    RationalMapP1,
    g_uv,
    make_map,
    make_row,
    map_equal,
    n_pi,
    pullback_rational,
    rational_xu,
)
from .mwk import k1_canonical, k1_order, word
from .realize import winding_degree
from .sl2 import PointedSL2, act, boxplus_act, complete_pointed, identity_matrix, m_uv

SEED = 20240315


# ---------------------------------------------------------------------------
# random data helpers


def _rand_scalar(ctx: FieldCtx, rng, small=True) -> FieldElem:
    if ctx.is_rationals:
        num = rng.randint(-3, 3)
        den = rng.choice([1, 1, 2]) if small else rng.randint(1, 4)
        return ctx.elem(Fraction(num, den))
    return ctx.elem(rng.randrange(ctx.p))


def _rand_unit(ctx: FieldCtx, rng) -> FieldElem:
    while True:
        v = _rand_scalar(ctx, rng)
        if not v.is_zero:
            return v


def _rand_ring(ctx: FieldCtx, rng, deg=2, terms=3) -> RingElement:
    out = RingElement.zero(ctx)
    gens = [
        RingElement.one(ctx),
        RingElement.gen_x(ctx),
        RingElement.gen_y(ctx),
        RingElement.gen_z(ctx),
        RingElement.gen_w(ctx),
    ]
    for _ in range(terms):
        m = RingElement.from_scalar(_rand_scalar(ctx, rng))
        for _ in range(rng.randint(0, deg)):
            m = m * rng.choice(gens)
        out = out + m
    return out


def _rand_vanishing(ctx: FieldCtx, rng) -> RingElement:
    """A random element of the basepoint ideal (linear in y, z, w)."""
    y, z, w = RingElement.gen_y(ctx), RingElement.gen_z(ctx), RingElement.gen_w(ctx)
    return (
        y.scale(_rand_scalar(ctx, rng))
        + z.scale(_rand_scalar(ctx, rng))
        + w.scale(_rand_scalar(ctx, rng))
    )


def _rand_pointed_matrix(ctx: FieldCtx, rng) -> PointedSL2:
    """m_(u,v) times one random elementary factor: entries of degree <= 2."""
    M = m_uv(_rand_unit(ctx, rng), _rand_unit(ctx, rng))
    r = _rand_vanishing(ctx, rng)
    factor = PointedSL2.upper(r) if rng.random() < 0.5 else PointedSL2.lower(r)
    # through the checking constructor: r vanishes at the basepoint
    return M @ PointedSL2(factor.entries)


def _rand_rational(ctx: FieldCtx, rng, max_deg=3) -> RationalMapP1:
    while True:
        n = rng.randint(1, max_deg)
        a = [_rand_scalar(ctx, rng) for _ in range(n)] + [ctx.one]
        b = [_rand_scalar(ctx, rng) for _ in range(n)]
        if all(v.is_zero for v in b):
            b[rng.randrange(n)] = ctx.one
        try:
            return RationalMapP1(ctx, n, a, b)
        except ResultantZero:
            continue


# ---------------------------------------------------------------------------
# criteria


def crit01_matrix_identity():
    """m_(u,v) m_(v,s) = m_(u,s) on the stated grids; m_(u,v) m_(v,u) = 1."""
    failures = []
    Q = QQ
    grid_q = [Q.elem(v) for v in (1, -1, 2, -2, 3, 5)]
    F7 = Fp(7)
    grid_f = [F7.elem(v) for v in range(1, 7)]
    for ctx, grid in ((Q, grid_q), (F7, grid_f)):
        ident = identity_matrix(ctx)
        for u in grid:
            for v in grid:
                prod_inv = m_uv(u, v) @ m_uv(v, u)
                if prod_inv != ident:
                    failures.append(f"{ctx}: m({u},{v}) m({v},{u}) != 1")
                for s in grid:
                    if (m_uv(u, v) @ m_uv(v, s)) != m_uv(u, s):
                        failures.append(f"{ctx}: m({u},{v}) m({v},{s}) != m({u},{s})")
    return failures


def crit02_action_is_pullback():
    """act(m_(u,1), pi) equals the pullback of X/u, as the map (1,0;0,u)_1."""
    failures = []
    cases = [(QQ, [QQ.elem(v) for v in (2, 3, -1, Fraction(1, 2))])]
    F5 = Fp(5)
    cases.append((F5, [F5.elem(v) for v in range(1, 5)]))
    for ctx, units in cases:
        pi = n_pi(1, ctx)
        one, zero = RingElement.one(ctx), RingElement.zero(ctx)
        for u in units:
            lhs = act(m_uv(u, ctx.one), pi)
            mid = pullback_rational(rational_xu(u))
            rhs = make_map(1, one, zero, zero, RingElement.from_scalar(u))
            if not (map_equal(lhs, mid) and map_equal(mid, rhs)):
                failures.append(f"{ctx}: u={u}")
    return failures


def crit03_example_homotopy():
    """The explicit degree-raising family verifies with the stated endpoints."""
    failures = []
    cases = [(QQ, [QQ.elem(v) for v in (2, 3, -1, Fraction(1, 2))])]
    F5 = Fp(5)
    cases.append((F5, [F5.elem(v) for v in (2, 3, 4)]))
    for ctx, units in cases:
        refs = ReferenceFamily(ctx)
        pi = n_pi(1, ctx)
        two_pi = n_pi(2, ctx)
        for u in units:
            witness = gu1_example_witness(u, pi)
            start = oplus(g_uv(u, ctx.one), two_pi, refs)
            end, _ = naive_sum_deg1(u, pi)
            verdict = verify(witness, start, end)
            if not verdict:
                failures.append(f"{ctx}: u={u}: {verdict}")
    return failures


def crit04_idempotents():
    """M_n and M_n' are idempotent and x^n A + w^n B = 1 for n <= 6."""
    failures = []
    for ctx in (QQ, Fp(7)):
        x, w = RingElement.gen_x(ctx), RingElement.gen_w(ctx)
        one = RingElement.one(ctx)
        for n in range(1, 7):
            pair = mn_matrices(ctx, n)
            if x**n * pair.A + w**n * pair.B != one:
                failures.append(f"{ctx}: split identity fails at n={n}")
            for label, M in (("Mn", pair.Mn), ("Mn'", pair.Mn_prime)):
                sq = (
                    (M[0][0] * M[0][0] + M[0][1] * M[1][0], M[0][0] * M[0][1] + M[0][1] * M[1][1]),
                    (M[1][0] * M[0][0] + M[1][1] * M[1][0], M[1][0] * M[0][1] + M[1][1] * M[1][1]),
                )
                if sq != M:
                    failures.append(f"{ctx}: {label} not idempotent at n={n}")
    return failures


def crit05_resultant_suite():
    """The four resultant facts on >= 100 random pairs per field."""
    failures = []
    rng = random.Random(SEED + 5)
    for ctx in (QQ, Fp(101)):
        done = 0
        while done < 100:
            da, db = rng.randint(1, 4), rng.randint(0, 4)
            A = [_rand_scalar(ctx, rng) for _ in range(da)] + [ctx.one]
            B = [_rand_scalar(ctx, rng) for _ in range(db + 1)]
            C = [_rand_scalar(ctx, rng) for _ in range(max(da - db, 1))]
            u = _rand_unit(ctx, rng)
            try:
                report = resultant_identities(A, B, C, u)
            except PreconditionViolated:
                continue
            if not report.all_hold:
                failures.append(f"{ctx}: identity failed on {A}, {B}, {C}, u={u}")
            done += 1
    return failures


def crit06_decompose_roundtrip():
    """>= 25 maps decompose to a pointed matrix plus a verifying witness."""
    failures = []
    rng = random.Random(SEED + 6)
    ctx = QQ
    refs = ReferenceFamily(ctx)
    corpus: list[JMap] = []
    while len(corpus) < 17:
        corpus.append(pullback_rational(_rand_rational(ctx, rng)))
    for k in range(8):
        base = corpus[k]
        twist = m_uv(_rand_unit(ctx, rng), _rand_unit(ctx, rng))
        corpus.append(act(twist, base))
    for i, f in enumerate(corpus):
        d = decompose(f, refs)
        start = act(d.matrix, refs.ref(f.degree))
        if start != d.witness.start_record():
            failures.append(f"map {i}: recomposed map is not the witness start")
            continue
        verdict = verify(d.witness, start, f)
        if not verdict:
            failures.append(f"map {i}: {verdict}")
    return failures


def _appendix_maps(ctx):
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    pi = n_pi(1, ctx)
    g = g_uv(ctx.one, ctx.elem(-1))
    F = act(complete_pointed(g), pi)
    tilde = make_map(-1, one, zero, zero, -one)
    y, z = RingElement.gen_y(ctx), RingElement.gen_z(ctx)
    x = RingElement.gen_x(ctx)
    row2 = make_row(x + x - one, z + z)
    L = act(complete_pointed(row2), tilde)
    H = boxplus_act(complete_pointed(row2), pi)
    return pi, g, F, tilde, L, H, row2


def crit07_appendix_degrees():
    """The six realized degrees: 2, 1, 3, -1, 1, -1."""
    failures = []
    pi, g, F, tilde, L, H, _ = _appendix_maps(QQ)
    expected = [(g, 2), (pi, 1), (F, 3), (tilde, -1), (L, 1), (H, -1)]
    for f, want in expected:
        got = winding_degree(f)
        if got != want:
            failures.append(f"expected degree {want}, computed {got}")
    return failures


def crit08_additivity():
    """Winding numbers add along oplus on >= 20 pairs; the transpose action
    reproduces the stated counterexample -1 != 3."""
    failures = []
    rng = random.Random(SEED + 8)
    ctx = QQ
    # negative-degree references must realize their degree for additivity to
    # be visible; the tau-transported family does, the plain Q-basis map has
    # realized degree +1 (that mismatch is the open point about inverses)
    refs = ReferenceFamily(ctx, "naive")
    pi, g, F, tilde, L, H, row2 = _appendix_maps(ctx)
    pool = [
        pi,
        n_pi(2, ctx),
        tilde,
        g,
        F,
        row2,
        g_uv(ctx.elem(2), ctx.one),
        g_uv(ctx.elem(3), ctx.elem(2)),
        pullback_rational(rational_xu(ctx.elem(2))),
        pullback_rational(_rand_rational(ctx, rng, max_deg=2)),
    ]
    pairs = []
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            pairs.append((pool[i], pool[j]))
    checked = 0
    for f, gmap in pairs:
        if checked >= 21:
            break
        s = oplus(f, gmap, refs)
        if winding_degree(s) != winding_degree(f) + winding_degree(gmap):
            failures.append(
                f"additivity fails on degrees {f.degree}, {gmap.degree}"
            )
        checked += 1
    wrong = winding_degree(boxplus_act(complete_pointed(row2), pi))
    right = winding_degree(row2) + winding_degree(pi)
    if not (wrong == -1 and right == 3):
        failures.append(f"counterexample degrees off: {wrong} vs {right}")
    return failures


def crit09_k1_structure():
    """Cyclic order q-1; additivity of symbols on non-square pairs."""
    failures = []
    for q in (2, 3, 5, 7, 11, 13):
        ctx = Fp(q)
        if k1_order(ctx) != q - 1:
            failures.append(f"order off at q={q}")
        # (q-1)[g] = 0 for every unit g
        for v in range(1, q):
            total = word(ctx, *([v] * (q - 1)))
            if not k1_canonical(ctx, total).is_identity:
                failures.append(f"(q-1)[{v}] != 0 at q={q}")
        if q == 2:
            continue
        squares = {pow(r, 2, q) for r in range(1, q)}
        nonsquares = [v for v in range(1, q) if v not in squares]
        for v1 in nonsquares:
            for v2 in nonsquares:
                lhs = k1_canonical(ctx, word(ctx, (v1 * v2) % q))
                rhs = k1_canonical(ctx, word(ctx, v1)) + k1_canonical(ctx, word(ctx, v2))
                if lhs != rhs:
                    failures.append(f"q={q}: [{v1}*{v2}] != [{v1}]+[{v2}]")
    return failures


def _witness_corpus(ctx, rng, per_kind):
    """(witness, start, end) triples from each of the five constructors."""
    triples = []
    one = ctx.one
    for _ in range(per_kind):
        # interp_lift between two pointed completions of one row
        M = _rand_pointed_matrix(ctx, rng)
        d = _rand_vanishing(ctx, rng)
        A, B = M.row_A, M.row_B
        M2 = PointedSL2(((A, M.entries[0][1] + A * d), (B, M.entries[1][1] + B * d)))
        row = M.row_map()
        triples.append(("interp_lift", interp_lift(row, M, M2), row, row))

        # transpose-inverse: the row (U, V) is certified by the pair (A, B)
        M = _rand_pointed_matrix(ctx, rng)
        src = M.row_map()
        dst = make_row(M.U, M.V, (M.row_A, M.row_B))
        triples.append(("transpose_inverse", transpose_inverse_witness(M), src, dst))

        # scaling: (A, u^2 B) is certified by (U, V/u^2)
        M = _rand_pointed_matrix(ctx, rng)
        u = _rand_unit(ctx, rng)
        src = M.row_map()
        sq = u * u
        dst = make_row(M.row_A, M.row_B.scale(sq), (M.U, M.V.scale(sq.inverse())))
        triples.append(("scaling", scaling_witness(M, u), src, dst))

        # degree raising
        u = _rand_unit(ctx, rng)
        f = pullback_rational(_rand_rational(ctx, rng, max_deg=2))
        raised, witness = naive_sum_deg1(u, f)
        target = act(m_uv(u, one), naive_sum_deg1(one, f)[0])
        triples.append(("gu1_action", witness, raised, target))

        # lift of a row family: relift a scaling segment (half without its
        # certificate, forcing the fresh ideal-membership decision)
        M = _rand_pointed_matrix(ctx, rng)
        seg = scaling_witness(M, _rand_unit(ctx, rng)).segments[0]
        if rng.random() < 0.5:
            seg = Segment(0, seg.data, None)
        path = lift_row_homotopy(seg)
        relift = path.row_witness()
        src = path.at(ctx.zero).row_map()
        dst = path.at(ctx.one).row_map()
        triples.append(("lift_row_homotopy", relift, src, dst))
    return triples


def crit10_witness_constructors():
    """>= 50 randomized runs per constructor verify; >= 99.9% of single
    coefficient mutations of valid witnesses are rejected."""
    failures = []
    counts: dict[str, int] = {}
    corpora = []
    for ctx, per_kind in ((QQ, 25), (Fp(7), 25)):
        rng = random.Random(SEED + 10 + (ctx.p or 0))
        corpora.extend(_witness_corpus(ctx, rng, per_kind))
    for name, witness, src, dst in corpora:
        counts[name] = counts.get(name, 0) + 1
        verdict = verify(witness, src, dst)
        if not verdict:
            failures.append(f"{name} run {counts[name]}: {verdict}")
    for name, count in counts.items():
        if count < 50:
            failures.append(f"{name}: only {count} runs")
    # fuzz: single-coefficient corruption must be detected
    rng = random.Random(SEED + 99)
    valid = [t for t in corpora if t[0] in ("scaling", "transpose_inverse", "gu1_action")]
    detected = 0
    total = 1000
    for k in range(total):
        name, witness, src, dst = valid[k % len(valid)]
        mutated = mutate_witness(witness, rng)
        if not verify(mutated, src, dst):
            detected += 1
    if detected < total * 0.999:
        failures.append(f"fuzz: only {detected}/{total} mutations detected")
    return failures


def crit11_normalize_soundness():
    """normalize_section agrees with brute-force expansion: exhaustively on
    single spanning columns (n <= 5) and on 200 random vectors over F_5."""
    failures = []
    for ctx in (QQ, Fp(5)):
        for n in range(1, 6):
            for d in (n, -n):
                for i in range(n + 1):
                    vec = [
                        RingElement.one(ctx) if j == i else RingElement.zero(ctx)
                        for j in range(n + 1)
                    ]
                    section = normalize_section(d, vec)
                    if expand_sections(d, section)[0] != expand_mixed(d, vec, ctx):
                        failures.append(f"{ctx}: {'P' if d > 0 else 'Q'}{n} column {i}")
    ctx = Fp(5)
    rng = random.Random(SEED + 11)
    for trial in range(200):
        n = rng.randint(1, 5)
        d = rng.choice((n, -n))
        vec = [_rand_ring(ctx, rng, deg=2, terms=2) for _ in range(n + 1)]
        section = normalize_section(d, vec)
        if expand_sections(d, section)[0] != expand_mixed(d, vec, ctx):
            failures.append(f"random vector trial {trial} (degree {d})")
    return failures


# (name, check, time budget in seconds or None)
CRITERIA = [
    ("01-matrix-identity", crit01_matrix_identity, 2.0),
    ("02-action-pullback", crit02_action_is_pullback, None),
    ("03-example-homotopy", crit03_example_homotopy, 10.0),
    ("04-idempotents", crit04_idempotents, None),
    ("05-resultant-suite", crit05_resultant_suite, 30.0),
    ("06-decompose-roundtrip", crit06_decompose_roundtrip, None),
    ("07-realize-degrees", crit07_appendix_degrees, 5.0),
    ("08-realize-additivity", crit08_additivity, None),
    ("09-k1-structure", crit09_k1_structure, None),
    ("10-witness-constructors", crit10_witness_constructors, None),
    ("11-normalize-soundness", crit11_normalize_soundness, None),
]


def run_criterion(name: str, func, budget: float | None):
    started = time.perf_counter()
    failures = func()
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed > budget:
        failures = failures + [f"time budget exceeded: {elapsed:.2f} s > {budget} s"]
    return failures, elapsed


def run_selftest(name_filter: str | None = None, out=print) -> bool:
    ok = True
    for name, func, budget in CRITERIA:
        if name_filter and name_filter not in name:
            continue
        failures, elapsed = run_criterion(name, func, budget)
        if failures:
            ok = False
            out(f"FAIL {name} ({elapsed:.2f} s)")
            for line in failures[:5]:
                out(f"     {line}")
            if len(failures) > 5:
                out(f"     ... and {len(failures) - 5} more")
        else:
            out(f"PASS {name} ({elapsed:.2f} s)")
    return ok
