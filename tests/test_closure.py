"""Closure properties that let the library build without re-checking.

Products, inverses and transposes of pointed determinant-1 matrices, the
matrix action, tau transport and first columns of completions construct
their results unchecked, and so do the library's own constructions: the
reference maps (``n_pi``, ``qref``, ``ref``), pullbacks of rational maps,
``g_uv``, the degree raise ``naive_sum_deg1``, the trivial row of
``kappa_rep`` and the path of ``lift_row_homotopy``.  These tests rebuild
every such result through the checking constructors (``PointedSL2(...)``,
``Sl2Path(...)``, ``make_map``, ``make_row``) on random inputs over Q and
F_p, and expand every carried homogeneous lift (:func:`lift_expands`), so
each invariant the library does not check at run time is checked here.
"""

import random

import pytest

from jouanolou.bundle import homog_eval, pure_powers
from jouanolou.errors import ResultantZero
from jouanolou.field import Fp, QQ
from jouanolou.homgrp import ReferenceFamily, decompose, naive_sum_deg1
from jouanolou.homotopy import (
    Segment,
    Sl2Path,
    diagonal_path,
    interp_lift,
    lift_row_homotopy,
    scaling_witness,
    square_sum_witness,
    transpose_inverse_witness,
)
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import (
    RationalMapP1,
    g_uv,
    make_map,
    make_row,
    n_pi,
    pullback_rational,
)
from jouanolou.mwk import kappa_rep, word
from jouanolou.sl2 import (
    PointedSL2,
    act,
    boxplus_act,
    complete_pointed,
    identity_matrix,
    m_uv,
)

FIELDS = [pytest.param(QQ, id="Q"), pytest.param(Fp(7), id="F7")]
SEEDS = range(3)


def rand_unit(ctx, rng):
    if ctx.is_rationals:
        return ctx.elem(rng.choice([1, 2, 3, -1, -2, -3]))
    return ctx.elem(rng.randrange(1, ctx.p))


def rand_vanishing(ctx, rng):
    """A random element of degree <= 2 vanishing at the basepoint."""
    gens = (RingElement.gen_y(ctx), RingElement.gen_z(ctx), RingElement.gen_w(ctx))
    out = RingElement.zero(ctx)
    for g in gens + (gens[0] * gens[1],):
        out = out + g.scale(ctx.elem(rng.randint(-2, 2)))
    return out


def rand_matrix(ctx, rng, factors=2):
    """m_(u,v) times random elementary factors."""
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    M = m_uv(rand_unit(ctx, rng), rand_unit(ctx, rng))
    for _ in range(factors):
        r = rand_vanishing(ctx, rng)
        upper = rng.random() < 0.5
        M = M @ PointedSL2(((one, r), (zero, one)) if upper else ((one, zero), (r, one)))
    return M


def rand_map(ctx, rng):
    """A degree-2 map with a homogeneous lift: the pullback of a random
    rational map."""
    while True:
        b = [rand_unit(ctx, rng), ctx.elem(rng.randint(-2, 2))]
        try:
            f = RationalMapP1(ctx, 2, [ctx.zero, ctx.elem(rng.randint(-2, 2)), ctx.one], b)
        except ResultantZero:
            continue
        return pullback_rational(f)


def lift_expands(f) -> bool:
    """Does the homogeneous lift f carries expand to its sections?  True
    when it carries none; only positive degrees carry one."""
    if f.homog is None or f.degree < 1:
        return f.homog is None
    n = f.degree
    x, y, z, w = pure_powers(f.ctx, 1)
    F0, F1 = f.homog
    got = (
        homog_eval(F0, n, x, y),
        homog_eval(F1, n, x, y),
        homog_eval(F0, n, z, w),
        homog_eval(F1, n, z, w),
    )
    return got == f.expanded


def rechecked_map(f):
    """f rebuilt from its own data by the checking constructors."""
    if f.degree == 0:
        return make_row(*f.data, cert=f.cert)
    return make_map(f.degree, *f.data, cert=f.cert)


def map_data(f):
    return (f.degree, f.kind, f.data, f.cert)


def assert_closed(f):
    """f passes the checks it was built without: the checking constructor
    returns its very data and certificate, and its lift expands."""
    assert map_data(rechecked_map(f)) == map_data(f)
    assert lift_expands(f)


def rechecked_path(segment):
    """The path whose first column a row segment carries (its certificate
    (U, V) is the second column), rebuilt by the checking constructor:
    raises unless it has determinant 1 and is pointed."""
    (A, B), (U, V) = segment.data, segment.cert
    return Sl2Path(((A, -V), (B, U)))


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_operations_stay_pointed_sl2(ctx, seed):
    rng = random.Random(seed)
    M, N = rand_matrix(ctx, rng), rand_matrix(ctx, rng)
    u, v = rand_unit(ctx, rng), rand_unit(ctx, rng)
    closed = [M @ N, M.inverse(), M.transpose(), identity_matrix(ctx), m_uv(u, v)]
    # a Bezout certificate that is not yet pointed: V(basepoint) = -u
    (A, B), (U, V) = M.row_map().data, M.row_map().cert
    closed.append(complete_pointed(make_row(A, B, cert=(U + B.scale(u), V - A.scale(u)))))
    for X in closed:
        assert type(X) is PointedSL2
        assert PointedSL2(X.entries) == X


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_decomposition_matrix_is_pointed_sl2(ctx, seed):
    rng = random.Random(seed)
    refs = ReferenceFamily(ctx, "naive")
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    # a1 = u at the basepoint, so the factorization needs its row operation
    f = make_map(1, one, one.scale(rand_unit(ctx, rng)), zero, one)
    f = act(rand_matrix(ctx, rng, factors=1), f)
    for g in (f, f.tau_transport()):
        d = decompose(g, refs)
        assert PointedSL2(d.matrix.entries) == d.matrix


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_conjugated_paths_are_pointed_with_determinant_one(ctx, seed):
    rng = random.Random(seed)
    M = rand_matrix(ctx, rng)
    u, c = rand_unit(ctx, rng), rand_unit(ctx, rng)
    D = diagonal_path(u)
    assert D._det() == RingPolyT.one(ctx)
    segments = transpose_inverse_witness(M).segments + scaling_witness(M, u).segments
    segments += square_sum_witness(u, c).segments
    for seg in segments:
        rechecked_path(seg)


@pytest.mark.parametrize("ctx", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_closed_map_operations_match_checked_rebuild(ctx, seed):
    rng = random.Random(seed)
    M = rand_matrix(ctx, rng)
    f = rand_map(ctx, rng)
    row = M.row_map()
    built = [act(M, f), boxplus_act(M, f), f.tau_transport(), row, row.tau_transport()]
    built.append(ReferenceFamily(ctx, "naive").ref(-2))
    built.append(naive_sum_deg1(rand_unit(ctx, rng), n_pi(1, ctx))[0])
    for g in built:
        assert_closed(g)


# ---------------------------------------------------------------------------
# the library's own constructions

ALL_FIELDS = FIELDS + [pytest.param(Fp(1000003), id="F1000003")]


def rand_rational(ctx, rng, n):
    """A random pointed rational self-map of degree n: monic numerator,
    nonzero resultant."""
    while True:
        a = [ctx.elem(rng.randint(-3, 3)) for _ in range(n)] + [ctx.one]
        b = [ctx.elem(rng.randint(-3, 3)) for _ in range(n)]
        try:
            return RationalMapP1(ctx, n, a, b)
        except ResultantZero:
            continue


@pytest.mark.parametrize("ctx", ALL_FIELDS)
def test_reference_maps_match_checked_rebuild(ctx):
    for n in range(1, 9):
        f = n_pi(n, ctx)
        assert f.homog is not None
        assert_closed(f)
    for mode in ("qbasis", "naive"):
        refs = ReferenceFamily(ctx, mode)
        for n in range(1, 5):
            for m in (n, -n):
                assert_closed(refs.qref(m))
                assert_closed(refs.ref(m))


@pytest.mark.parametrize("ctx", ALL_FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_pullbacks_match_checked_rebuild(ctx, seed):
    rng = random.Random(f"pullback:{seed}")
    for n in range(1, 5):
        f = pullback_rational(rand_rational(ctx, rng, n))
        assert f.homog is not None
        assert_closed(f)


@pytest.mark.parametrize("ctx", ALL_FIELDS)
def test_degree_zero_constructions_match_checked_rebuild(ctx):
    units = [ctx.elem(v) for v in (1, 2, 3, -1)]
    for u in units:
        for v in units:
            assert_closed(g_uv(u, v))
    trivial = kappa_rep(word(ctx))
    assert trivial.data == (RingElement.one(ctx), RingElement.zero(ctx))
    assert_closed(trivial)
    assert_closed(kappa_rep(word(ctx, 2, 3)))


@pytest.mark.parametrize("ctx", ALL_FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_raised_maps_match_checked_rebuild(ctx, seed):
    rng = random.Random(f"raise:{seed}")
    # the reference maps and pullbacks meet the raise's precondition on
    # their lifts (see naive_sum_deg1)
    for f in (n_pi(rng.randint(1, 3), ctx), pullback_rational(rand_rational(ctx, rng, 2))):
        g, witness = naive_sum_deg1(rand_unit(ctx, rng), f)
        assert g.degree == f.degree + 1 and g.homog is not None
        assert_closed(g)
        assert witness.start_record() == g


@pytest.mark.parametrize("ctx", ALL_FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lifted_row_homotopies_match_checked_rebuild(ctx, seed):
    rng = random.Random(seed)
    M = rand_matrix(ctx, rng)
    u = rand_unit(ctx, rng)
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    # another pointed completion of M's row
    lift2 = M @ PointedSL2(((one, rand_vanishing(ctx, rng)), (zero, one)))
    segments = transpose_inverse_witness(M).segments + scaling_witness(M, u).segments
    segments += interp_lift(M.row_map(), M, lift2).segments
    row = g_uv(u, ctx.elem(2))
    segments.append(Segment.constant(row))
    # a family scaled by a unit is normalized first, and one without a
    # certificate is decided by the groebner engine
    segments.append(Segment(0, tuple(RingPolyT.from_ring(c.scale(u + u)) for c in row.data)))
    for seg in segments:
        path = lift_row_homotopy(seg)
        assert type(path) is Sl2Path
        assert Sl2Path(path.entries) == path
