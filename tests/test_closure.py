"""Closure properties that let group operations build without re-checking.

Products, inverses and transposes of pointed determinant-1 matrices, the
matrix action, tau transport and first columns of completions construct
their results unchecked.  These tests rebuild every such result through the
checking constructors (``PointedSL2(...)``, ``Sl2Path(...)``, ``make_map``,
``make_row``) on random inputs over Q and F_7, so each invariant the
library no longer re-checks at run time is still checked here.
"""

import random

import pytest

from jouanolou.errors import ResultantZero
from jouanolou.field import Fp, QQ
from jouanolou.homgrp import ReferenceFamily, decompose, naive_sum_deg1
from jouanolou.homotopy import (
    Sl2Path,
    diagonal_path,
    scaling_witness,
    square_sum_witness,
    transpose_inverse_witness,
)
from jouanolou.jring import RingElement, RingPolyT
from jouanolou.morphism import (
    RationalMapP1,
    make_map,
    make_row,
    n_pi,
    pullback_rational,
)
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


def rechecked_map(f):
    """f rebuilt from its own data by the checking constructors."""
    if f.degree == 0:
        return make_row(*f.data, cert=f.cert)
    return make_map(f.degree, *f.data, cert=f.cert, homog=f.homog)


def map_data(f):
    return (f.degree, f.kind, f.data, f.cert, f.homog)


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
        assert map_data(rechecked_map(g)) == map_data(g)
