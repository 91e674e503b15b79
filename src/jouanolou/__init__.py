"""Exact computer algebra for pointed maps from the Jouanolou device to the
projective line: quotient-ring normal forms, line-bundle sections,
determinant-1 completions, the group operation on homotopy classes,
checkable homotopy witnesses, real-realization winding numbers, and
Milnor-Witt K_1 canonical forms."""

from .field import (
    FieldCtx,
    FieldElem,
    Fp,
    QQ,
    discrete_log,
    is_square,
    multiplicative_generator,
    sqrt_witness,
)
from .jring import (
    BivarPoly,
    RingElement,
    RingPolyT,
    chart_pullback,
    normal_form,
)
from .groebner import Certificate, IdealProblem, express_in_ideal
from .bundle import (
    IdempotentPair,
    ResultantReport,
    bezout_from_unit_resultant,
    mn_matrices,
    mu_product,
    normalize_section,
    resultant_identities,
    resultant_univ,
    sigma,
)
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
from .sl2 import (
    PointedSL2,
    act,
    boxplus_act,
    complete_pointed,
    identity_matrix,
    m_uv,
    row_inverse,
    row_sum,
)
from .homotopy import (
    HomotopyWitness,
    Segment,
    Sl2Path,
    Verdict,
    constant_witness,
    gu1_action_witness,
    gu1_example_witness,
    interp_lift,
    lift_row_homotopy,
    scaling_witness,
    square_sum_witness,
    transpose_inverse_witness,
    verify,
)
from .homgrp import (
    Decomposition,
    ReferenceFamily,
    decompose,
    decompose_matrix,
    naive_sum_deg1,
    oplus,
)
from .realize import eval_rp1, winding_degree, winding_profile
from .mwk import (
    K1Canonical,
    MWSymbolWord,
    k1_canonical,
    k1_order,
    kappa_canonical_rep,
    kappa_rep,
    word,
)

__version__ = "0.1.0"
