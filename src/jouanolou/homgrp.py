"""The full group operation on homotopy-class representatives.

Any nonzero-degree map factors, up to an explicit one- or two-segment
family, as a pointed matrix acting on the reference map of its degree; the
sum of two maps multiplies the degree-0 parts and acts on the reference
map of the summed degree.  Reference maps default to the two-term
recursion in positive degrees and to the plain spanning-column map
(1,0;0,1)_n in negative ones (a configurable choice: no explicit
representative of the negative classes is otherwise provided).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle import pure_powers, unit_split
from .field import FieldCtx, FieldElem
from .homotopy import (
    HomotopyWitness,
    Segment,
    apply_matrix,
    gu1_action_witness,
    raised_lift,
    _const_t,
    _scalar_T,
)
from .jring import RingElement
from .morphism import JMap, make_map, n_pi
from .sl2 import PointedSL2, act, complete_pointed
from .sl2 import row_sum as _row_sum


class ReferenceFamily:
    """Chosen representatives ref(n) of degree n for every n != 0.

    neg_mode 'qbasis' uses (1,0;0,1)_n below zero; 'naive' uses the
    tau-transport of the positive recursion with negated second section
    (which reproduces the explicit degree minus-one map at n = -1).
    """

    def __init__(self, ctx: FieldCtx, neg_mode: str = "qbasis"):
        if neg_mode not in ("qbasis", "naive"):
            raise ValueError("neg_mode must be 'qbasis' or 'naive'")
        self.ctx = ctx
        self.neg_mode = neg_mode
        self._cache: dict[int, JMap] = {}
        self._ref_decomp: dict[int, tuple[PointedSL2, Segment]] = {}

    def qref(self, n: int) -> JMap:
        """The spanning-column map (1,0;0,1)_n, certified by the unit split
        x^n E + w^n F = 1 (columns are the pure powers)."""
        ctx = self.ctx
        one, zero = RingElement.one(ctx), RingElement.zero(ctx)
        E, F = unit_split(ctx, abs(n))
        return make_map(n, one, zero, zero, one, cert=(E, zero, zero, F))

    def ref(self, n: int) -> JMap:
        if n == 0:
            raise ValueError("degree 0 has no reference map")
        if n in self._cache:
            return self._cache[n]
        if n > 0:
            result = n_pi(n, self.ctx)
        elif self.neg_mode == "qbasis":
            result = self.qref(n)
        else:
            pos = n_pi(-n, self.ctx)
            a0, a1, b0, b1 = pos.coeffs
            ux, vx, uw, vw = pos.cert
            cert = (ux.tau(), -vx.tau(), uw.tau(), -vw.tau())
            result = make_map(n, a0.tau(), a1.tau(), -b0.tau(), -b1.tau(), cert=cert)
        self._cache[n] = result
        return result

    def ref_decomposition(self, n: int) -> tuple[PointedSL2, Segment]:
        """Cached factorization of ref(n) through the spanning-column map."""
        if n not in self._ref_decomp:
            self._ref_decomp[n] = _decompose_spanning(self.ref(n))
        return self._ref_decomp[n]


@dataclass
class Decomposition:
    """A pointed matrix with f homotopic to act(matrix, ref(n)), plus the
    witness chain realizing the homotopy (starting at f)."""

    matrix: PointedSL2
    n: int
    witness: HomotopyWitness


def _decompose_spanning(f: JMap) -> tuple[PointedSL2, Segment]:
    """Factor f through (1,0;0,1)_n: a pointed matrix M with
    act(M, qref) = (a0 - e*b0, a1 - e*b1; b0, b1), plus the straight-line
    segment from f to that map."""
    ctx = f.ctx
    n = abs(f.degree)
    a0, a1, b0, b1 = f.coeffs
    one = RingElement.one(ctx)
    target_r = one - (a0 * b1 - a1 * b0)
    # the map's own generation certificate supplies the completion cofactors:
    # multiplying U_x G_ax + V_x G_bx + U_w G_aw + V_w G_bw = 1 by the target
    # expresses it in the column ideal without any new ideal-membership run
    ux, vx, uw, vw = f.cert
    c, cp, d, dp = target_r * vx, target_r * vw, target_r * ux, target_r * uw
    xn, yn, zn, wn = pure_powers(ctx, n)
    if f.kind == "P":
        m_prime = (
            (a0 + yn * c + wn * cp, a1 - xn * c - zn * cp),
            (b0 - yn * d - wn * dp, b1 + xn * d + zn * dp),
        )
    else:
        m_prime = (
            (a0 + zn * c + wn * cp, a1 - xn * c - yn * cp),
            (b0 - zn * d - wn * dp, b1 + xn * d + yn * dp),
        )
    e = (a1 - c).eval_basepoint()
    pointed = (
        (m_prime[0][0] - m_prime[1][0].scale(e), m_prime[0][1] - m_prime[1][1].scale(e)),
        m_prime[1],
    )
    # det(m_prime) = a0*b1 - a1*b0 + target_r = 1 by the certificate identity
    # (x^n w^n = y^n z^n); the row operation makes it the identity at the basepoint
    matrix = PointedSL2._of(pointed)
    # straight-line family (a0 - T e b0, a1 - T e b1; b0, b1): T=0 is f,
    # T=1 is act(matrix, qref); certificate transported from f's.
    eT = _scalar_T(ctx, e)
    quad = (
        _const_t(a0) - eT * b0,
        _const_t(a1) - eT * b1,
        _const_t(b0),
        _const_t(b1),
    )
    ux, vx, uw, vw = (_const_t(r) for r in f.cert)
    cert_t = (ux, vx + eT * ux, uw, vw + eT * uw)
    return matrix, Segment(f.degree, quad, cert_t)


def decompose(f: JMap, refs: ReferenceFamily) -> Decomposition:
    """Write f, up to an explicit witness chain, as a pointed matrix acting
    on the reference map of its degree."""
    n = f.degree
    if n == 0:
        raise ValueError("decompose applies to nonzero degrees")
    m_f, seg_f = _decompose_spanning(f)
    ref = refs.ref(n)
    spanning = refs.qref(n)
    if ref == spanning:
        # single segment, reversed so the chain runs act(m_f, ref) -> f
        return Decomposition(m_f, n, HomotopyWitness([seg_f]).reverse())
    m_r, seg_r = refs.ref_decomposition(n)
    matrix = m_f @ m_r.inverse()
    moved = apply_matrix(matrix, HomotopyWitness([seg_r]))
    # moved runs act(matrix, ref) -> act(m_f, spanning); seg_f reversed continues to f
    witness = moved.then(HomotopyWitness([seg_f]).reverse())
    return Decomposition(matrix, n, witness)


def oplus(f: JMap, g: JMap, refs: ReferenceFamily | None = None) -> JMap:
    """The group operation: decompose both maps, multiply the degree-0
    parts, act on the reference map of the summed degree."""
    if refs is None:
        refs = ReferenceFamily(f.ctx)
    n, m = f.degree, g.degree
    if n == 0 and m == 0:
        return _row_sum(f, g)
    mf = complete_pointed(f) if n == 0 else decompose(f, refs).matrix
    mg = complete_pointed(g) if m == 0 else decompose(g, refs).matrix
    total = mf @ mg
    if n + m == 0:
        return total.row_map()
    return act(total, refs.ref(n + m))


def naive_sum_deg1(u: FieldElem, f: JMap) -> tuple[JMap, HomotopyWitness]:
    """Raise a positive-degree section map by the degree-1 map with unit u:
    sections ([x;z] f0 - (1/u)[y;w] f1, u [y;w] f0).

    Returns the raised map together with the witness family whose T=0 end
    is the raised map and whose T=1 end is m_(u,1) acting on the raise by 1.
    Precondition, that of :func:`gu1_action_witness`: the homogeneous lift
    (L0, L1) of f has a nonzero constant L0[n] and, unless u = 1, L1[n] = 0
    (true of the reference maps and of pullbacks; usually false after
    ``act`` with a nonconstant matrix), else ResultantNotUnit.
    """
    witness = gu1_action_witness(u, f)
    seg = witness.segments[0]
    zero = u.ctx.zero
    quad = seg.at(zero)
    cert = tuple(c.eval_at_T(zero) for c in seg.cert)
    raised = raised_lift(u, *f.canonical_lift(), RingElement.zero(f.ctx))
    result = make_map(f.degree + 1, *quad, cert=cert, homog=raised)
    return result, witness
