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

from .bundle import raised_lift, spanning_powers, unit_split
from .errors import NoCertificate
from .field import FieldCtx, FieldElem
from .homotopy import HomotopyWitness, Segment, Sl2Path, gu1_action_witness
from .jring import RingElement, RingPolyT
from .morphism import JMap, n_pi
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
        self._qref: dict[int, JMap] = {}
        self._ref_matrix: dict[int, tuple[PointedSL2, FieldElem]] = {}
        self._ref_decomp: dict[int, tuple[PointedSL2, Segment]] = {}

    def qref(self, n: int) -> JMap:
        """The spanning-column map (1,0;0,1)_n, certified by the unit split
        x^n E + w^n F = 1 (columns are the pure powers); built once per n."""
        if n not in self._qref:
            ctx = self.ctx
            one, zero = RingElement.one(ctx), RingElement.zero(ctx)
            E, F = unit_split(ctx, abs(n))
            self._qref[n] = JMap(n, (one, zero, zero, one), (E, zero, zero, F))
        return self._qref[n]

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
            # negating the second section and its cofactors keeps the
            # certificate identity and pointedness
            moved = n_pi(-n, self.ctx).tau_transport()
            a0, a1, b0, b1 = moved.data
            ux, vx, uw, vw = moved.cert
            result = JMap(n, (a0, a1, -b0, -b1), (ux, -vx, uw, -vw))
        self._cache[n] = result
        return result

    def ref_matrix(self, n: int) -> tuple[PointedSL2, FieldElem]:
        """Cached :func:`_spanning_matrix` of ref(n)."""
        if n not in self._ref_matrix:
            self._ref_matrix[n] = _spanning_matrix(self.ref(n))
        return self._ref_matrix[n]

    def ref_decomposition(self, n: int) -> tuple[PointedSL2, Segment]:
        """Cached factorization of ref(n) through the spanning-column map:
        its pointed matrix and the segment from ref(n) to that matrix's
        action."""
        if n not in self._ref_decomp:
            m_r, e = self.ref_matrix(n)
            self._ref_decomp[n] = m_r, _spanning_segment(self.ref(n), e)
        return self._ref_decomp[n]


@dataclass
class Decomposition:
    """A pointed matrix with f homotopic to act(matrix, ref(n)), plus the
    witness chain realizing the homotopy (starting at f)."""

    matrix: PointedSL2
    n: int
    witness: HomotopyWitness


def _spanning_matrix(f: JMap) -> tuple[PointedSL2, FieldElem]:
    """Factor f through (1,0;0,1)_n: a pointed matrix M with
    act(M, qref) = (a0 - e*b0, a1 - e*b1; b0, b1), and the basepoint value
    e of the row operation, from which :func:`_spanning_segment` builds the
    straight line from f to that map."""
    if f.degree == 0:
        raise ValueError("decompose applies to nonzero degrees")
    if f.cert is None:
        raise NoCertificate("map carries no generation certificate")
    ctx = f.ctx
    a0, a1, b0, b1 = f.data
    one = RingElement.one(ctx)
    target_r = one - (a0 * b1 - a1 * b0)
    # the map's own generation certificate supplies the completion cofactors:
    # multiplying U_x G_ax + V_x G_bx + U_w G_aw + V_w G_bw = 1 by the target
    # expresses it in the column ideal without any new ideal-membership run
    ux, vx, uw, vw = f.cert
    c, cp, d, dp = target_r * vx, target_r * vw, target_r * ux, target_r * uw
    xn, yn, zn, wn = spanning_powers(ctx, f.degree)
    m_prime = (
        (a0 + yn * c + wn * cp, a1 - xn * c - zn * cp),
        (b0 - yn * d - wn * dp, b1 + xn * d + zn * dp),
    )
    e = (a1 - c).eval_basepoint()
    # det(m_prime) = a0*b1 - a1*b0 + target_r = 1 by the certificate identity
    # (x^n w^n = y^n z^n); the row operation makes it the identity at the basepoint
    return PointedSL2.upper(-e) @ PointedSL2._of(m_prime), e


def _spanning_segment(f: JMap, e: FieldElem) -> Segment:
    """The straight-line family (a0 - T e b0, a1 - T e b1; b0, b1): T=0 is
    f, T=1 is the action of its spanning matrix on qref; the certificate is
    transported from f's."""
    minus_eT = RingPolyT.gen_T(f.ctx).scale(-e)
    return act(Sl2Path.upper(minus_eT), Segment.constant(f))


def _against_ref(m_f: PointedSL2, n: int, refs: ReferenceFamily) -> PointedSL2:
    """A matrix against the spanning map of degree n as one against ref(n):
    m_f itself when ref(n) is the spanning map, else m_f times the inverse
    of ref(n)'s own spanning matrix."""
    if refs.ref(n) == refs.qref(n):
        return m_f
    return m_f @ refs.ref_matrix(n)[0].inverse()


def decompose_matrix(f: JMap, refs: ReferenceFamily) -> PointedSL2:
    """The pointed matrix of :func:`decompose` alone, with f homotopic to
    act(matrix, ref(n)); no witness is built."""
    return _against_ref(_spanning_matrix(f)[0], f.degree, refs)


def decompose(f: JMap, refs: ReferenceFamily) -> Decomposition:
    """Write f, up to an explicit witness chain, as a pointed matrix acting
    on the reference map of its degree."""
    n = f.degree
    m_f, e = _spanning_matrix(f)
    # the segment reversed runs act(m_f, spanning) -> f
    back = HomotopyWitness([_spanning_segment(f, e)]).reverse()
    matrix = _against_ref(m_f, n, refs)
    if matrix is m_f:
        return Decomposition(m_f, n, back)
    _, seg_r = refs.ref_decomposition(n)
    # moved runs act(matrix, ref) -> act(m_f, spanning)
    moved = HomotopyWitness([act(Sl2Path.constant(matrix), seg_r)])
    return Decomposition(matrix, n, moved.then(back))


def oplus(f: JMap, g: JMap, refs: ReferenceFamily | None = None) -> JMap:
    """The group operation: the pointed matrices of both maps (no witness),
    multiplied, acting on the reference map of the summed degree."""
    if refs is None:
        refs = ReferenceFamily(f.ctx)
    n, m = f.degree, g.degree
    if n == 0 and m == 0:
        return _row_sum(f, g)
    mf = complete_pointed(f) if n == 0 else decompose_matrix(f, refs)
    mg = complete_pointed(g) if m == 0 else decompose_matrix(g, refs)
    total = mf @ mg
    if n + m == 0:
        return total.row_map()
    return act(total, refs.ref(n + m))


def naive_sum_deg1(u: FieldElem, f: JMap) -> tuple[JMap, HomotopyWitness]:
    """Raise a positive-degree section map by the degree-1 map with unit u:
    sections ([x;z] f0 - (1/u)[y;w] f1, u [y;w] f0).

    Returns the raised map together with the witness family whose T=0 end
    is the raised map and whose T=1 end is m_(u,1) acting on the raise by 1.
    The certificates come from the Bezout pairs of f's homogeneous lift
    (L0, L1), solved in its own ring (:func:`gu1_action_witness`).
    ResultantNotUnit is raised exactly when g = L0[n] - ((u-1)/u)*y*T*L1[n]
    is not a nonzero constant of k or (L0, L1) has no unit resultant (the
    reference maps and pullbacks pass; ``act`` by m_(u,v) usually fails).
    """
    witness = gu1_action_witness(u, f)
    seg = witness.segments[0]
    zero = u.ctx.zero
    quad = seg.at(zero).data
    cert = tuple(c.eval_at_T(zero) for c in seg.cert)
    raised = raised_lift(u, *f.canonical_lift(), RingElement.zero(f.ctx))
    # the T = 0 end of the certified segment, with its certificate there
    result = JMap(f.degree + 1, quad, cert, raised)
    return result, witness
