"""Pointed one-parameter families: a strict verifier plus every explicit
witness constructor the theory provides.

A witness is a chain of segments; a segment is a map over R[T]
(:class:`Segment`, a ``JMap`` whose section data lies in R[T]: the
coefficient quadruple in nonzero degree n, for P_n or, when n < 0, for
Q_|n|, and the row pair in degree 0).  A path of matrices over R[T]
(:class:`Sl2Path`) moves a segment through ``sl2.act``, the same action
by which a pointed matrix over R moves a map.  The verifier checks, per
segment, pointedness over R[T] and generation of the extended ideal of its
generation columns, that consecutive segments agree at T=1 / T=0, and that
the chain's ends are the two given maps; it compares degrees before it
expands any columns.

Constructors attach generation certificates (cofactors over R[T]) so that
verification is a cheap exact expansion; the verifier never trusts them
blindly: a missing or broken certificate triggers a fresh groebner
decision with T adjoined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle import (
    bezout_from_unit_resultant,
    mu_vector,
    normalize_section,
    poly_add,
    poly_mul,
    recombine_cofactors,
    unit_scalar,
)
from .errors import LiftMismatch, NoCertificate, ResultantNotUnit, ZeroParameter
from .field import FieldElem
from .jring import RingElement, RingPolyT
from .morphism import (
    JMap,
    cert_expands_to_one,
    groebner_certificate,
    groebner_cofactors,
)
from .polys import MPoly
from .sl2 import Mat2, PointedSL2, act, m_uv

_const_t = RingPolyT.from_ring


class Segment(JMap):
    """One elementary family: a map over R[T], with an optional cofactor
    certificate for generation over R[T].  Built as
    ``Segment(degree, data, cert)``; the data length is checked."""

    __slots__ = ()

    def __init__(self, degree, data, cert=None, homog=None):
        want = 2 if degree == 0 else 4
        if len(data) != want:
            raise ValueError(f"degree {degree} segment needs {want} polynomials")
        super().__init__(degree, tuple(data), cert, homog)

    @classmethod
    def constant(cls, f: JMap) -> "Segment":
        """The constant family at a map over R: its data and certificate
        (when it has one) as constants of R[T]."""
        cert = None if f.cert is None else tuple(_const_t(c) for c in f.cert)
        return cls(f.degree, tuple(_const_t(c) for c in f.data), cert)

    def at(self, t: FieldElem) -> JMap:
        """The section data at a parameter value, as an unchecked map over R
        without certificate."""
        return JMap(self.degree, tuple(p.eval_at_T(t) for p in self.data))

    def reverse(self) -> "Segment":
        data = tuple(p.reverse_T() for p in self.data)
        cert = tuple(c.reverse_T() for c in self.cert) if self.cert else None
        return Segment(self.degree, data, cert)


class HomotopyWitness:
    """A chain of segments certifying a pointed naive homotopy."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        if not segments:
            raise ValueError("a witness needs at least one segment")
        self.segments = list(segments)

    @property
    def ctx(self):
        return self.segments[0].ctx

    def reverse(self) -> "HomotopyWitness":
        return HomotopyWitness([s.reverse() for s in reversed(self.segments)])

    def then(self, other: "HomotopyWitness") -> "HomotopyWitness":
        return HomotopyWitness(self.segments + other.segments)

    def start_record(self):
        return self.segments[0].at(self.ctx.zero).record()

    def __repr__(self):
        return f"HomotopyWitness({len(self.segments)} segment(s))"


@dataclass
class Verdict:
    valid: bool
    reason: str | None = None
    detail: str = ""

    def __bool__(self):
        return self.valid

    def __repr__(self):
        if self.valid:
            return "Valid"
        return f"{self.reason}({self.detail})" if self.detail else str(self.reason)


def _segment_generates(seg: Segment, budget=None) -> bool:
    cols = seg.expanded
    if seg.cert is not None and cert_expands_to_one(seg.cert, cols):
        return True
    return groebner_certificate(cols, budget) is not None


def verify(w: HomotopyWitness, f: JMap, g: JMap, budget=None) -> Verdict:
    """Valid iff every segment is pointed and generating over R[T], segments
    chain, and the chain ends are exactly f and g (as normalized maps).
    Ends compare as maps, degree first: sections are expanded only where
    degrees agree."""
    ctx = w.ctx
    zero_t, one_t = ctx.zero, ctx.one
    for i, seg in enumerate(w.segments):
        if seg.record() is None:
            return Verdict(False, "NotPointedAtT", f"segment {i}")
    records = [(seg.at(zero_t).record(), seg.at(one_t).record()) for seg in w.segments]
    for i, (r0, r1) in enumerate(records):
        if r0 is None or r1 is None:
            return Verdict(False, "NotPointedAtT", f"segment {i} endpoint")
    for i in range(len(w.segments) - 1):
        if records[i][1] != records[i + 1][0]:
            return Verdict(False, "ChainBreak", f"segments {i}/{i + 1}")
    if records[0][0] != f:
        return Verdict(False, "EndpointMismatch", "start is not the first map")
    if records[-1][1] != g:
        return Verdict(False, "EndpointMismatch", "end is not the second map")
    for i, seg in enumerate(w.segments):
        if not _segment_generates(seg, budget):
            return Verdict(False, "NotGeneratingOverRT", f"segment {i}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# basic constructors


def constant_witness(f: JMap) -> HomotopyWitness:
    """The constant family at a map (cert inherited from the map)."""
    return HomotopyWitness([Segment.constant(f)])


class Sl2Path(Mat2):
    """A 2x2 matrix over R[T] with determinant 1: a path of completions.

    The constructor checks determinant 1 and pointedness (the identity at
    the basepoint for every T).  :meth:`reverse_T`, :meth:`constant` and
    :func:`lift_row_homotopy` are closed and skip it; the elementary and
    conjugating factors, which are not pointed, are built with ``_of``
    (:meth:`upper`, :meth:`lower`)."""

    __slots__ = ()
    _ring, _map = RingPolyT, Segment

    def __init__(self, entries):
        self.entries = entries
        self._check()

    def entries_at(self, t: FieldElem):
        (e00, e01), (e10, e11) = self.entries
        return ((e00.eval_at_T(t), e01.eval_at_T(t)), (e10.eval_at_T(t), e11.eval_at_T(t)))

    def at(self, t: FieldElem) -> PointedSL2:
        """The matrix at a parameter value (the path must be pointed there)."""
        return PointedSL2(self.entries_at(t))

    def reverse_T(self) -> "Sl2Path":
        return self._of(tuple(tuple(e.reverse_T() for e in row) for row in self.entries))

    @classmethod
    def constant(cls, M: PointedSL2) -> "Sl2Path":
        return cls._of(tuple(tuple(_const_t(e) for e in row) for row in M.entries))

    def row_witness(self) -> HomotopyWitness:
        return HomotopyWitness([self.row_map()])


def _scalar_T(ctx, c: FieldElem) -> RingPolyT:
    """The element c*T of k[T] inside R[T]."""
    return RingPolyT.gen_T(ctx).scale(c)


def diagonal_path(u: FieldElem) -> Sl2Path:
    """A path of determinant-1 matrices from the identity (T=0) to
    diag(1/u, u) (T=1), written as six elementary factors."""
    if u.is_zero:
        raise ZeroParameter("diagonal parameter must be a unit")
    ctx = u.ctx
    one = ctx.one
    inv = u.inverse()
    path = Sl2Path.upper(_scalar_T(ctx, inv))
    path = path @ Sl2Path.lower(_scalar_T(ctx, -u))
    path = path @ Sl2Path.upper(_scalar_T(ctx, inv))
    path = path @ Sl2Path.upper(_scalar_T(ctx, -one))
    path = path @ Sl2Path.lower(_scalar_T(ctx, one))
    path = path @ Sl2Path.upper(_scalar_T(ctx, -one))
    return path


def interp_lift_path(lift1: PointedSL2, lift2: PointedSL2) -> Sl2Path:
    """Straight-line family between two pointed completions of one row."""
    if lift1.first_column() != lift2.first_column():
        raise LiftMismatch("lifts complete different rows")
    ctx = lift1.ctx
    T = RingPolyT.gen_T(ctx)
    one_minus_T = RingPolyT.one(ctx) - T
    A = _const_t(lift1.entries[0][0])
    B = _const_t(lift1.entries[1][0])
    e01 = T * lift2.entries[0][1] + one_minus_T * lift1.entries[0][1]
    e11 = T * lift2.entries[1][1] + one_minus_T * lift1.entries[1][1]
    return Sl2Path(((A, e01), (B, e11)))


def interp_lift(row: JMap, lift1: PointedSL2, lift2: PointedSL2) -> HomotopyWitness:
    """Witness between the (equal) first columns of two pointed lifts of one
    row; the family moves only the second column."""
    if row.degree != 0 or lift1.first_column() != tuple(row.data):
        raise LiftMismatch("lifts do not complete the given row")
    return interp_lift_path(lift1, lift2).row_witness()


def transpose_inverse_witness(M: PointedSL2) -> HomotopyWitness:
    """Witness between the rows (A, B) and (U, V): conjugate M by the
    explicit determinant-1 path from the identity to the quarter rotation."""
    ctx = M.ctx
    T = RingPolyT.gen_T(ctx)
    one = RingPolyT.one(ctx)
    two = RingPolyT.one(ctx).scale(ctx.elem(2))
    H = Sl2Path._of(((one - T * T, -T), (T * (two - T * T), one - T * T)))
    # H has entries in k[T], so the conjugate is pointed like M
    return (H @ Sl2Path.constant(M) @ H.inverse()).row_witness()


def scaling_witness(M: PointedSL2, u: FieldElem) -> HomotopyWitness:
    """Witness between the rows (A, B) and (A, u^2 B): conjugate by the
    elementary-factor path to diag(1/u, u)."""
    if u.is_zero:
        raise ZeroParameter("scaling parameter must be a unit")
    D = diagonal_path(u)  # entries in k[T], like H above
    return (D @ Sl2Path.constant(M) @ D.inverse()).row_witness()


def lift_row_homotopy(seg: Segment, budget=None) -> Sl2Path:
    """Complete a pointed generating degree-0 family to a pointed path of
    determinant-1 matrices (restricting to pointed completions at T = 0, 1).
    """
    if seg.degree != 0:
        raise ValueError("only degree-0 families lift this way")
    seg = seg.record()
    if seg is None:
        raise LiftMismatch("family is not pointed")
    (A, B), cert = seg.data, seg.cert
    if cert is not None and not cert_expands_to_one(cert, (A, B)):
        cert = None
    if cert is None:
        cert = groebner_cofactors((A, B), budget)
        if cert is None:
            raise NoCertificate("family is not unimodular over R[T]")
    U1, V1 = cert
    # re-point the lift: d(T) = V1 makes both corrections vanish at the basepoint
    # (A = 1, B = 0 there), and the determinant stays A*U1 + B*V1 = 1
    U2 = U1 + B * V1
    V2 = V1 - A * V1
    return Sl2Path._of(((A, -V2), (B, U2)))


# ---------------------------------------------------------------------------
# the degree-raising witness


def raised_bezout_pairs(u: FieldElem, c: RingPolyT, L0: list, L1: list):
    """(A, B, Ar, Br) over R[T]: S0*A + S1*B = 1 at bounds (n+1, n+1) for
    the raise (S0, S1) = raised_lift(u, F1, F2) of the twist F1 = L0 + c*L1,
    F2 = L1 of a degree-n lift over R, and (Ar, Br) the same for the
    reversed raise.  Only the pairs of (L0, L1) and of its reversal are
    solved, in R (over k for constants); with a unit raised resultant the
    solution is unique, so the closed forms below give the Sylvester one.

    A pair (U0, V0) of (L0, L1) is (U, V) = (U0, V0 - c*U0) for (F1, F2).
    Forward, the raise is [[X, -1/u], [u, 0]] (F1, F2), of determinant 1:
    (A, B) = (-u*V, U/u + X*V).  Reversed, it is [[1, -X/u], [u*X, 0]]
    (G1, G2) with G = rev F, of determinant X^2: the pair (P, Q) of (G1,
    G2) shifted to beta = Q - t*G1, alpha = P + t*G2 by t = t0 + t1*X so
    that beta and alpha + u*beta/X vanish at X = 0 gives Ar = -u*beta/X,
    Br = (alpha - Ar)/(u*X).  The shift divides by g = G1[0], and the
    raised resultant is +-u*g^2*res(L0, L1): ResultantNotUnit ("raised pair
    does not have unit resultant") unless g is a nonzero constant and
    (L0, L1) has unit resultant.
    """
    n = len(L0) - 1
    refusal = "raised pair does not have unit resultant"
    g = unit_scalar(_const_t(L0[n]) + c * L1[n])
    if g is None:
        raise ResultantNotUnit(refusal)
    try:
        U0, V0 = bezout_from_unit_resultant(L0, L1, n, n)
    except ResultantNotUnit:
        raise ResultantNotUnit(refusal) from None
    P0, Q0 = bezout_from_unit_resultant(L0[::-1], L1[::-1], n, n)
    zero, inv_u = RingPolyT.zero(u.ctx), u.inverse()
    U = [_const_t(p) for p in U0]
    V = [_const_t(q) - c * p for q, p in zip(V0, U)]
    A = [q.scale(-u) for q in V] + [zero]
    B = poly_add([zero] + V, [p.scale(inv_u) for p in U])
    P = [_const_t(p) for p in P0]
    Q = [_const_t(q) - c * p for q, p in zip(Q0, P)] + [zero]
    G1 = [_const_t(p) + c * q for p, q in zip(L0[::-1], L1[::-1])]
    G2 = [_const_t(q) for q in L1[::-1]]
    t0 = Q[0].scale(g.inverse())
    t1 = (P[0] + t0 * G2[0] + (Q[1] - t0 * G1[1]).scale(u)).scale((u * g).inverse())
    beta = poly_add(Q, poly_mul([-t0, -t1], G1, zero))
    alpha = poly_add(P, poly_mul([t0, t1], G2, zero))
    Ar = [q.scale(-u) for q in beta[1:]]
    Br = [(p - q).scale(inv_u) for p, q in zip(alpha[1:], Ar[1:] + [zero])]
    return A, B, Ar, Br


def gu1_action_witness(u: FieldElem, f: JMap) -> HomotopyWitness:
    """The explicit family between the composite raising a degree-n map f by
    X/u and the matrix m_(u,1) acting on the raise by X/1:

        h(T) = ((x;z), -(1/u)(y;w); u(y;w), 0) * (1, -((u-1)/u) y T; 0, 1) * (f0; f1)

    Its certificate over R[T] comes from the Bezout pairs of f's lift
    (L0, L1) = f.canonical_lift(), solved in the lift's own ring (over k
    for the reference maps and pullbacks), through ``raised_bezout_pairs``
    and ``recombine_cofactors``.  g = L0[n] - ((u-1)/u)*y*T*L1[n] divides
    the raised resultant: unless g is a nonzero constant of k (as when L0[n]
    is one and u = 1 or L1[n] = 0, but not after ``act`` by m_(u,v)) and
    (L0, L1) has unit resultant, ResultantNotUnit ("raised pair does not
    have unit resultant") is raised; there is no Groebner fallback.
    """
    if u.is_zero:
        raise ZeroParameter("u must be a unit")
    if f.degree < 1:
        raise ValueError("the raising family needs a positive-degree section map")
    ctx = u.ctx
    n = f.degree
    zero_t = RingPolyT.zero(ctx)
    one_t = RingPolyT.one(ctx)
    # inner pair: E(T) applied to f's coefficient quadruple, as constants of R[T]
    yT = _scalar_T(ctx, -(u - ctx.one) / u) * RingElement.gen_y(ctx)
    inner = act(Sl2Path.upper(yT), Segment(n, tuple(_const_t(c) for c in f.data)))
    ia0, ia1, ib0, ib1 = inner.data
    # left factor N_u: rows ([x;z], -(1/u)[y;w]) and (u[y;w], 0)
    v_top = mu_vector((one_t, zero_t), 1, (ia0, ia1), n, zero_t)
    v_top2 = mu_vector((zero_t, one_t), 1, (ib0, ib1), n, zero_t)
    inv_u = u.inverse()
    h0_vec = [p - q.scale(inv_u) for p, q in zip(v_top, v_top2)]
    v_bot = mu_vector((zero_t, one_t), 1, (ia0, ia1), n, zero_t)
    h1_vec = [p.scale(u) for p in v_bot]
    A0, A1 = normalize_section(n + 1, h0_vec)
    B0, B1 = normalize_section(n + 1, h1_vec)

    cert = recombine_cofactors(ctx, n + 1, *raised_bezout_pairs(u, yT, *f.canonical_lift()))
    return HomotopyWitness([Segment(n + 1, (A0, A1, B0, B1), cert=cert)])


def gu1_example_witness(u: FieldElem, f: JMap) -> HomotopyWitness:
    """The same family run backwards: from the matrix picture at T=0 to the
    raised composite at T=1 (the orientation of the worked example)."""
    return gu1_action_witness(u, f).reverse()


def square_sum_witness(u: FieldElem, c: FieldElem) -> HomotopyWitness:
    """Witness chain from row_sum(g_(u,1), g_(v,1)) to g_(uv,1) for v = c^2:
    scale inside the product, then scale the exact product m_(u,1/v)."""
    if u.is_zero or c.is_zero:
        raise ZeroParameter("parameters must be units")
    ctx = u.ctx
    v = c * c
    D = diagonal_path(c)
    left = Sl2Path.constant(m_uv(u, ctx.one))
    inner = Sl2Path.constant(m_uv(ctx.one, v.inverse()))
    seg1_path = left @ (D @ inner @ D.inverse()).reverse_T()
    seg2_path = D @ Sl2Path.constant(m_uv(u, v.inverse())) @ D.inverse()
    return HomotopyWitness([seg1_path.row_map(), seg2_path.row_map()])


def mutate_witness(w: HomotopyWitness, rng) -> HomotopyWitness:
    """Fuzzing helper: change one coefficient of one monomial somewhere in the
    section data (certificates are dropped: the verifier must re-decide)."""
    ctx = w.ctx
    si = rng.randrange(len(w.segments))
    seg = w.segments[si]
    di = rng.randrange(len(seg.data))
    poly = seg.data[di]
    tdeg = rng.randrange(poly.T_degree() + 2)
    part = "a" if rng.random() < 0.5 else "b"
    mon = (rng.randrange(3), rng.randrange(3))
    if ctx.is_rationals:
        delta = ctx.rfrom_int(rng.choice([1, -1, 2, 3]))
    else:
        delta = ctx.rfrom_int(rng.randrange(1, ctx.p))
    bump = MPoly(ctx, RingPolyT.PARTS, {(*mon, tdeg): delta})
    a, b = (poly.a + bump, poly.b) if part == "a" else (poly.a, poly.b + bump)
    data = list(seg.data)
    data[di] = RingPolyT(a, b)
    segs = list(w.segments)
    segs[si] = Segment(seg.degree, tuple(data), None)
    return HomotopyWitness(segs)
