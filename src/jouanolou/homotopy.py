"""Pointed one-parameter families: a strict verifier plus every explicit
witness constructor the theory provides.

A witness is a chain of segments; each segment is T-parametrized section
data (a coefficient quadruple over R[T] in nonzero degree, a row pair in
degree 0).  The verifier checks, per segment, pointedness over R[T] and
generation of the extended four-column ideal, that consecutive segments
agree at T=1 / T=0, and that the chain's ends are the two given maps.

Constructors attach generation certificates (cofactors over R[T]) so that
verification is a cheap exact expansion; the verifier never trusts them
blindly: a missing or broken certificate triggers a fresh groebner
decision with T adjoined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle import (
    bezout_from_unit_resultant,
    homog_eval,
    normalize_pair,
    mu_vector,
    pure_powers,
    unit_split,
)
from .errors import LiftMismatch, NoCertificate, ResultantNotUnit, ZeroParameter
from .field import FieldElem
from .jring import BivarPoly, RingElement, RingPolyT
from .morphism import (
    JMap,
    cert_expands_to_one,
    generation_columns,
    groebner_cofactors,
    pointed_alpha,
)
from .sl2 import Mat2, PointedSL2, transform_cert, transform_quadruple


@dataclass
class Segment:
    """One elementary family: degree and T-parametrized section data
    (RingPolyT quadruple for nonzero degree, pair for degree 0), with an
    optional cofactor certificate for generation over R[T]."""

    degree: int
    data: tuple[RingPolyT, ...]
    cert: tuple[RingPolyT, ...] | None = None

    def __post_init__(self):
        want = 2 if self.degree == 0 else 4
        if len(self.data) != want:
            raise ValueError(f"degree {self.degree} segment needs {want} polynomials")

    @property
    def ctx(self):
        return self.data[0].ctx

    @property
    def kind(self):
        return None if self.degree == 0 else ("P" if self.degree > 0 else "Q")

    def columns(self):
        """Generation columns over R[T]."""
        if self.degree == 0:
            return self.data
        return generation_columns(self.kind, abs(self.degree), *self.data)

    def at(self, t: FieldElem) -> tuple[RingElement, ...]:
        return tuple(p.eval_at_T(t) for p in self.data)

    def reverse(self) -> "Segment":
        data = tuple(p.reverse_T() for p in self.data)
        cert = tuple(c.reverse_T() for c in self.cert) if self.cert else None
        return Segment(self.degree, data, cert)

    def record(self, t: FieldElem):
        """Normalized comparison record at a parameter value, or None when
        the evaluated data is not a pointed map there."""
        vals = self.at(t)
        alpha = pointed_alpha(vals[0], vals[len(vals) // 2])  # B, or b0
        if alpha is None or alpha.is_zero:
            return None
        if self.degree != 0:
            vals = generation_columns(self.kind, abs(self.degree), *vals)
        inv = alpha.inverse()
        return (self.degree, tuple(c.scale(inv) for c in vals))


def map_record(f: JMap):
    if f.degree == 0:
        return (0, f.row)
    return (f.degree, f.expanded)


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
        return self.segments[0].record(self.ctx.zero)

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


def _segment_pointed(seg: Segment) -> bool:
    """Pointedness over R[T]: the second datum's basepoint curve vanishes
    identically and the first is a nonzero constant of k."""
    first = seg.data[0]
    second = seg.data[2] if seg.degree != 0 else seg.data[1]
    if not second.basepoint_is_zero():
        return False
    const = first.basepoint_constant()
    return const is not None and not const.is_zero


def _segment_generates(seg: Segment, budget=None) -> bool:
    cols = seg.columns()
    if seg.cert is not None and cert_expands_to_one(seg.cert, cols):
        return True
    return groebner_cofactors(cols, budget) is not None


def verify(w: HomotopyWitness, f: JMap, g: JMap, budget=None) -> Verdict:
    """Valid iff every segment is pointed and generating over R[T], segments
    chain, and the chain ends are exactly f and g (as normalized maps)."""
    ctx = w.ctx
    zero_t, one_t = ctx.zero, ctx.one
    for i, seg in enumerate(w.segments):
        if not _segment_pointed(seg):
            return Verdict(False, "NotPointedAtT", f"segment {i}")
    records = [(seg.record(zero_t), seg.record(one_t)) for seg in w.segments]
    for i, (r0, r1) in enumerate(records):
        if r0 is None or r1 is None:
            return Verdict(False, "NotPointedAtT", f"segment {i} endpoint")
    for i in range(len(w.segments) - 1):
        if records[i][1] != records[i + 1][0]:
            return Verdict(False, "ChainBreak", f"segments {i}/{i + 1}")
    if records[0][0] != map_record(f):
        return Verdict(False, "EndpointMismatch", "start is not the first map")
    if records[-1][1] != map_record(g):
        return Verdict(False, "EndpointMismatch", "end is not the second map")
    for i, seg in enumerate(w.segments):
        if not _segment_generates(seg, budget):
            return Verdict(False, "NotGeneratingOverRT", f"segment {i}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# basic constructors


def _const_t(r: RingElement) -> RingPolyT:
    return RingPolyT.from_ring(r)


def constant_witness(f: JMap) -> HomotopyWitness:
    """The constant family at a map (cert inherited from the map)."""
    if f.degree == 0:
        data = tuple(_const_t(r) for r in f.row)
    else:
        data = tuple(_const_t(c) for c in f.coeffs)
    cert = tuple(_const_t(c) for c in f.cert)
    return HomotopyWitness([Segment(f.degree, data, cert)])


class Sl2Path(Mat2):
    """A 2x2 matrix over R[T] with determinant 1: a path of completions.

    The constructor checks determinant 1 and pointedness (the identity at
    the basepoint for every T).  :meth:`reverse_T` and :meth:`constant` are
    closed and skip it; the elementary and conjugating factors, which are
    not pointed, are built with ``_of``."""

    __slots__ = ()

    def __init__(self, entries):
        self.entries = entries
        if self._det() != RingPolyT.one(self.ctx):
            raise ValueError("path determinant is not 1 in R[T]")
        if not self.is_pointed():
            raise ValueError("path is not pointed over R[T]")

    def is_pointed(self) -> bool:
        (e00, e01), (e10, e11) = self.entries
        one = self.ctx.one
        c00, c11 = e00.basepoint_constant(), e11.basepoint_constant()
        return (
            c00 == one
            and c11 == one
            and e01.basepoint_is_zero()
            and e10.basepoint_is_zero()
        )

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

    def row_segment(self) -> Segment:
        """The first column as a degree-0 segment, certified by the matrix."""
        (e00, e01), (e10, e11) = self.entries
        return Segment(0, (e00, e10), cert=(e11, -e01))

    def row_witness(self) -> HomotopyWitness:
        return HomotopyWitness([self.row_segment()])


def _elem_upper(c: RingPolyT) -> Sl2Path:
    ctx = c.ctx
    one, zero = RingPolyT.one(ctx), RingPolyT.zero(ctx)
    return Sl2Path._of(((one, c), (zero, one)))


def _elem_lower(c: RingPolyT) -> Sl2Path:
    ctx = c.ctx
    one, zero = RingPolyT.one(ctx), RingPolyT.zero(ctx)
    return Sl2Path._of(((one, zero), (c, one)))


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
    path = _elem_upper(_scalar_T(ctx, inv))
    path = path @ _elem_lower(_scalar_T(ctx, -u))
    path = path @ _elem_upper(_scalar_T(ctx, inv))
    path = path @ _elem_upper(_scalar_T(ctx, -one))
    path = path @ _elem_lower(_scalar_T(ctx, one))
    path = path @ _elem_upper(_scalar_T(ctx, -one))
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
    if row.degree != 0 or lift1.first_column() != tuple(row.row):
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
    A, B = seg.data
    alpha = A.basepoint_constant()
    if alpha is None or alpha.is_zero or not B.basepoint_is_zero():
        raise LiftMismatch("family is not pointed")
    cert = seg.cert
    if alpha != alpha.ctx.one:
        inv = alpha.inverse()
        A, B = A.scale(inv), B.scale(inv)
        if cert is not None:
            cert = tuple(c.scale(alpha) for c in cert)
    if cert is not None and not cert_expands_to_one(cert, (A, B)):
        cert = None
    if cert is None:
        cert = groebner_cofactors((A, B), budget)
        if cert is None:
            raise NoCertificate("family is not unimodular over R[T]")
    U1, V1 = cert
    # re-point the lift: d(T) = V1 makes both corrections vanish at the basepoint
    U2 = U1 + B * V1
    V2 = V1 - A * V1
    return Sl2Path(((A, -V2), (B, U2)))


# ---------------------------------------------------------------------------
# the degree-raising witness


def gu1_action_witness(u: FieldElem, f: JMap) -> HomotopyWitness:
    """The explicit family between the composite raising a degree-n map f by
    X/u and the matrix m_(u,1) acting on the raise by X/1:

        h(T) = ((x;z), -(1/u)(y;w); u(y;w), 0) * (1, -((u-1)/u) y T; 0, 1) * (f0; f1)

    Generation over R[T] is certified through the resultant route: the
    dehomogenized pair has unit resultant (shift invariance in T plus the
    degree-raising conservation identity), and chart Bezout solves recombine
    through the x^m/w^m unit split into four global cofactors.

    Precondition: f's homogeneous lift (L0, L1) = f.canonical_lift() has a
    nonzero constant L0[n] and, unless u = 1, L1[n] = 0, as the reference
    maps and pullbacks of rational maps do.  The raised resultant has the
    twisted top coefficient L0[n] - ((u-1)/u)*y*T*L1[n] as a factor, so
    otherwise (e.g. f moved by a nonconstant pointed matrix through ``act``)
    it is no unit and ResultantNotUnit is raised; there is no Groebner
    fallback.
    """
    if u.is_zero:
        raise ZeroParameter("u must be a unit")
    if f.degree < 1 or f.kind != "P":
        raise ValueError("the raising family needs a positive-degree section map")
    ctx = u.ctx
    n = f.degree
    a0, a1, b0, b1 = f.coeffs
    zero_t = RingPolyT.zero(ctx)
    one_t = RingPolyT.one(ctx)
    y = RingElement.gen_y(ctx)
    cT = _scalar_T(ctx, -(u - ctx.one) / u)  # -(u-1)/u * T
    yT = cT * y
    # inner pair: E(T) applied to f's coefficient quadruple
    ia0 = _const_t(a0) + yT * b0
    ia1 = _const_t(a1) + yT * b1
    ib0, ib1 = _const_t(b0), _const_t(b1)
    # the same twist on f's homogeneous lift feeds the certificate
    L0, L1 = f.canonical_lift()
    F1_t = [_const_t(p) + yT * q for p, q in zip(L0, L1)]
    F2_t = [_const_t(q) for q in L1]
    # left factor N_u: rows ([x;z], -(1/u)[y;w]) and (u[y;w], 0)
    v_top = mu_vector((one_t, zero_t), 1, (ia0, ia1), n, zero_t)
    v_top2 = mu_vector((zero_t, one_t), 1, (ib0, ib1), n, zero_t)
    inv_u = u.inverse()
    h0_vec = [p - q.scale(inv_u) for p, q in zip(v_top, v_top2)]
    v_bot = mu_vector((zero_t, one_t), 1, (ia0, ia1), n, zero_t)
    h1_vec = [p.scale(u) for p in v_bot]
    A0, A1 = normalize_pair(n + 1, h0_vec, "P", ctx)
    B0, B1 = normalize_pair(n + 1, h1_vec, "P", ctx)

    cert = _raise_cert(ctx, n, F1_t, F2_t, u)
    return HomotopyWitness([Segment(n + 1, (A0, A1, B0, B1), cert=cert)])


def raised_lift(u: FieldElem, F1: list, F2: list, zero) -> tuple[list, list]:
    """The homogeneous lift (alpha*F1 - (1/u) beta*F2, u beta*F1) of the raise
    by X/u of a map with lift (F1, F2); coefficients over R or R[T]."""
    neg_inv = -u.inverse()
    S0 = [q.scale(neg_inv) for q in F2] + [zero]
    for i, p in enumerate(F1):
        S0[i + 1] = S0[i + 1] + p
    return S0, [p.scale(u) for p in F1] + [zero]


def _raise_cert(ctx, n, F1, F2, u):
    """Four global cofactors for the raised section pair over R[T].

    The raised sections are sigma of the degree-(n+1) forms
    S0 = alpha*F1 - (1/u) beta*F2 and S1 = u*beta*F1 built on the canonical
    lifts of the twisted coefficient pairs.  The dehomogenized pair has a
    unit resultant at bounds (n+1, n); its Bezout relation homogenizes to
    S0*(beta U) + S1*V = beta^(2n+1), covering the w-chart.  The x-chart
    needs the reversed pair at full bounds (n+1, n+1), whose Bezout relation
    homogenizes to a pure alpha power.  Its resultant is +-F1[n] times the
    raised one, and F1[n] divides the raised one (subtract X/u times H1 from
    H0), so a constant unit raised resultant makes F1[n] a constant unit too:
    R[T] has no other units.  Raises ResultantNotUnit when the raised
    resultant is not a unit.
    """
    # dehomogenized: H0 = X*F1 - (1/u) F2 (bound n+1), H1 = u*F1 (bound n)
    H0, H1 = raised_lift(u, F1, F2, RingPolyT.zero(ctx))
    try:
        U, V = bezout_from_unit_resultant(H0, H1, n + 1, n)
    except ResultantNotUnit:
        raise ResultantNotUnit("raised pair does not have unit resultant") from None
    S0_rev, S1_rev = list(reversed(H0)), list(reversed(H1))
    Ur, Vr = bezout_from_unit_resultant(S0_rev, S1_rev, n + 1, n + 1)
    xg, yg, zg, wg = pure_powers(ctx, 1)
    E, Fw = unit_split(ctx, 2 * n + 1)
    Ux = homog_eval(Ur, n, yg, xg) * E
    Vx = homog_eval(Vr, n, yg, xg) * E
    Uw = (homog_eval(U, n - 1, zg, wg) * wg) * Fw
    Vw = homog_eval(V, n, zg, wg) * Fw
    return (Ux, Vx, Uw, Vw)


def gu1_example_witness(u: FieldElem, f: JMap) -> HomotopyWitness:
    """The same family run backwards: from the matrix picture at T=0 to the
    raised composite at T=1 (the orientation of the worked example)."""
    return gu1_action_witness(u, f).reverse()


def square_sum_witness(u: FieldElem, c: FieldElem) -> HomotopyWitness:
    """Witness chain from row_sum(g_(u,1), g_(v,1)) to g_(uv,1) for v = c^2:
    scale inside the product, then scale the exact product m_(u,1/v)."""
    from .sl2 import m_uv

    if u.is_zero or c.is_zero:
        raise ZeroParameter("parameters must be units")
    ctx = u.ctx
    v = c * c
    D = diagonal_path(c)
    left = Sl2Path.constant(m_uv(u, ctx.one))
    inner = Sl2Path.constant(m_uv(ctx.one, v.inverse()))
    seg1_path = left @ (D @ inner @ D.inverse()).reverse_T()
    seg2_path = D @ Sl2Path.constant(m_uv(u, v.inverse())) @ D.inverse()
    return HomotopyWitness([seg1_path.row_segment(), seg2_path.row_segment()])


def apply_matrix(M: PointedSL2, w: HomotopyWitness) -> HomotopyWitness:
    """Act on every nonzero-degree segment of a witness by a constant matrix."""
    out = []
    entries = tuple(tuple(_const_t(e) for e in row) for row in M.entries)
    for seg in w.segments:
        if seg.degree == 0:
            raise ValueError("matrix action applies to nonzero-degree segments")
        data = transform_quadruple(entries, seg.data)
        cert = transform_cert(entries, seg.cert) if seg.cert else None
        out.append(Segment(seg.degree, tuple(data), tuple(cert) if cert else None))
    return HomotopyWitness(out)


def mutate_witness(w: HomotopyWitness, rng) -> HomotopyWitness:
    """Fuzzing helper: change one coefficient of one monomial somewhere in the
    section data (certificates are dropped: the verifier must re-decide)."""
    ctx = w.ctx
    si = rng.randrange(len(w.segments))
    seg = w.segments[si]
    di = rng.randrange(len(seg.data))
    poly = seg.data[di]
    top = max((m[2] for part in (poly.a, poly.b) for m in part.terms), default=0)
    tdeg = rng.randrange(top + 2)
    part = "a" if rng.random() < 0.5 else "b"
    mon = (rng.randrange(3), rng.randrange(3))
    if ctx.is_rationals:
        delta = ctx.rfrom_int(rng.choice([1, -1, 2, 3]))
    else:
        delta = ctx.rfrom_int(rng.randrange(1, ctx.p))
    bump = BivarPoly(ctx, {(*mon, tdeg): delta})
    a, b = (poly.a + bump, poly.b) if part == "a" else (poly.a, poly.b + bump)
    data = list(seg.data)
    data[di] = RingPolyT(a, b)
    segs = list(w.segments)
    segs[si] = Segment(seg.degree, tuple(data), None)
    return HomotopyWitness(segs)
