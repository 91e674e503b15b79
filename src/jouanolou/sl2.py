"""The degree-0 group: pointed determinant-1 completions and their action.

A unimodular row completes to a 2x2 matrix over R of determinant 1 that is
the identity at the basepoint; the group operation on degree-0 maps is
matrix multiplication of completions followed by extracting the first
column.  Such a matrix also acts on higher-degree maps through its action
on section pairs.  :func:`act` is that action, written once: a pointed
matrix over R moves a map, a path over R[T] (``homotopy.Sl2Path``) moves
a witness segment, and the certificate and homogeneous lift transport
exactly (no new ideal membership runs are needed), on their first read
(see ``morphism``).  Every entry of a matrix product, of the action and of
the transported certificate is one ``polys.dot`` sum of products, fused at
every size.
"""

from __future__ import annotations

from .bundle import pure_powers
from .errors import NoCertificate, ZeroParameter
from .field import FieldElem
from .jring import RingElement
from .morphism import JMap, pointed_alpha
from .polys import dot

Entries = tuple[tuple, tuple]


class Mat2:
    """2x2 core of :class:`PointedSL2` (entries in R, first columns are
    ``JMap`` rows) and ``homotopy.Sl2Path`` (R[T] and ``Segment``), read
    from the class's ``_ring`` and ``_map``.  A subclass ``__init__``
    stores outside data and runs :meth:`_check`; ``@``, ``inverse`` (the
    adjugate) and ``transpose`` preserve determinant 1 and pointedness, so
    they build through the unchecked :meth:`_of`."""

    __slots__ = ("entries",)
    _ring, _map = RingElement, JMap

    @classmethod
    def _of(cls, entries) -> "Mat2":
        """Build without checking: only for closed or formula-built data."""
        out = object.__new__(cls)
        out.entries = entries
        return out

    @property
    def ctx(self):
        return self.entries[0][0].ctx

    def _det(self):
        (e00, e01), (e10, e11) = self.entries
        return dot(((e00, e11), (-e01, e10)))

    def _check(self):
        """Outside data: determinant 1 and the identity at the basepoint."""
        if self._det() != self._ring.one(self.ctx):
            raise ValueError("matrix determinant is not 1")
        if not self.is_pointed():
            raise ValueError("matrix is not the identity at the basepoint")

    def is_pointed(self) -> bool:
        """The identity at the basepoint (over R[T]: for every T)."""
        (e00, e01), (e10, e11) = self.entries
        one = self.ctx.one
        return pointed_alpha(e00, e10) == one and pointed_alpha(e11, e01) == one

    @classmethod
    def upper(cls, c) -> "Mat2":
        """The elementary factor ((1, c), (0, 1)), for c in the class's ring
        or in k; unchecked (pointed only when c vanishes at the basepoint)."""
        one, zero, c = cls._one_zero(c)
        return cls._of(((one, c), (zero, one)))

    @classmethod
    def lower(cls, c) -> "Mat2":
        """The elementary factor ((1, 0), (c, 1)), as :meth:`upper`."""
        one, zero, c = cls._one_zero(c)
        return cls._of(((one, zero), (c, one)))

    @classmethod
    def _one_zero(cls, c):
        """1 and 0 of the class's ring, and c in it (a scalar becomes a constant)."""
        one = cls._ring.one(c.ctx)
        return one, cls._ring.zero(c.ctx), one.scale(c) if isinstance(c, FieldElem) else c

    def __matmul__(self, other):
        columns = tuple(zip(*other.entries))
        return self._of(tuple(tuple(dot(zip(row, col)) for col in columns)
                              for row in self.entries))

    def inverse(self):
        (a, b), (c, d) = self.entries
        return self._of(((d, -b), (-c, a)))

    def transpose(self):
        (a, b), (c, d) = self.entries
        return self._of(((a, c), (b, d)))

    def row_map(self):
        """The degree-0 map of the first column, certified by the second
        (pointedness makes the row normalized already)."""
        (e00, e01), (e10, e11) = self.entries
        return self._map(0, (e00, e10), (e11, -e01))

    def __eq__(self, other):
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


class PointedSL2(Mat2):
    """A matrix ((A, -V), (B, U)) over R with AU + BV = 1 that evaluates to
    the identity at the basepoint.  The constructor checks both, for parsed
    and user input; :func:`identity_matrix`, :func:`m_uv` and
    :func:`complete_pointed` satisfy them by construction and skip it."""

    __slots__ = ()

    def __init__(self, entries: Entries):
        self.entries = entries
        self._check()

    @property
    def row_A(self) -> RingElement:
        return self.entries[0][0]

    @property
    def row_B(self) -> RingElement:
        return self.entries[1][0]

    @property
    def U(self) -> RingElement:
        return self.entries[1][1]

    @property
    def V(self) -> RingElement:
        return -self.entries[0][1]

    def first_column(self) -> tuple[RingElement, RingElement]:
        return (self.entries[0][0], self.entries[1][0])

    def __repr__(self):
        from .textio import sl2_str

        return sl2_str(self)


def identity_matrix(ctx) -> PointedSL2:
    one, zero = RingElement.one(ctx), RingElement.zero(ctx)
    return PointedSL2._of(((one, zero), (zero, one)))


def m_uv(u: FieldElem, v: FieldElem) -> PointedSL2:
    """The printed completion of g_uv:
    ((x + (v/u)w, ((u-v)/(uv)) z), ((u-v) y, x + (u/v) w))."""
    if u.is_zero or v.is_zero:
        raise ZeroParameter("matrix parameters must be units")
    ctx = u.ctx
    x, y, z, w = pure_powers(ctx, 1)
    return PointedSL2._of(
        (
            (x + w.scale(v / u), z.scale((u - v) / (u * v))),
            (y.scale(u - v), x + w.scale(u / v)),
        )
    )


def complete_pointed(row: JMap) -> PointedSL2:
    """Pointed completion of a pointed unimodular row.

    Starting from any Bezout lift ((A, -V1), (B, U1)), replacing
    U2 = U1 + B*d and V2 = V1 - A*d with d = V1(basepoint) makes the lift
    the identity at the basepoint; the determinant stays A*U1 + B*V1 = 1.
    """
    if row.degree != 0:
        raise ValueError("only degree-0 maps complete to matrices")
    if row.cert is None:
        raise NoCertificate("row carries no Bezout certificate")
    A, B = row.data
    U1, V1 = row.cert
    d = V1.eval_basepoint()
    U2 = U1 + B.scale(d)
    V2 = V1 - A.scale(d)
    return PointedSL2._of(((A, -V2), (B, U2)))


def row_sum(r1: JMap, r2: JMap) -> JMap:
    """The group operation on degree-0 maps: multiply pointed completions and
    take the first column (the product matrix certifies the result)."""
    return (complete_pointed(r1) @ complete_pointed(r2)).row_map()


def row_inverse(r: JMap) -> JMap:
    """The inverse class: first column (U, -B) of the inverted completion."""
    return complete_pointed(r).inverse().row_map()


def transform_cert(entries: Entries, cert):
    """Transport a four-cofactor generation certificate through the action.

    The generation columns transform by the same matrix, so the inverse
    (adjugate, det = 1) pulls the old certificate to the new columns.
    """
    (e00, e01), (e10, e11) = entries
    n01, n10 = -e01, -e10
    Ux, Vx, Uw, Vw = cert
    return (
        dot(((Ux, e11), (Vx, n10))),
        dot(((Vx, e00), (Ux, n01))),
        dot(((Uw, e11), (Vw, n10))),
        dot(((Vw, e00), (Uw, n01))),
    )


def _rows(entries: Entries, first, second):
    """(e00*first + e01*second, e10*first + e11*second), entrywise."""
    pairs = list(zip(first, second))
    return tuple([dot(((e0, a), (e1, b))) for a, b in pairs] for e0, e1 in entries)


def act(M: Mat2, f: JMap) -> JMap:
    """The left action on nonzero-degree section data: sections become
    (e00 s0 + e01 s1, e10 s0 + e11 s1), i.e. (A s0 - V s1, B s0 + U s1).

    ``M`` is a :class:`PointedSL2` moving a map over R, a
    ``homotopy.Sl2Path`` moving a ``Segment`` over R[T], or an unchecked
    elementary factor (:meth:`Mat2.upper`, :meth:`Mat2.lower`) of either;
    the result is of ``type(f)``.  Degree and generation are preserved, and
    pointedness and normalization too when M is the identity at the
    basepoint; the certificate and the homogeneous lift, when present,
    transport exactly, when the result's ``cert`` or ``homog`` is first
    read."""
    if f.degree == 0:
        raise ValueError("degree-0 maps combine by row_sum, not the action")
    entries = M.entries
    (a0, a1), (b0, b1) = _rows(entries, f.data[:2], f.data[2:])

    def cert():
        return None if f.cert is None else transform_cert(entries, f.cert)

    def homog():
        return None if f.homog is None else _rows(entries, *f.homog)

    return type(f)(f.degree, (a0, a1, b0, b1), cert, homog)


def boxplus_act(M: PointedSL2, f: JMap) -> JMap:
    """The transpose variant of the action (kept only as the documented
    counterexample: it is not additive on realized degrees)."""
    return act(M.transpose(), f)
