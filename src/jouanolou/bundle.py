"""Rank-one bundles on the device: sections, idempotent presentations, and
the Sylvester-resultant toolkit.

The degree-n bundle P_n is spanned inside R^2 by the columns [x^n; z^n] and
[y^n; w^n]; its negative twin Q_n by [x^n; y^n] and [z^n; w^n].  A section
is canonically a coefficient pair against those two spanning columns,
while the "expanded" pair of ring elements is the actual element of R^2,
which is the canonical identity of a section (coefficient pairs are not
unique, e.g. y*[x; z] = x*[y; w]).

Mixed spanning columns [x^(n-i) y^i; z^(n-i) w^i] reduce to the two
canonical ones by multiplying with (x+w)^n = 1 and splitting the binomial
expansion; ``normalize_section`` applies that rewrite.

The resultant machinery works with univariate polynomials in X over R given
as ascending coefficient lists and is generic enough to run over R[T] as
well; ``poly_add`` and ``poly_mul`` are its dense kernel, for these
X-polynomials only (R[T] itself is sparse, see :mod:`jring`).  Determinants
and adjugates avoid any division (subset expansion for small matrices,
Berkowitz's characteristic polynomial for large ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import PreconditionViolated, ResultantNotUnit
from .field import FieldCtx, FieldElem
from .jring import RingElement, mpoly_to_ring
from .polys import MPoly, dot

_REWRITE_CACHE: dict = {}


def _ring_sum(ctx: FieldCtx, terms) -> RingElement:
    """sum(c * x^a y^b z^d w^e) over ((a, b, d, e), c) pairs, c an integer."""
    raw = {m: r for m, c in terms if (r := ctx.rfrom_int(c))}
    return mpoly_to_ring(MPoly(ctx, ("x", "y", "z", "w"), raw))


def pure_powers(ctx: FieldCtx, n: int) -> tuple[RingElement, ...]:
    """(x^n, y^n, z^n, w^n) in R."""
    gens = (RingElement.gen_x, RingElement.gen_y, RingElement.gen_z, RingElement.gen_w)
    return tuple(g(ctx) ** n for g in gens)


def expand_sections(kind: str, n: int, *pairs) -> list[tuple]:
    """Each coefficient pair (c0, c1) of a P_n or Q_n section as the element
    c0*[x^n; z^n] + c1*[y^n; w^n] of R^2 (Q_n: c0*[x^n; y^n] + c1*[z^n; w^n]).
    Coefficients may lie in R or R[T]."""
    xn, yn, zn, wn = pure_powers(pairs[0][0].ctx, n)
    if kind == "Q":
        yn, zn = zn, yn
    return [(c0 * xn + c1 * yn, c0 * zn + c1 * wn) for c0, c1 in pairs]


def rewrite_constants(ctx: FieldCtx, n: int, kind: str = "P") -> list[tuple[RingElement, RingElement]]:
    """For each mixed column index i, the pair (p_i, q_i) in R with
    mixed_i = p_i*[x^n; z^n] + q_i*[y^n; w^n] (Q-case transported by tau).

    The boundary i+d = n is split so that the pure top column normalizes
    to the coefficient pair (0, 1).
    """
    key = (ctx.p, n, kind)
    if key in _REWRITE_CACHE:
        return _REWRITE_CACHE[key]
    out = []
    for i in range(n + 1):
        if i == n:
            p, q = RingElement.zero(ctx), RingElement.one(ctx)
        else:
            p = _ring_sum(ctx, (((n - i - d, i, 0, d), comb(n, d)) for d in range(n - i + 1)))
            q = _ring_sum(
                ctx, (((n - d, 0, n - i, d + i - n), comb(n, d)) for d in range(n - i + 1, n + 1))
            )
        if kind == "Q":
            p, q = p.tau(), q.tau()
        out.append((p, q))
    _REWRITE_CACHE[key] = out
    return out


def normalize_pair(n: int, vector, kind: str, ctx: FieldCtx):
    """Reduce a mixed-column coefficient vector (length n+1) to the canonical
    coefficient pair.  Generic over the coefficient ring: entries may be
    RingElement or RingPolyT."""
    if len(vector) != n + 1:
        raise ValueError(f"coefficient vector must have length {n + 1}")
    consts = rewrite_constants(ctx, n, kind)
    zero = vector[0] - vector[0]
    c0, c1 = zero, zero
    for ci, (p, q) in zip(vector, consts):
        c0 = c0 + ci * p
        c1 = c1 + ci * q
    return c0, c1


class Section:
    """A global section of P_n, Q_n, or the free rank-one module O."""

    __slots__ = ("kind", "n", "coeffs")

    def __init__(self, kind: str, n: int, coeffs: tuple[RingElement, ...]):
        if kind not in ("P", "Q", "O"):
            raise ValueError(f"unknown bundle kind {kind!r}")
        if kind == "O":
            if n != 0 or len(coeffs) != 1:
                raise ValueError("O sections carry a single ring element")
        else:
            if n < 1 or len(coeffs) != 2:
                raise ValueError("P/Q sections need n >= 1 and a coefficient pair")
        self.kind = kind
        self.n = n
        self.coeffs = coeffs

    @property
    def ctx(self) -> FieldCtx:
        return self.coeffs[0].ctx

    @property
    def expanded(self) -> tuple[RingElement, RingElement]:
        """The element of R^2 the section denotes; this is its identity."""
        if self.kind == "O":
            return (self.coeffs[0], self.coeffs[0])
        return expand_sections(self.kind, self.n, self.coeffs)[0]

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and self.kind == other.kind
            and self.n == other.n
            and self.expanded == other.expanded
        )

    def __hash__(self):
        return hash((self.kind, self.n, self.expanded))

    def __add__(self, other: "Section") -> "Section":
        self._compat(other)
        return Section(self.kind, self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Section") -> "Section":
        self._compat(other)
        return Section(self.kind, self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Section(self.kind, self.n, tuple(-c for c in self.coeffs))

    def scale(self, c) -> "Section":
        if isinstance(c, (FieldElem, int)):
            cf = self.ctx.elem(c) if isinstance(c, int) else c
            return Section(self.kind, self.n, tuple(r.scale(cf) for r in self.coeffs))
        return Section(self.kind, self.n, tuple(r * c for r in self.coeffs))

    def _compat(self, other):
        if self.kind != other.kind or self.n != other.n:
            raise ValueError("sections live in different bundles")

    def tau_transport(self) -> "Section":
        """Entrywise tau turns a P_n section into a Q_n section and back."""
        if self.kind == "O":
            return Section("O", 0, (self.coeffs[0].tau(),))
        other = "Q" if self.kind == "P" else "P"
        return Section(other, self.n, tuple(c.tau() for c in self.coeffs))

    def __repr__(self):
        from .textio import ring_str

        inner = ", ".join(ring_str(c) for c in self.coeffs)
        return f"Section({self.kind}{self.n}; {inner})"


def normalize_section(n: int, vector, kind: str = "P", ctx: FieldCtx | None = None) -> Section:
    """Canonical Section for sum(vector[i] * mixed column i) in P_n or Q_n."""
    if ctx is None:
        ctx = vector[0].ctx
    c0, c1 = normalize_pair(n, vector, kind, ctx)
    return Section(kind, n, (c0, c1))


def expand_mixed(n: int, vector, kind: str, ctx: FieldCtx):
    """Brute-force expansion of a mixed-column combination in R^2 (oracle)."""
    x, y, z, w = pure_powers(ctx, 1)
    first = vector[0] - vector[0]
    second = first
    for i, c in enumerate(vector):
        if kind == "P":
            first = first + c * (x ** (n - i) * y**i)
            second = second + c * (z ** (n - i) * w**i)
        else:
            first = first + c * (x ** (n - i) * z**i)
            second = second + c * (y ** (n - i) * w**i)
    return first, second


def mu_product(s: Section, t: Section) -> Section:
    """Componentwise product of sections; lands in degree m+n, renormalized."""
    if s.kind == "O":
        return t.scale(s.coeffs[0])
    if t.kind == "O":
        return s.scale(t.coeffs[0])
    if s.kind != t.kind:
        raise ValueError("componentwise products stay within one bundle family")
    return normalize_section(
        s.n + t.n,
        mu_vector(s.coeffs, s.n, t.coeffs, t.n, RingElement.zero(s.ctx)),
        s.kind,
        s.ctx,
    )


def mu_vector(c: tuple, m: int, d: tuple, n: int, zero):
    """Mixed-column vector of the product of two coefficient pairs (generic)."""
    out = [zero] * (m + n + 1)
    out[0] = out[0] + c[0] * d[0]
    out[n] = out[n] + c[0] * d[1]
    out[m] = out[m] + c[1] * d[0]
    out[m + n] = out[m + n] + c[1] * d[1]
    return out


@dataclass
class IdempotentPair:
    """The degree-n idempotent presentation: x^n*A + w^n*B = 1 and the two
    rank-one idempotent matrices with images P_n and Q_n."""

    n: int
    A: RingElement
    B: RingElement
    Mn: tuple
    Mn_prime: tuple


def unit_split(ctx: FieldCtx, m: int) -> tuple[RingElement, RingElement]:
    """A, B in R with x^m*A + w^m*B = 1 (split of (x+w)^(2m-1) = 1)."""
    A = _ring_sum(ctx, (((m - 1 - k, 0, 0, k), comb(2 * m - 1, k)) for k in range(m)))
    B = _ring_sum(
        ctx, (((2 * m - 1 - k, 0, 0, k - m), comb(2 * m - 1, k)) for k in range(m, 2 * m))
    )
    return A, B


def mn_matrices(ctx: FieldCtx, n: int) -> IdempotentPair:
    if n < 1:
        raise ValueError("n must be >= 1")
    A, B = unit_split(ctx, n)
    xn, yn, zn, wn = pure_powers(ctx, n)
    Mn = ((xn * A, yn * B), (zn * A, wn * B))
    Mn_prime = ((xn * A, zn * B), (yn * A, wn * B))
    return IdempotentPair(n, A, B, Mn, Mn_prime)


# ---------------------------------------------------------------------------
# homogeneous pairs, sigma, resultants


@dataclass
class HomogPair:
    """A pair of degree-n homogeneous polynomials over R in two variables,
    stored as ascending coefficient lists against (alpha^i * beta^(n-i))."""

    n: int
    coeffs0: list[RingElement]
    coeffs1: list[RingElement]

    def __post_init__(self):
        if len(self.coeffs0) != self.n + 1 or len(self.coeffs1) != self.n + 1:
            raise ValueError("homogeneous coefficient lists must have length n+1")


def sigma(h: HomogPair) -> tuple[Section, Section]:
    """Substitute alpha^i beta^(n-i) -> [x^i y^(n-i); z^i w^(n-i)] and normalize."""
    ctx = h.coeffs0[0].ctx
    v0 = list(reversed(h.coeffs0))  # mixed index = y-exponent = n - i
    v1 = list(reversed(h.coeffs1))
    return normalize_section(h.n, v0, "P", ctx), normalize_section(h.n, v1, "P", ctx)


def resultant(h: HomogPair) -> RingElement:
    """det of the 2n x 2n Sylvester matrix of the dehomogenized pair."""
    return resultant_univ(h.coeffs0, h.coeffs1, h.n, h.n)


def sylvester_matrix(A: list, B: list, m: int, n: int, zero):
    """Sylvester matrix for ascending coefficient lists with degree bounds
    (m, n); columns are X^(m+n-1) .. X^0, first n rows shift A, last m shift B."""

    def coef(lst, i):
        return lst[i] if 0 <= i < len(lst) else zero

    size = m + n
    rows = []
    for r in range(n):
        rows.append([coef(A, m - c + r) for c in range(size)])
    for r in range(m):
        rows.append([coef(B, n - c + r) for c in range(size)])
    return rows


# Determinants and adjugates switch from the subset expansion (O(m 2^m) ring
# operations, zero entries skipped) to Berkowitz (O(m^4)) at a size that
# depends on the entries.  When every entry is a constant of k, as in the
# Sylvester matrices of the reference maps and of pullbacks, Berkowitz is
# level with it at 8 rows and 2-7x faster at 10 to 12.  When some entry
# involves x, y, z, w or T, Berkowitz's products A^k S outgrow the minors and
# the subset expansion stays faster up to 11 rows.  End to end, this split
# against Berkowitz from 8 rows on any entries, and at every size:
#   naive_sum_deg1, degree-3 pullback, Q (R[T], 7 and 8 rows)  0.15 0.21 0.29 s
#   resultant of a twisted degree-4 pair, Q (R, 8 rows)       1.2  1.9  2.1 s
# and against the subset expansion at every size on such entries:
#   naive_sum_deg1, degree-5 pullback, F_7 (R[T], 11 and 12)  0.90 1.75 s
#   resultant of a twisted degree-6 pair, F_7 (R, 12 rows)    2.2  5.4 s
# (fastest of three alternating rounds, 2-core Intel Xeon VM, Python 3.11).
_BERKOWITZ_MIN_SIZE = 8
_BERKOWITZ_MIN_SIZE_SYMBOLIC = 12


def _use_berkowitz(rows) -> bool:
    size = len(rows)
    if size >= _BERKOWITZ_MIN_SIZE_SYMBOLIC:
        return True
    return size >= _BERKOWITZ_MIN_SIZE and all(
        e.is_zero or unit_scalar(e) is not None for row in rows for e in row
    )


def det_subset(rows, zero):
    """Exact determinant, without division, of a square matrix given as rows.

    Berkowitz's characteristic polynomial where ``_use_berkowitz`` says so
    (from 8 rows of constants, from 12 rows of anything), an expansion along
    rows with subset memoization below that.  Both need only +, -, * of the
    entries, so they run over R, R[T], or k.  The name is older than the
    split; it stays because profiling tools wrap this function by name.
    """
    size = len(rows)
    if size == 0:
        raise ValueError("empty matrix has no well-defined determinant here")
    if _use_berkowitz(rows):
        top = _charpoly(rows, zero)[-1]
        return top if size % 2 == 0 else -top
    return _subset_minors(rows, zero)[(1 << size) - 1]


def _subset_minors(rows, zero) -> dict:
    """All minors on the bottom rows: ``minors[mask]`` is the determinant of
    the last popcount(mask) rows restricted to the columns in ``mask`` (1 for
    the empty mask)."""
    size = len(rows)
    full = (1 << size) - 1
    minors: dict[int, object] = {0: _one_like(zero)}
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
    return minors


def _nonzero_by_row(rows):
    return [[(j, e) for j, e in enumerate(row) if not e.is_zero] for row in rows]


def _dot(pairs, vec, stop, zero):
    """Sum of e * vec[j] over the (j, e) of one row's nonzero pairs, j < stop."""
    acc = None
    for j, e in pairs:
        if j >= stop:
            break
        if not vec[j].is_zero:
            term = e * vec[j]
            acc = term if acc is None else acc + term
    return zero if acc is None else acc


def _charpoly(rows, zero) -> list:
    """Coefficients [1, p1, ..., pm] of det(lambda*I - A), by Berkowitz.

    Each leading principal block A_(r+1) = [[A_r, S], [R, a]] multiplies the
    coefficient vector of A_r by the lower triangular Toeplitz matrix with
    first column (1, -a, -R*S, -R*A_r*S, ..., -R*A_r^(r-1)*S).  Only +, -, *
    of the entries are used; zero entries are skipped.
    """
    nz = _nonzero_by_row(rows)
    poly = [_one_like(zero)]
    for r in range(len(rows)):
        # negated = (a, R*S, R*A_r*S, ...): that column below its 1, negated;
        # column runs over A_r^k * S
        negated = [rows[r][r]]
        column = [rows[i][r] for i in range(r)]
        for k in range(r):
            negated.append(_dot(nz[r], column, r, zero))
            if k + 1 < r:
                column = [_dot(nz[i], column, r, zero) for i in range(r)]
        # poly has r+1 coefficients and a leading 1; the product has r+2
        out = list(poly) + [zero]
        for k, c in enumerate(negated, start=1):
            if c.is_zero:
                continue
            out[k] = out[k] - c
            for j in range(1, r + 2 - k):
                if not poly[j].is_zero:
                    out[j + k] = out[j + k] - c * poly[j]
        poly = out
    return poly


def _adjugate_last_row(rows, zero):
    """(det M, last row of adj M) without division.

    Entry i of that row is the cofactor C(i, m-1), i.e. the determinant of
    M with row i replaced by the last unit row: the Cramer vector of the
    system M^t * lam = e_last, in one pass instead of m determinants.
    Where ``_use_berkowitz`` says so it is Horner on the characteristic
    polynomial, adj M = (-1)^(m+1) (M^(m-1) + p1 M^(m-2) + ... + p(m-1) I);
    otherwise one subset pass over the transpose with its rows reversed,
    whose top-row minors are the cofactors up to a fixed sign.
    """
    size = len(rows)
    if size == 0:
        raise ValueError("empty matrix has no well-defined determinant here")
    if _use_berkowitz(rows):
        poly = _charpoly(rows, zero)
        columns = _nonzero_by_row(list(zip(*rows)))
        # row vector v <- v*M + p_k * e_last, starting from e_last
        vec = [zero] * (size - 1) + [poly[0]]
        for k in range(1, size):
            vec = [_dot(col, vec, size, zero) for col in columns]
            vec[-1] = vec[-1] + poly[k]
        det = poly[-1]
        if size % 2 == 0:
            return det, [-v for v in vec]
        return -det, vec
    # rows of the transpose reversed: row r is column size-1-r of M, so the
    # minor on the bottom size-1 rows without column i is M's minor (i, m-1)
    # with its rows reversed, a sign of (-1)^((m-1)(m-2)/2)
    flipped = [[rows[i][c] for i in range(size)] for c in reversed(range(size))]
    minors = _subset_minors(flipped, zero)
    full = (1 << size) - 1
    det = minors[full]
    if (size * (size - 1) // 2) % 2:
        det = -det
    flip = ((size - 1) * (size - 2) // 2 + size - 1) % 2
    row = [minors[full ^ (1 << i)] for i in range(size)]
    return det, [-c if (flip + i) % 2 else c for i, c in enumerate(row)]


def _trim(coeffs: list) -> list:
    out = list(coeffs)
    while out and out[-1].is_zero:
        out.pop()
    return out


def resultant_univ(A: list, B: list, m: int | None = None, n: int | None = None):
    """Resultant of univariate polynomials with explicit degree bounds.

    Default bounds are the actual degrees.  The empty 0x0 case returns 1.
    """
    At, Bt = _trim(A), _trim(B)
    m = max(len(At) - 1, 0) if m is None else m
    n = max(len(Bt) - 1, 0) if n is None else n
    probe = next(iter(At or Bt or A or B), None)
    if probe is None:
        raise ValueError("resultant of two empty coefficient lists")
    zero = probe - probe
    if m + n == 0:
        return _one_like(probe)
    rows = sylvester_matrix(A, B, m, n, zero)
    return det_subset(rows, zero)


def _one_like(e):
    if isinstance(e, RingElement):  # R or R[T]
        return e.one(e.ctx)
    if isinstance(e, FieldElem):
        return e.ctx.one
    raise TypeError(f"no unit for {type(e)}")


def unit_scalar(e) -> FieldElem | None:
    """The field constant an element equals, if it is a nonzero constant."""
    if isinstance(e, RingElement):  # R or R[T]
        if not e.is_constant():
            return None
        v = e.constant_value()
        return v if not v.is_zero else None
    if isinstance(e, FieldElem):
        return e if not e.is_zero else None
    return None


def bezout_from_unit_resultant(A: list, B: list, m: int | None = None, n: int | None = None):
    """Solve A*U + B*V = 1 given that res(A, B) at the chosen degree bounds
    is a unit of R.

    Works over R or R[T].  The solution of the Sylvester system is the last
    row of the adjugate of the Sylvester matrix divided by the resultant.
    ``_adjugate_last_row`` finds both in one division-free pass (a subset
    expansion, or Berkowitz plus Horner on large matrices; see
    ``_use_berkowitz``).  The unit resultant is the only division.
    Returns (U, V) as ascending coefficient lists with deg U < n and
    deg V < m (bounds default to the actual degrees).
    """
    At, Bt = _trim(A), _trim(B)
    if not At and not Bt:
        raise ResultantNotUnit("both polynomials are zero")
    m = max(len(At) - 1, 0) if m is None else m
    n = max(len(Bt) - 1, 0) if n is None else n
    if m == 0 or n == 0:
        # a side of bound 0 is the constant the resultant is a power of;
        # when it is a unit, its inverse alone solves the system
        for i, (side, bound) in enumerate(((At, m), (Bt, n))):
            u = unit_scalar(side[0]) if bound == 0 and side else None
            if u is not None:
                solution = [_one_like(side[0]).scale(u.inverse())]
                return (solution, []) if i == 0 else ([], solution)
        raise ResultantNotUnit("resultant is not a unit")
    zero = (At or Bt)[0] - (At or Bt)[0]
    res, lam = _adjugate_last_row(sylvester_matrix(A, B, m, n, zero), zero)
    u = unit_scalar(res)
    if u is None:
        raise ResultantNotUnit("resultant is not a unit of R")
    inv = u.inverse()
    # lam[r] (r < n) multiplies X^(n-1-r) * A; lam[n + r'] multiplies X^(m-1-r') * B
    U = [lam[n - 1 - e].scale(inv) for e in range(n)]
    V = [lam[n + m - 1 - e].scale(inv) for e in range(m)]
    return U, V


def poly_add(A: list, B: list) -> list:
    """Sum of ascending coefficient lists over R or R[T]; zero entries of
    the shorter list are skipped."""
    if len(A) < len(B):
        A, B = B, A
    out = list(A)
    for i, b in enumerate(B):
        if not b.is_zero:
            out[i] = out[i] + b
    return out


def poly_mul(A: list, B: list, zero) -> list:
    """Product of ascending coefficient lists over R or R[T]; zero entries
    are skipped and ``zero`` fills the untouched slots."""
    if not A or not B:
        return []
    out = [zero] * (len(A) + len(B) - 1)
    nonzero_b = [(j, b) for j, b in enumerate(B) if not b.is_zero]
    for i, a in enumerate(A):
        if not a.is_zero:
            for j, b in nonzero_b:
                out[i + j] = out[i + j] + a * b
    return out


def poly_scale(A: list, c):
    return [a.scale(c) if hasattr(a, "scale") else a * c for a in A]


def generation_cofactors(n: int, L0: list, L1: list):
    """Four global cofactors certifying that the sections sigma(S0), sigma(S1)
    of a degree-n homogeneous pair with unit resultant generate.

    Bezout for the dehomogenized pair gives S0*U + S1*V = beta^(2n-1) after
    homogenizing; the reversed pair (unit resultant by the reversal fact)
    gives the alpha power; the x^m/w^m unit split recombines them.  Returns
    (Ux, Vx, Uw, Vw) against the columns (S0(x,y), S1(x,y), S0(z,w), S1(z,w)).
    Generic over R and R[T] coefficient lists.
    """
    if len(L0) != n + 1 or len(L1) != n + 1:
        raise ValueError("homogeneous coefficient lists must have length n+1")
    res = resultant_univ(L0, L1, n, n)
    if unit_scalar(res) is None:
        raise ResultantNotUnit("pair does not have unit resultant")
    U, V = bezout_from_unit_resultant(L0, L1, n, n)
    L0r, L1r = list(reversed(L0)), list(reversed(L1))
    res_r = resultant_univ(L0r, L1r, n, n)
    if unit_scalar(res_r) is None:
        raise ResultantNotUnit("reversed pair does not have unit resultant")
    Ur, Vr = bezout_from_unit_resultant(L0r, L1r, n, n)

    ctx = L0[0].ctx
    xg, yg, zg, wg = pure_powers(ctx, 1)
    E, F = unit_split(ctx, 2 * n - 1)
    return (
        homog_eval(Ur, n - 1, yg, xg) * E,
        homog_eval(Vr, n - 1, yg, xg) * E,
        homog_eval(U, n - 1, zg, wg) * F,
        homog_eval(V, n - 1, zg, wg) * F,
    )


def homog_eval(coeffs: list, d: int, first: RingElement, second: RingElement):
    """sum(coeffs[i] * first^i * second^(d-i)) for a nonempty list of
    coefficients over R or R[T]; zero coefficients are skipped."""
    acc = dot((c, first**i * second ** (d - i)) for i, c in enumerate(coeffs) if not c.is_zero)
    return coeffs[0] if acc is None else acc


@dataclass
class ResultantReport:
    """Exact evaluation of both sides of each resultant identity."""

    bezout_ok: bool
    reversal_lhs: RingElement
    reversal_rhs: RingElement
    shift_lhs: RingElement
    shift_rhs: RingElement
    conservation_lhs: RingElement
    conservation_rhs: RingElement

    @property
    def all_hold(self) -> bool:
        return (
            self.bezout_ok
            and self.reversal_lhs == self.reversal_rhs
            and self.shift_lhs == self.shift_rhs
            and self.conservation_lhs == self.conservation_rhs
        )


def resultant_identities(A: list, B: list, C: list, u: FieldElem) -> ResultantReport:
    """Check the four resultant facts on a concrete triple (A, B, C) and unit u.

    Preconditions (PreconditionViolated otherwise): res(A, B) at the shared
    bound is a unit; deg(BC) <= deg(A) for the shift identity; A monic and
    u != 0 for the conservation identity.
    """
    ctx = u.ctx
    if u.is_zero:
        raise PreconditionViolated("u must be a unit")
    At, Bt = _trim(A), _trim(B)
    if not At:
        raise PreconditionViolated("A must be nonzero")
    zero = At[0] - At[0]
    one = _one_like(At[0])
    n_bound = max(len(At) - 1, len(Bt) - 1 if Bt else 0)
    res_nn = resultant_univ(A, B, n_bound, n_bound)
    if unit_scalar(res_nn) is None:
        raise PreconditionViolated("res(A, B) must be a unit")

    # Bezout extraction re-verifies A*U + B*V = 1
    U, V = bezout_from_unit_resultant(A, B)
    combo = poly_add(poly_mul(A, U, zero), poly_mul(B, V, zero))
    bezout_ok = _trim(combo) == [one]

    # reversal at the shared bound (trim first: reversal is bound-sensitive)
    def pad(lst, k):
        return list(lst) + [zero] * (k - len(lst))

    Ar = list(reversed(pad(At, n_bound + 1)))
    Br = list(reversed(pad(Bt, n_bound + 1)))
    reversal_lhs = resultant_univ(Ar, Br, n_bound, n_bound)
    reversal_rhs = res_nn if n_bound % 2 == 0 else -res_nn

    # shift: res(A + BC, B) = res(A, B) at bounds (deg A, deg B)
    m = len(At) - 1
    nb = len(Bt) - 1 if Bt else 0
    BC = poly_mul(B, C, zero)
    if len(_trim(BC)) - 1 > m:
        raise PreconditionViolated("shift identity needs deg(BC) <= deg(A)")
    shift_lhs = resultant_univ(poly_add(A, BC), B, m, nb)
    shift_rhs = resultant_univ(A, B, m, nb)

    # conservation: res(A*X - (1/u)B, u*A) = (-1)^deg(A) * u * res(A, B) at
    # bounds (deg(A)+1, deg(A)); for odd deg(A) this is the -u*res(A, B) form
    lead = unit_scalar(At[-1])
    if lead is None or lead != ctx.one:
        raise PreconditionViolated("conservation identity needs monic A")
    if Bt and len(Bt) - 1 > m:
        raise PreconditionViolated("conservation identity needs deg(B) <= deg(A)")
    AX = [zero] + list(A)  # A * X
    left_first = poly_add(AX, poly_scale(B, -(u.inverse())))
    conservation_lhs = resultant_univ(left_first, poly_scale(A, u), m + 1, m)
    signed = resultant_univ(A, B, m, m)
    if m % 2 == 1:
        signed = -signed
    conservation_rhs = signed.scale(u)
    return ResultantReport(
        bezout_ok,
        reversal_lhs,
        reversal_rhs,
        shift_lhs,
        shift_rhs,
        conservation_lhs,
        conservation_rhs,
    )
