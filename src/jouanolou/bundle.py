"""Rank-one bundles on the device: sections, idempotent presentations, and
the Sylvester-resultant toolkit.

The degree-n bundle P_n is spanned inside R^2 by the columns [x^n; z^n] and
[y^n; w^n]; its negative twin Q_n by [x^n; y^n] and [z^n; w^n].  A section
is a coefficient pair (c0, c1) against those two spanning columns, a plain
tuple over R or R[T], while the "expanded" pair of ring elements
(``expand_sections``) is the actual element of R^2, which is the canonical
identity of a section (coefficient pairs are not unique, e.g.
y*[x; z] = x*[y; w]).

Degrees are signed: every function taking a degree n reads n < 0 as Q_|n|,
so the sign of the degree is the bundle.  Mixed spanning columns
[x^(n-i) y^i; z^(n-i) w^i] reduce to the two canonical ones by multiplying
with (x+w)^n = 1 and splitting the binomial expansion;
``normalize_section`` applies that rewrite to the nonzero entries, with
constants built on ints by ``jring.int_normal_form`` once per field and degree.

The resultant machinery works with univariate polynomials in X over R given
as ascending coefficient lists and is generic enough to run over R[T] as
well; ``poly_add`` and ``poly_mul`` are its dense kernel, for these
X-polynomials only (R[T] itself is sparse, see :mod:`jring`).  Every
Sylvester matrix goes through one elimination, ``det_subset``, which
returns the determinant and, when asked, the last row of the adjugate from
the same pass: the resultant asks for the first only, a Bezout solve for
both.  It has two routes and no size switch: a matrix of constants of k
is eliminated over k by Gauss on raw values, and any other matrix by
Bareiss's fraction-free elimination, whose exact divisions in R and R[T]
go through the norm (``RingElement.divider``).  A singular matrix has no
adjugate row on either route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .errors import PreconditionViolated, ResultantNotUnit
from .field import FieldCtx, FieldElem
from .jring import RingElement, RingPolyT, int_normal_form
from .polys import dot

_REWRITE_CACHE: dict = {}


@cache
def pure_powers(ctx: FieldCtx, n: int) -> tuple[RingElement, ...]:
    """(x^n, y^n, z^n, w^n) in R, n >= 0, built once per field and n, shared."""
    exps = ((n, 0, 0, 0, 0), (0, 0, n, 0, 0), (0, 0, 0, n, 0), (0, n, 0, 0, 0))
    return tuple(int_normal_form(ctx, [(e, 1)]) for e in exps)


def _binomial_part(ctx: FieldCtx, top: int, ds, a: int, b: int, i: int = 0, j: int = 0):
    """y^i z^j * sum(C(top, d) * x^(top-d-a) * w^(d-b) for d in ds) in R, summed
    by power of x (w = 1 - x) before ``int_normal_form`` maps each x^k once."""
    in_x: dict = {}
    for d in ds:
        for k in range(d - b + 1):
            e = top - d - a + k
            in_x[e] = in_x.get(e, 0) + (-1) ** k * comb(d - b, k) * comb(top, d)
    return int_normal_form(ctx, [((e, 0, i, j, 0), c) for e, c in in_x.items()])


def spanning_powers(ctx: FieldCtx, n: int) -> tuple[RingElement, ...]:
    """(x^m, y^m, z^m, w^m) for m = |n|, with y^m and z^m swapped when n < 0:
    in these names the columns spanning P_n, or Q_m for n < 0, are
    [x^m; z^m] and [y^m; w^m]."""
    xn, yn, zn, wn = pure_powers(ctx, abs(n))
    return (xn, zn, yn, wn) if n < 0 else (xn, yn, zn, wn)


def expand_sections(n: int, *pairs) -> list[tuple]:
    """Each coefficient pair (c0, c1) of a degree-n section as the element
    c0*[x^n; z^n] + c1*[y^n; w^n] of R^2 (n < 0, a section of Q_|n|:
    c0*[x^|n|; y^|n|] + c1*[z^|n|; w^|n|]).  Coefficients may lie in R or
    R[T]."""
    xn, yn, zn, wn = spanning_powers(pairs[0][0].ctx, n)
    return [(dot(((c0, xn), (c1, yn))), dot(((c0, zn), (c1, wn)))) for c0, c1 in pairs]


def rewrite_constants(ctx: FieldCtx, n: int, i: int) -> tuple[RingElement, RingElement]:
    """For the mixed column index i of degree n, the pair (p_i, q_i) in R
    with mixed_i = p_i*[x^n; z^n] + q_i*[y^n; w^n] (n < 0: the Q_|n| case,
    transported by tau), built once per field, n and i.

    The boundary i+d = m is split so that the pure top column normalizes
    to the coefficient pair (0, 1).
    """
    key = (ctx.p, n, i)
    if key not in _REWRITE_CACHE:
        m = abs(n)
        if i == m:
            pair = RingElement.zero(ctx), RingElement.one(ctx)
        else:
            p = _binomial_part(ctx, m, range(m - i + 1), i, 0, i)
            q = _binomial_part(ctx, m, range(m - i + 1, m + 1), 0, m - i, 0, m - i)
            pair = (p.tau(), q.tau()) if n < 0 else (p, q)
        _REWRITE_CACHE[key] = pair
    return _REWRITE_CACHE[key]


def normalize_section(n: int, vector) -> tuple:
    """The canonical coefficient pair (c0, c1) of sum(vector[i] * mixed
    column i) in degree n (n < 0: Q_|n|) from the nonzero entries, or zeros.
    Entries may lie in R or R[T] (then so does the pair), over one field."""
    if len(vector) != abs(n) + 1:
        raise ValueError(f"coefficient vector must have length {abs(n) + 1}")
    ring = RingPolyT if any(type(c) is RingPolyT for c in vector) else RingElement
    terms = [(i, c) for i, c in enumerate(vector) if not c.is_zero] or [(0, vector[0])]
    pairs = [(c, rewrite_constants(vector[0].ctx, n, i)) for i, c in terms]
    return tuple(ring.sum_of_products([(c, pq[k]) for c, pq in pairs]) for k in (0, 1))


def expand_mixed(n: int, vector, ctx: FieldCtx):
    """Brute-force expansion of a mixed-column combination in R^2 (oracle):
    mixed column i is [x^(m-i) y^i; z^(m-i) w^i] for m = n > 0 and
    [x^(m-i) z^i; y^(m-i) w^i] for m = -n > 0."""
    x, y, z, w = spanning_powers(ctx, -1 if n < 0 else 1)
    m = abs(n)
    first = vector[0] - vector[0]
    second = first
    for i, c in enumerate(vector):
        first = first + c * (x ** (m - i) * y**i)
        second = second + c * (z ** (m - i) * w**i)
    return first, second


def mu_product(c: tuple, m: int, d: tuple, n: int) -> tuple:
    """Componentwise product of a degree-m and a degree-n coefficient pair,
    m and n of one sign: the normalized pair in degree m+n."""
    return normalize_section(m + n, mu_vector(c, abs(m), d, abs(n), c[0] - c[0]))


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


@cache
def unit_split(ctx: FieldCtx, m: int) -> tuple[RingElement, RingElement]:
    """A, B in R with x^m*A + w^m*B = 1 (split of (x+w)^(2m-1) = 1), cached."""
    return (_binomial_part(ctx, 2 * m - 1, range(m), m, 0),
            _binomial_part(ctx, 2 * m - 1, range(m, 2 * m), 0, m))


def mn_matrices(ctx: FieldCtx, n: int) -> IdempotentPair:
    if n < 1:
        raise ValueError("n must be >= 1")
    A, B = unit_split(ctx, n)
    xn, yn, zn, wn = pure_powers(ctx, n)
    Mn = ((xn * A, yn * B), (zn * A, wn * B))
    Mn_prime = ((xn * A, zn * B), (yn * A, wn * B))
    return IdempotentPair(n, A, B, Mn, Mn_prime)


# ---------------------------------------------------------------------------
# sigma, resultants


def sigma(n: int, L0: list, L1: list) -> tuple[tuple, tuple]:
    """The sections of a degree-n homogeneous pair (L0, L1), each an
    ascending coefficient list against alpha^i * beta^(n-i): substitute
    alpha^i beta^(n-i) -> [x^i y^(n-i); z^i w^(n-i)] and normalize to two
    coefficient pairs."""
    # the mixed column index is the y-exponent n - i
    return normalize_section(n, L0[::-1]), normalize_section(n, L1[::-1])


def sylvester_matrix(A: list, B: list, m: int, n: int, zero):
    """Sylvester matrix for ascending coefficient lists with degree bounds
    (m, n); columns are X^(m+n-1) .. X^0, first n rows shift A, last m shift B."""

    def row(lst, shift):
        return [lst[i] if 0 <= (i := shift - c) < len(lst) else zero for c in range(m + n)]

    return [row(A, m + r) for r in range(n)] + [row(B, n + r) for r in range(m)]


def _constant_values(rows):
    """The raw values of a matrix whose entries are all constants of k
    (over R, R[T] or k itself), or None when some entry is symbolic."""
    values = [[e._raw_constant() for e in row] for row in rows]
    return None if any(None in row for row in values) else values


def _solve_over_k(ctx: FieldCtx, values) -> tuple:
    """(det M, x) for a square matrix M of raw values of k, by Gaussian
    elimination with row swaps: x solves M^t x = e_last when det M != 0,
    and is None when det M = 0."""
    size = len(values)
    zero, one = ctx.rzero, ctx.rone
    sub, mul = ctx.rsub, ctx.rmul
    # the rows of M^t, each followed by its entry of e_last
    work = [[row[c] for row in values] + [one if c == size - 1 else zero] for c in range(size)]
    det = one
    for c in range(size):
        pivot = next((r for r in range(c, size) if work[r][c]), None)
        if pivot is None:
            return zero, None
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = ctx.rneg(det)
        det = mul(det, work[c][c])
        inv = ctx.rinv(work[c][c])
        # the pivot row over its pivot, as (column, value) pairs right of it
        top = [(k, mul(v, inv)) for k in range(c + 1, size + 1) if (v := work[c][k])]
        for k, v in top:
            work[c][k] = v
        for r in range(c + 1, size):
            f = work[r][c]
            if f:
                row = work[r]
                for k, v in top:
                    row[k] = sub(row[k], mul(f, v))
    # back substitution on the unit upper triangle
    x = [zero] * size
    for r in reversed(range(size)):
        acc = work[r][size]
        for k in range(r + 1, size):
            if work[r][k]:
                acc = sub(acc, mul(work[r][k], x[k]))
        x[r] = acc
    return det, x


def det_subset(rows, zero, *, adjugate=True):
    """(det M, last row of adj M) for a square matrix M given as rows;
    with ``adjugate=False``, (det M, None) at the cost of the determinant.
    A singular M gives (0, None): no caller reads its adjugate row.

    Entry i of that row is the cofactor C(i, m-1), i.e. the determinant of
    M with row i replaced by the last unit row: det M times the solution of
    M^t * lam = e_last.  A matrix of constants of k is eliminated over k
    (``_solve_over_k``), any other by Bareiss (``_bareiss``).  The name is
    older than these routes; profiling tools wrap this function by name.
    """
    if not rows:
        raise ValueError("empty matrix has no well-defined determinant here")
    values = _constant_values(rows)
    if values is None:
        return _bareiss(rows, zero, adjugate)
    ctx = zero.ctx
    det, x = _solve_over_k(ctx, values)
    if not adjugate or x is None:
        return _like(zero, det), None
    return _like(zero, det), [_like(zero, ctx.rmul(det, v)) for v in x]


def _bareiss(rows, zero, adjugate):
    """(det M, last row of adj M or None) by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968) of [M^t | e_last]; (0, None) when M
    is singular.  Step c sets each entry below and right of the pivot to
    (pivot * entry - left * top) / (previous pivot), exact by the pivot's
    ``divider``, so the last pivot D is +-det M.  y = D*x for M^t x = e_last
    solves U y = D*b on the triangle [U | b], y_i = (D*b_i - sum(U_ij y_j,
    j > i)) / U_ii, and +-y is the adjugate row."""
    size = len(rows)
    work = [list(col) + ([zero] if adjugate else []) for col in zip(*rows)]
    if adjugate:
        work[-1][-1] = _one_like(zero)
    sign, dividers = 1, [None]  # dividers[c]: division by the pivot before step c
    for c in range(size):
        # the pivot of fewest terms: every entry of the next step divides by it
        candidates = [r for r in range(c, size) if not work[r][c].is_zero]
        if not candidates:
            return zero, None
        pivot = min(candidates, key=lambda r: _terms(work[r][c]))
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        p, top, divide = work[c][c], work[c], dividers[c]
        for row in work[c + 1:]:
            f = row[c]
            for k in range(c + 1, len(top)):
                if not (row[k].is_zero and (f.is_zero or top[k].is_zero)):
                    v = p * row[k] - f * top[k]
                    row[k] = v if divide is None else divide(v)
        dividers.append(p.divider() if c < size - 1 else None)
    D = work[-1][size - 1]
    det = D if sign > 0 else -D
    if not adjugate:
        return det, None
    y = [zero] * (size - 1) + [work[-1][size]]
    for i in reversed(range(size - 1)):
        row = work[i]
        acc = D * row[size]
        for j in range(i + 1, size):
            if not (row[j].is_zero or y[j].is_zero):
                acc = acc - row[j] * y[j]
        y[i] = dividers[i + 1](acc)
    return det, y if sign > 0 else [-v for v in y]


def _terms(e) -> int:
    """The number of terms of an element of R or R[T]; 0 in k."""
    return len(e.terms) if isinstance(e, RingElement) else 0


def _trim(coeffs: list) -> list:
    out = list(coeffs)
    while out and out[-1].is_zero:
        out.pop()
    return out


def _sylvester_system(A: list, B: list, m: int | None, n: int | None):
    """The prologue of ``resultant_univ`` and ``bezout_from_unit_resultant``:
    (At, Bt, m, n, zero, rows) with At, Bt the trimmed lists, the bounds
    defaulting to their actual degrees, the zero of their ring and the
    Sylvester matrix at those bounds."""
    At, Bt = _trim(A), _trim(B)
    m = max(len(At) - 1, 0) if m is None else m
    n = max(len(Bt) - 1, 0) if n is None else n
    probe = next(iter(At or Bt or A or B), None)
    if probe is None:
        raise ValueError("resultant of two empty coefficient lists")
    zero = probe - probe
    return At, Bt, m, n, zero, sylvester_matrix(A, B, m, n, zero)


def resultant_univ(A: list, B: list, m: int | None = None, n: int | None = None):
    """Resultant of univariate polynomials with explicit degree bounds.

    Default bounds are the actual degrees.  The empty 0x0 case returns 1.
    """
    _, _, m, n, zero, rows = _sylvester_system(A, B, m, n)
    if m + n == 0:
        return _one_like(zero)
    return det_subset(rows, zero, adjugate=False)[0]


def _like(e, raw):
    """The raw value of k as an element of ``e``'s ring: R, R[T] or k."""
    if isinstance(e, FieldElem):
        return FieldElem(e.ctx, raw)
    return type(e).from_raw(e.ctx, raw)


def _one_like(e):
    return _like(e, e.ctx.rone)


def unit_scalar(e) -> FieldElem | None:
    """The field constant an element of R, R[T] or k equals, if it is a
    nonzero constant."""
    c = e._raw_constant()
    return FieldElem(e.ctx, c) if c else None


def bezout_from_unit_resultant(A: list, B: list, m: int | None = None, n: int | None = None):
    """Solve A*U + B*V = 1 given that res(A, B) at the chosen degree bounds
    is a unit of R.

    Works over R or R[T].  The solution of the Sylvester system is the last
    row of the adjugate of the Sylvester matrix divided by the resultant,
    both from one ``det_subset`` elimination (Gauss over k for constants,
    else Bareiss), which refuses a singular matrix without a further pass.
    Returns (U, V) as ascending coefficient lists with deg U < n and
    deg V < m (bounds default to the actual degrees).
    """
    At, Bt, m, n, zero, rows = _sylvester_system(A, B, m, n)
    if not At and not Bt:
        raise ResultantNotUnit("both polynomials are zero")
    if m == 0 or n == 0:
        # a side of bound 0 is the constant the resultant is a power of;
        # when it is a unit, its inverse alone solves the system
        for i, (side, bound) in enumerate(((At, m), (Bt, n))):
            u = unit_scalar(side[0]) if bound == 0 and side else None
            if u is not None:
                solution = [_one_like(side[0]).scale(u.inverse())]
                return (solution, []) if i == 0 else ([], solution)
        raise ResultantNotUnit("resultant is not a unit")
    res, lam = det_subset(rows, zero)
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


def generation_cofactors(n: int, L0: list, L1: list, pair=None):
    """Four global cofactors certifying that the sections sigma(S0), sigma(S1)
    of a degree-n homogeneous pair with unit resultant generate.

    Raises ResultantNotUnit unless res(S0, S1) at bounds (n, n) is a unit:
    the Bezout solve of the dehomogenized pair refuses any other.  That
    solve gives S0*U + S1*V = beta^(2n-1) after homogenizing; the reversed
    pair (resultant +-res(S0, S1) by the reversal identity, so a unit too)
    gives the alpha power; ``recombine_cofactors`` joins them.  Each solve
    is one ``det_subset`` elimination, Gauss over k or Bareiss (a ``pair``
    given skips the first).  Generic over R and R[T] coefficient lists.
    """
    if len(L0) != n + 1 or len(L1) != n + 1:
        raise ValueError("homogeneous coefficient lists must have length n+1")
    try:
        U, V = pair or bezout_from_unit_resultant(L0, L1, n, n)
    except ResultantNotUnit:
        raise ResultantNotUnit("pair does not have unit resultant") from None
    Ur, Vr = bezout_from_unit_resultant(L0[::-1], L1[::-1], n, n)
    return recombine_cofactors(L0[0].ctx, n, U, V, Ur, Vr)


def recombine_cofactors(ctx: FieldCtx, n: int, U: list, V: list, Ur: list, Vr: list):
    """The four generation cofactors of a degree-n pair (S0, S1) from its
    Bezout pairs at bounds (n, n), ascending lists over R or R[T]: S0*U +
    S1*V = 1, and (Ur, Vr) the same for the reversed pair.  Homogenized
    they give beta^(2n-1) and alpha^(2n-1), and the x^m/w^m unit split
    joins them.  Returns (Ux, Vx, Uw, Vw) against the columns (S0(x,y),
    S1(x,y), S0(z,w), S1(z,w))."""
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


def raised_lift(u: FieldElem, F1: list, F2: list, zero) -> tuple[list, list]:
    """The homogeneous lift (alpha*F1 - (1/u) beta*F2, u beta*F1) of the raise
    by X/u of a map with lift (F1, F2); coefficients over R or R[T]."""
    neg_inv = -u.inverse()
    S0 = [q.scale(neg_inv) for q in F2] + [zero]
    for i, p in enumerate(F1):
        S0[i + 1] = S0[i + 1] + p
    return S0, [p.scale(u) for p in F1] + [zero]


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
    Ar, Br = ([zero] * (n_bound + 1 - len(L)) + L[::-1] for L in (At, Bt))
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
    left_first = poly_add(AX, [b.scale(-u.inverse()) for b in B])
    conservation_lhs = resultant_univ(left_first, [a.scale(u) for a in A], m + 1, m)
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
