"""Exact base-field arithmetic: arbitrary-precision rationals and prime fields F_p.

A :class:`FieldCtx` fixes the field once; elements are :class:`FieldElem`
wrappers around a canonical raw value (a reduced `Fraction` for Q, the least
nonnegative residue for F_p).  The raw-value layer is exposed so that the
polynomial modules can run their inner loops without wrapper overhead.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import ContextMismatch, DivisionByZero, NotPrimeField, ParseError, ZeroInput


# Miller-Rabin with the twelve prime bases 2..37 is exact below psi_12, the
# least strong pseudoprime to all of them; FieldCtx refuses larger moduli.
PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ascii_int(text: str, signed: bool = True) -> int | None:
    """The integer ``text`` spells under the one integer rule of all text
    input (the text formats, CLI options, ``JOU_STEP_BUDGET``), or None:
    ASCII digits, after a leading '-' only when ``signed``, with blanks
    around.  ``int`` alone would also take '1_000', '+1' and non-ASCII
    digits."""
    body = text.strip()
    digits = body[1:] if signed and body.startswith("-") else body
    return int(body) if digits.isascii() and digits.isdigit() else None


class FieldCtx:
    """The base field: either Q or F_p for a prime p.

    Raw values are ``Fraction`` over Q and ``int`` in ``[0, p)`` over F_p.
    All raw-level methods (`radd`, `rmul`, ...) take and return raw values.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= PRIME_BOUND:
                raise NotPrimeField(f"{p} is not below the primality-test bound {PRIME_BOUND}")
            if not _is_prime(p):
                raise NotPrimeField(f"{p} is not prime")
        self.p = p

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.p == other.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    # raw-value arithmetic -------------------------------------------------
    def rfrom_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def rfrom_fraction(self, num: int, den: int):
        if den == 0:
            raise DivisionByZero("zero denominator")
        if self.p is None:
            return Fraction(num, den)
        if den % self.p == 0:
            raise DivisionByZero(f"denominator {den} is zero in F{self.p}")
        return num * pow(den, -1, self.p) % self.p

    def radd(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def rsub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def rmul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def rneg(self, a):
        return -a if self.p is None else (-a) % self.p

    def rinv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def rdiv(self, a, b):
        if not b:
            raise DivisionByZero("division by zero")
        return a / b if self.p is None else a * pow(b, -1, self.p) % self.p

    @property
    def rzero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def rone(self):
        return Fraction(1) if self.p is None else 1

    # element constructors -------------------------------------------------
    def elem(self, value) -> FieldElem:
        """Coerce an int, Fraction, FieldElem, or ``a/b`` string to an element."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise ContextMismatch(f"{value} is not over {self}")
            return value
        if isinstance(value, str):
            return self.parse_scalar(value)
        if isinstance(value, Fraction):
            return FieldElem(self, self.rfrom_fraction(value.numerator, value.denominator))
        if isinstance(value, int):
            return FieldElem(self, self.rfrom_int(value))
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def parse_scalar(self, text: str) -> FieldElem:
        """Parse ``<int>`` or ``<int>/<int>``, each integer by :func:`ascii_int`."""
        num, slash, den = text.partition("/")
        num = ascii_int(num)
        den = ascii_int(den) if slash else 1
        if num is None or den is None:
            raise ParseError(f"bad scalar {text!r}", expected="<int> or <int>/<int>")
        return FieldElem(self, self.rfrom_fraction(num, den))

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, self.rzero)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, self.rone)

    def elements(self):
        """Iterate all field elements (prime fields only)."""
        if self.p is None:
            raise NotPrimeField("Q is infinite")
        return (FieldElem(self, v) for v in range(self.p))


QQ = FieldCtx()


def Fp(p: int) -> FieldCtx:
    return FieldCtx(p)


class FieldElem:
    """An element of a fixed :class:`FieldCtx`, stored in canonical form."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, raw):
        self.ctx = ctx
        self.val = raw

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise ContextMismatch("elements from different fields")
            return other.val
        if isinstance(other, int):
            return self.ctx.rfrom_int(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.radd(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.rsub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.rsub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.rmul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.rdiv(self.val, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.rdiv(v, self.val))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.rneg(self.val))

    def __pow__(self, e: int):
        if e < 0:
            return FieldElem(self.ctx, self.ctx.rinv(self.val)) ** (-e)
        ctx = self.ctx
        if ctx.p is not None:
            return FieldElem(ctx, pow(self.val, e, ctx.p))
        return FieldElem(ctx, self.val ** e)

    def inverse(self) -> FieldElem:
        return FieldElem(self.ctx, self.ctx.rinv(self.val))

    def scale(self, c: "FieldElem") -> "FieldElem":
        return self * c

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.val == other.val
        if isinstance(other, int):
            return self.val == self.ctx.rfrom_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.val))

    def __bool__(self):
        return bool(self.val)

    @property
    def is_zero(self) -> bool:
        return not self.val

    def __repr__(self):
        return str(self.val)


def is_square(a: FieldElem) -> bool:
    return sqrt_witness(a) is not None


def sqrt_witness(a: FieldElem) -> FieldElem | None:
    """A square root of ``a`` if one exists, else None.  ``a`` must be nonzero."""
    if a.is_zero:
        raise ZeroInput("square test needs a nonzero element")
    ctx = a.ctx
    if ctx.is_rationals:
        v: Fraction = a.val
        if v < 0:
            return None
        ns, ds = _isqrt_exact(v.numerator), _isqrt_exact(v.denominator)
        if ns is None or ds is None:
            return None
        return FieldElem(ctx, Fraction(ns, ds))
    p = ctx.p
    if p == 2:
        return FieldElem(ctx, a.val)
    if pow(a.val, (p - 1) // 2, p) != 1:
        return None
    return FieldElem(ctx, _tonelli_shanks(a.val, p))


def _isqrt_exact(n: int) -> int | None:
    r = isqrt(n)
    return r if r * r == n else None


def _tonelli_shanks(a: int, p: int) -> int:
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def multiplicative_generator(ctx: FieldCtx) -> FieldElem:
    """A generator of F_p^x.  The trivial group F_2^x is generated by 1."""
    if ctx.is_rationals:
        raise NotPrimeField("generators only exist for prime fields")
    p = ctx.p
    if p == 2:
        return ctx.one
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return FieldElem(ctx, g)
    raise AssertionError("unreachable: every prime field has a generator")


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def discrete_log(g: FieldElem, v: FieldElem) -> int:
    """The exponent e mod p-1 with g^e = v, by baby-step giant-step."""
    if g.ctx.is_rationals:
        raise NotPrimeField("discrete logs only exist for prime fields")
    if v.is_zero:
        raise ZeroInput("discrete log of zero")
    p = g.ctx.p
    if p == 2:
        return 0
    n = p - 1
    m = isqrt(n) + 1
    table = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = e * g.val % p
    gm_inv = pow(g.val, -m, p)
    gamma = v.val
    for i in range(m):
        if gamma in table:
            return (i * m + table[gamma]) % n
        gamma = gamma * gm_inv % p
    raise ZeroInput(f"{v} is not a power of {g}")
