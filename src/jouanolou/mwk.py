"""Canonical forms in the first Milnor-Witt K-group of small fields, and the
bridge to the degree-0 maps.

Over a prime field the group of symbols is cyclic of order q-1: a formal
sum of symbols [u_i] reduces to the sum of discrete logs of the u_i against
a fixed generator.  Over the reals every element has the normal form
n*[-1] + [u] with u > 0; both canonical forms add componentwise.  The
correspondence with degree-0 maps sends a symbol [u] to the map with row
(x + (1/u)w, (u-1)y) and a word to the product of those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotPrimeField, UnsupportedField, ZeroInput
from .field import FieldCtx, FieldElem, discrete_log, multiplicative_generator
from .morphism import JMap, g_uv
from .sl2 import identity_matrix, row_sum

REALS = "R"


@dataclass
class MWSymbolWord:
    """A formal sum of degree-1 symbols: [u_1] + ... + [u_k].

    Entries are field elements (prime field or Q); over the reals the
    rational values stand in for real units.  Zero entries are rejected.
    """

    ctx: FieldCtx
    symbols: list[FieldElem]

    def __post_init__(self):
        for s in self.symbols:
            if s.is_zero:
                raise ZeroInput("symbols take unit arguments")

    def __add__(self, other: "MWSymbolWord") -> "MWSymbolWord":
        if self.ctx != other.ctx:
            raise ValueError("words over different fields")
        return MWSymbolWord(self.ctx, self.symbols + other.symbols)


def word(ctx: FieldCtx, *values) -> MWSymbolWord:
    return MWSymbolWord(ctx, [ctx.elem(v) for v in values])


@dataclass
class K1Canonical:
    """Canonical form of a degree-1 element: a residue mod q-1 over a prime
    field, or (multiplicity of [-1], positive unit) over the reals."""

    kind: str  # 'Fq' or 'R'
    residue: int | None = None
    modulus: int | None = None
    neg_count: int | None = None
    positive: Fraction | None = None

    def __add__(self, other: "K1Canonical") -> "K1Canonical":
        if self.kind != other.kind:
            raise ValueError("canonical forms over different fields")
        if self.kind == "Fq":
            if self.modulus != other.modulus:
                raise ValueError("canonical forms over different fields")
            return K1Canonical(
                "Fq", (self.residue + other.residue) % self.modulus, self.modulus
            )
        return K1Canonical(
            "R",
            neg_count=self.neg_count + other.neg_count,
            positive=self.positive * other.positive,
        )

    @property
    def is_identity(self) -> bool:
        if self.kind == "Fq":
            return self.residue == 0
        return self.neg_count == 0 and self.positive == 1


def k1_canonical(field, word: MWSymbolWord) -> K1Canonical:
    """Reduce a symbol word to its canonical form.

    ``field`` is a prime-field context, or the marker "R" for the real
    normal form (the word must then be over Q, its values read as reals).
    """
    if field == REALS:
        if not word.ctx.is_rationals:
            raise UnsupportedField("real canonical forms read rational values")
        neg = 0
        pos = Fraction(1)
        for s in word.symbols:
            v: Fraction = s.val
            if v < 0:
                neg += 1
                pos *= -v
            else:
                pos *= v
        return K1Canonical("R", neg_count=neg, positive=pos)
    if not isinstance(field, FieldCtx) or field.is_rationals:
        raise UnsupportedField("canonical forms exist over F_p or the reals")
    if word.ctx != field:
        raise ValueError("word is not over the requested field")
    g = multiplicative_generator(field)
    modulus = field.p - 1
    residue = 0
    for s in word.symbols:
        residue = (residue + discrete_log(g, s)) % modulus
    return K1Canonical("Fq", residue, modulus)


def k1_order(field: FieldCtx) -> int:
    """The order q-1 of the cyclic group over a prime field."""
    if field.is_rationals:
        raise NotPrimeField("only prime fields have finite symbol groups")
    return field.p - 1


def kappa_rep(word: MWSymbolWord) -> JMap:
    """The degree-0 map representing a word: the row product of the maps
    g_(u,1) over its symbols (the empty word gives the trivial row)."""
    ctx = word.ctx
    one = ctx.one
    rep: JMap | None = None
    for s in word.symbols:
        factor = g_uv(s, one)
        rep = factor if rep is None else row_sum(rep, factor)
    if rep is None:
        rep = identity_matrix(ctx).row_map()
    return rep


def kappa_canonical_rep(field: FieldCtx, word: MWSymbolWord) -> tuple[int, JMap]:
    """The canonical-form representative over F_q: the residue r and the
    r-fold row product of g_(g,1) for the fixed generator g."""
    canon = k1_canonical(field, word)
    g = multiplicative_generator(field)
    rep = kappa_rep(MWSymbolWord(field, [g] * canon.residue))
    return canon.residue, rep
