"""Seeded corpora and the operations the benchmark times.

Everything here goes through the public API of ``jouanolou`` (the names
exported by the package plus ``textio`` and ``homotopy.mutate_witness``);
no private helper of the library or of its acceptance battery is imported,
so edits to either cannot shift the benchmark's inputs.

Library names are resolved through their modules at call time (``J.verify``,
``textio.parse_map``), so a tracer that rebinds them sees every call.

An op is a closure that returns ``(status, output_text)``.  ``status`` is
what the op observed ("valid", "invalid", or a known-defect label);
``output_text`` is the canonical serialized output.  The golden gate hashes
it together with the op's canonical input text (``Op.input``), under a key
the library cannot change (workload, corpus number, op label), so a change
in what the constructors build shows as a mismatch, not as a new key.
``BudgetExceeded`` escaping an op means "undecided".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import jouanolou as J
from jouanolou import textio
from jouanolou.homotopy import mutate_witness

# One fixed step budget for every verify and lift in witness_boundary.  At
# 300 reduction steps each op stays around 2 s or less on a 2-core machine
# while certificate-less degree-2 files still run out (the known defect).
VERIFY_BUDGET = 300

# Status of an oplus op whose winding numbers do not add.  That is a known
# library defect, not a benchmark failure: realize.winding_degree samples the
# circle at a fixed rate and can miss whole turns on higher-degree maps.
WINDING_MISMATCH = "winding_mismatch"


@dataclass
class Op:
    kind: str
    field: str  # "q" or "f7"
    degree: int  # the op's size on the degree axis
    key: str  # golden digest key: workload, corpus number and op label
    input: str  # canonical text of the op's input, hashed with its output
    expect: str  # "valid" or "invalid"
    run: Callable[[], tuple[str, str]]


def field_ctx(name: str):
    return J.QQ if name == "q" else J.Fp(7)


# ---------------------------------------------------------------------------
# random inputs from public constructors


class Gen:
    """Seeded random field data over one field.

    Every drawn scalar is a unit and every drawn polynomial has a fixed set
    of nonzero coefficients, so all corpora have inputs of the same shape and
    only the values differ; that keeps the cost of a corpus close to the cost
    of any other.
    """

    def __init__(self, ctx, rng: random.Random):
        self.ctx = ctx
        self.rng = rng

    def unit(self):
        rng, ctx = self.rng, self.ctx
        if ctx.is_rationals:
            return ctx.elem(Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice((1, 2))))
        return ctx.elem(rng.randrange(1, ctx.p))

    def matrix_params(self):
        """Distinct units u, v in +-{1, 2, 3} (Q) or F_7^* for m_uv and g_uv:
        u = v gives the identity, and fractions would make a few inputs far
        costlier than the rest."""
        rng, ctx = self.rng, self.ctx
        pool = [s * k for s in (-1, 1) for k in (1, 2, 3)] if ctx.is_rationals else range(1, ctx.p)
        u, v = rng.sample(list(pool), 2)
        return ctx.elem(u), ctx.elem(v)

    def scaling_unit(self):
        """A unit with u^2 != 1, so scaling really moves the row."""
        while True:
            u = self.unit()
            if u * u != self.ctx.one:
                return u

    def rational(self, n: int, b_terms: int | None = None):
        """Dense monic numerator of degree n over a denominator with its
        lowest ``b_terms`` coefficients (all n by default)."""
        ctx = self.ctx
        b_terms = n if b_terms is None else b_terms
        while True:
            a = [self.unit() for _ in range(n)] + [ctx.one]
            b = [self.unit() for _ in range(b_terms)] + [ctx.zero] * (n - b_terms)
            try:
                return J.RationalMapP1(ctx, n, a, b)
            except J.errors.ResultantZero:
                continue

    def pullback(self, n: int, b_terms: int | None = None):
        return J.pullback_rational(self.rational(n, b_terms))

    def vanishing(self):
        """A random element of the basepoint ideal (linear in y, z, w)."""
        ctx = self.ctx
        y, z, w = J.RingElement.gen_y(ctx), J.RingElement.gen_z(ctx), J.RingElement.gen_w(ctx)
        return y.scale(self.unit()) + z.scale(self.unit()) + w.scale(self.unit())

    def pointed_matrix(self):
        """m_(u,v) times one random elementary pointed factor."""
        ctx = self.ctx
        one, zero = J.RingElement.one(ctx), J.RingElement.zero(ctx)
        r = self.vanishing()
        if self.rng.random() < 0.5:
            factor = J.PointedSL2(((one, r), (zero, one)))
        else:
            factor = J.PointedSL2(((one, zero), (r, one)))
        return J.m_uv(*self.matrix_params()) @ factor


# ---------------------------------------------------------------------------
# ref_ladder


def ladder_op(field: str, n: int) -> Op:
    def run():
        f = J.n_pi(n, field_ctx(field))
        return "valid", textio.map_str(f)

    return Op("n_pi", field, n, f"n_pi:{field}:{n}", f"n_pi {n} {field}", "valid", run)


# ---------------------------------------------------------------------------
# group_roundtrip


class GroupCorpus:
    """Q maps of degrees -2..3 (mostly 1-2) as text literals, and a warmed
    naive reference family up to the largest summed degree."""

    # labels of the maps built below; every corpus has the same mix of
    # degrees and constructions, only the coefficients vary
    DECOMPOSE = ("p1", "p2", "m1", "p3", "t1", "t2")
    # oplus pairs by label; summed |degree| <= 4
    OPLUS = (("p1", "q1"), ("m1", "p2"), ("p2", "t1"), ("g0", "p2"), ("t2", "q1"), ("p2", "t2"))

    def __init__(self, corpus: int):
        ctx = J.QQ
        self.corpus = corpus
        gen = Gen(ctx, random.Random(f"group_roundtrip:{corpus}"))
        maps = {
            "p1": gen.pullback(1),
            "q1": gen.pullback(1),
            "p2": gen.pullback(2),
            # a constant denominator keeps the degree-3 op near 2 s
            "p3": gen.pullback(3, b_terms=1),
        }
        # twisting a degree-2 map makes decompose+verify bimodal (about 1 s or
        # 5 s, depending on the draw); a twisted degree-1 map is steady
        maps["m1"] = J.act(J.m_uv(*gen.matrix_params()), gen.pullback(1))
        maps["t1"] = gen.pullback(1).tau_transport()
        maps["t2"] = gen.pullback(2).tau_transport()
        maps["g0"] = J.g_uv(*gen.matrix_params())
        self.ctx = ctx
        self.text = {k: textio.map_str(f) for k, f in maps.items()}
        self.degree = {k: f.degree for k, f in maps.items()}
        self.winding = {k: J.winding_degree(f) for k, f in maps.items()}
        self.refs = J.ReferenceFamily(ctx, "naive")
        top = max(abs(self.degree[a]) + abs(self.degree[b]) for a, b in self.OPLUS)
        for n in range(1, top + 1):
            for m in (n, -n):
                self.refs.ref(m)
                self.refs.ref_decomposition(m)

    def ops(self) -> list[Op]:
        out = [self._decompose_op(k) for k in self.DECOMPOSE]
        out += [self._oplus_op(a, b) for a, b in self.OPLUS]
        return out

    def _decompose_op(self, label: str) -> Op:
        ctx, refs, text = self.ctx, self.refs, self.text[label]

        def run():
            f = textio.parse_map(text, ctx)
            d = J.decompose(f, refs)
            start = J.act(d.matrix, refs.ref(d.n))
            verdict = J.verify(d.witness, start, f)
            out = "\n".join(
                (str(verdict), textio.map_str(start), textio.sl2_str(d.matrix),
                 textio.witness_str(d.witness, ctx))
            )
            return ("valid" if verdict else "invalid"), out

        return Op("decompose", "q", abs(self.degree[label]),
                  f"{self.corpus}:decompose:{label}", text, "valid", run)

    def _oplus_op(self, a: str, b: str) -> Op:
        ctx, refs = self.ctx, self.refs
        ta, tb = self.text[a], self.text[b]
        want = self.winding[a] + self.winding[b]

        def run():
            f = textio.parse_map(ta, ctx)
            g = textio.parse_map(tb, ctx)
            s = J.oplus(f, g, refs)
            got = J.winding_degree(s)
            out = f"{textio.map_str(s)}\nwinding {got} want {want}"
            return ("valid" if got == want else WINDING_MISMATCH), out

        size = abs(self.degree[a]) + abs(self.degree[b])
        return Op("oplus", "q", size, f"{self.corpus}:oplus:{a}+{b}", ta + "\n" + tb,
                  "valid", run)


# ---------------------------------------------------------------------------
# witness_boundary


@dataclass
class WitnessCase:
    kind: str
    label: str  # stable name within the corpus, for the golden key
    field: str
    degree: int
    text: str  # canonical description of the input, hashed with the output
    build: Callable[[], tuple] | None  # -> (witness, start map, end map)
    built: tuple | None = None  # set by the construct op (or in set-up)
    error: Exception | None = None  # what the construct op's build raised

    def construct(self) -> tuple:
        try:
            self.built = self.build()
        except Exception as exc:
            self.error = exc
            raise
        return self.built

    def witness(self) -> tuple:
        """The constructed witness.  When its build raised, the ops that use
        it raise the same error, so they share the construct op's outcome
        (undecided on ``BudgetExceeded``) instead of failing."""
        if self.built is None:
            if self.error is not None:
                raise self.error
            raise RuntimeError(f"{self.kind} witness was not constructed")
        return self.built


class WitnessCorpus:
    """Per field, two inputs for each of the five witness constructors plus
    degree-1 and degree-2 decompose witnesses.

    The op mix follows the ``decompose --witness-out`` -> ``verify-homotopy``
    pipeline: every constructed witness is verified in memory once (construct
    op), every constructed or decompose witness is written, read back and
    verified once (file op), and every constructed witness is corrupted once
    and must be rejected (mutation op).  The constructed witnesses are the
    ones the file and mutation ops of the same pass use, so ops run in list
    order."""

    # two inputs per constructor and field: more samples of each kind per
    # segment, the same mix
    COPIES = 2

    def __init__(self, corpus: int):
        self.corpus = corpus
        self.cases: list[WitnessCase] = []
        self.decomposed: list[WitnessCase] = []
        for field in ("q", "f7"):
            ctx = field_ctx(field)
            gen = Gen(ctx, random.Random(f"witness_boundary:{corpus}:{field}"))
            for copy in range(self.COPIES):
                self.cases += self._constructor_cases(field, ctx, gen, copy)
        for field in ("q", "f7"):
            ctx = field_ctx(field)
            gen = Gen(ctx, random.Random(f"witness_boundary:{corpus}:{field}:decompose"))
            refs = J.ReferenceFamily(ctx)
            for n in (1, 2):
                f = gen.pullback(n)
                d = J.decompose(f, refs)
                start = J.act(d.matrix, refs.ref(d.n))
                self.decomposed.append(WitnessCase("decompose", f"{field}.decompose{n}", field, n,
                                                   textio.map_str(f), None, (d.witness, start, f)))

    @staticmethod
    def _constructor_cases(field, ctx, gen: Gen, copy: int) -> list[WitnessCase]:
        one = ctx.one
        cases = []

        def case(kind, degree, text, build, name=None):
            label = f"{field}.{copy}.{name or kind}"
            cases.append(WitnessCase(kind, label, field, degree, text, build))

        M, M_alt = gen.pointed_matrix(), gen.vanishing()

        def interp(M=M, d=M_alt):
            A, B = M.row_A, M.row_B
            M2 = J.PointedSL2(((A, M.entries[0][1] + A * d), (B, M.entries[1][1] + B * d)))
            row = M.row_map()
            return J.interp_lift(row, M, M2), row, row

        case("interp_lift", 0, textio.sl2_str(M) + " d " + textio.ring_str(M_alt), interp)

        M = gen.pointed_matrix()

        def transpose(M=M):
            dst = J.make_row(M.U, M.V, (M.row_A, M.row_B))
            return J.transpose_inverse_witness(M), M.row_map(), dst

        case("transpose_inverse", 0, textio.sl2_str(M), transpose)

        M, u = gen.pointed_matrix(), gen.scaling_unit()

        def scaling(M=M, u=u):
            sq = u * u
            dst = J.make_row(M.row_A, M.row_B.scale(sq), (M.U, M.V.scale(sq.inverse())))
            return J.scaling_witness(M, u), M.row_map(), dst

        case("scaling", 0, f"{textio.sl2_str(M)} u {u}", scaling)

        for n in (1, 2):
            u, f = gen.unit(), gen.pullback(n)

            def raising(u=u, f=f):
                raised, witness = J.naive_sum_deg1(u, f)
                target = J.act(J.m_uv(u, one), J.naive_sum_deg1(one, f)[0])
                return witness, raised, target

            case("degree_raise", n + 1, f"{textio.map_str(f)} u {u}", raising,
                 name=f"degree_raise{n}")

        # relift a scaling segment; over F_7 the certificate is stripped so the
        # lift has to run the budgeted groebner decision (over Q that decision
        # takes 0.1-4 s, longer than the 2 s an op may take; Q's groebner
        # fallback is exercised by the file ops)
        M, u = gen.pointed_matrix(), gen.scaling_unit()
        strip = field == "f7"

        def relift(M=M, u=u, strip=strip):
            seg = J.scaling_witness(M, u).segments[0]
            if strip:
                seg = J.Segment(0, seg.data, None)
            path = J.lift_row_homotopy(seg, budget=VERIFY_BUDGET)
            zero = seg.ctx.zero
            return path.row_witness(), path.at(zero).row_map(), path.at(one).row_map()

        case("lift_row" + ("_stripped" if strip else ""), 0,
             f"{textio.sl2_str(M)} u {u} strip {strip}", relift)
        return cases

    def ops(self) -> list[Op]:
        c = self.corpus
        out = [self._construct_op(c, case) for case in self.cases]
        out += [self._file_op(c, case) for case in self.cases + self.decomposed]
        mut_rng = random.Random(f"witness_boundary:{c}:mutations")
        out += [self._mutation_op(c, case, mut_rng.randrange(2**32)) for case in self.cases]
        return out

    @staticmethod
    def _construct_op(corpus: int, case: WitnessCase) -> Op:
        def run():
            witness, start, end = case.construct()
            verdict = J.verify(witness, start, end, budget=VERIFY_BUDGET)
            text = textio.witness_str(witness, witness.ctx)
            return ("valid" if verdict else "invalid"), f"{verdict}\n{text}"

        return Op("construct:" + case.kind, case.field, case.degree,
                  f"{corpus}:construct:{case.label}", case.text, "valid", run)

    @staticmethod
    def _file_op(corpus: int, case: WitnessCase) -> Op:
        def run():
            witness, start, end = case.witness()
            text = textio.witness_str(witness, witness.ctx)
            ctx, parsed = textio.parse_witness(text)
            verdict = J.verify(parsed, start, end, budget=VERIFY_BUDGET)
            return ("valid" if verdict else "invalid"), f"{verdict}\n{text}"

        return Op("file:" + case.kind, case.field, case.degree,
                  f"{corpus}:file:{case.label}", case.text, "valid", run)

    @staticmethod
    def _mutation_op(corpus: int, case: WitnessCase, mseed: int) -> Op:
        def run():
            witness, start, end = case.witness()
            mutated = mutate_witness(witness, random.Random(mseed))
            verdict = J.verify(mutated, start, end, budget=VERIFY_BUDGET)
            text = textio.witness_str(mutated, mutated.ctx)
            return ("valid" if verdict else "invalid"), f"{verdict}\n{text}"

        return Op("mutation:" + case.kind, case.field, case.degree,
                  f"{corpus}:mutation:{case.label}", f"{case.text} m {mseed}", "invalid", run)


def build_ops(workload: str, corpus: int) -> list[Op]:
    """The ops of one pass over a numbered corpus (set-up work included)."""
    if workload == "group_roundtrip":
        return GroupCorpus(corpus).ops()
    if workload == "witness_boundary":
        return WitnessCorpus(corpus).ops()
    raise ValueError(f"unknown in-process workload {workload!r}")
