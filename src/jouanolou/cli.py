"""Command-line front end.

Exit codes: 0 on success, 1 on a mathematical failure (non-membership,
invalid witness, unresolved winding number, non-unimodular input), 2 on
usage or parse errors, 3 when the groebner step budget (JOU_STEP_BUDGET)
ran out before an answer: "Undecided", neither success nor failure.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import groebner, textio
from .bundle import resultant_univ
from .errors import BudgetExceeded, JouanolouError, ParseError
from .field import FieldCtx, ascii_int
from .homgrp import ReferenceFamily, decompose, oplus
from .homotopy import verify
from .jring import RingElement, RingPolyT
from .mwk import MWSymbolWord, k1_canonical, kappa_rep
from .polys import MPoly
from .realize import winding_profile
from .selftest import run_selftest
from .sl2 import act, row_sum


class MathFailure(Exception):
    """Raised for outcomes that exit with status 1."""


def _field(args) -> FieldCtx:
    return textio.parse_field(args.field)


def _int_arg(text: str) -> int:
    """An integer option, read by the one integer rule of the text formats."""
    value = ascii_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    return value


def _embed(p: MPoly, vars: tuple[str, ...]) -> MPoly:
    """Substitute w = 1 - x and place the polynomial in the engine's ring."""
    ctx = p.ctx
    one = MPoly.const(ctx, vars, ctx.rone)
    images = {name: MPoly.var(ctx, vars, name) for name in vars}
    images["w"] = one - images["x"]
    if "T" not in vars:
        images["T"] = MPoly.zero(ctx, vars)  # unused: inputs were T-free
    return p.substitute(images)


def cmd_normalize(args):
    ctx = _field(args)
    r = textio.parse_ring(args.expr, ctx)
    print(textio.ring_str(r))


def cmd_ideal(args):
    ctx = _field(args)
    # blank items are skipped; the others are read in place in --gens
    items = [m for m in re.finditer(r"[^,]+", args.gens) if not m[0].isspace()]
    if not items:
        raise ParseError("no generators given")
    parsed = [textio.parse_poly(args.gens, ctx, True, *m.span()) for m in items]
    target_p = textio.parse_poly(args.target, ctx, allow_T=True)
    with_T = any(p.degree_in("T") > 0 for p in parsed + [target_p])
    vars = (RingPolyT if with_T else RingElement).VARS
    gens = [_embed(p, vars) for p in parsed]
    target = _embed(target_p, vars)
    problem = groebner.IdealProblem(gens, target, include_relation=args.with_relation)
    cert = groebner.express_in_ideal(problem)
    if cert is None:
        print("NOT-IN-IDEAL")
        raise MathFailure
    labels = [m[0].strip() for m in items] + (["x^2 - x + y*z"] if args.with_relation else [])
    for label, cof in zip(labels, cert.cofactors):
        print(f"[{label}] * ({textio.mpoly_str(cof)})")


def cmd_resultant(args):
    ctx = _field(args)
    n = args.degree
    S0, S1 = textio.parse_pair(args.pair, ctx)
    if len(S0) != n + 1 or len(S1) != n + 1:
        raise ParseError(
            f"degree {n} needs {n + 1} ';'-separated coefficients per polynomial"
        )
    print(textio.ring_str(resultant_univ(S0, S1, n, n)))


def cmd_sum(args):
    ctx = _field(args)
    f = textio.parse_map(args.first, ctx)
    g = textio.parse_map(args.second, ctx)
    if f.degree != 0 or g.degree != 0:
        raise ParseError("sum works on degree-0 rows; use oplus for general maps")
    print(textio.map_str(row_sum(f, g)))


def cmd_act(args):
    ctx = _field(args)
    M = textio.parse_sl2(args.matrix, ctx)
    f = textio.parse_map(args.map, ctx)
    print(textio.map_str(act(M, f)))


def cmd_oplus(args):
    ctx = _field(args)
    f = textio.parse_map(args.first, ctx)
    g = textio.parse_map(args.second, ctx)
    refs = ReferenceFamily(ctx, args.ref_neg)
    print(textio.map_str(oplus(f, g, refs)))


def cmd_decompose(args):
    ctx = _field(args)
    f = textio.parse_map(args.map, ctx)
    refs = ReferenceFamily(ctx, args.ref_neg)
    d = decompose(f, refs)
    print(f"degree {d.n}")
    print(textio.sl2_str(d.matrix))
    print("recomposed: " + textio.map_str(act(d.matrix, refs.ref(d.n))))
    text = textio.witness_str(d.witness, ctx)
    if args.witness_out:
        with open(args.witness_out, "w") as fh:
            fh.write(text)
        print(f"witness written to {args.witness_out}")
    else:
        print(text, end="")


def cmd_verify_homotopy(args):
    # newline="": line ends stay as stored, so error positions count in the file
    with open(args.witness, newline="") as fh:
        ctx, witness = textio.parse_witness(fh.read())
    f = textio.parse_map(getattr(args, "from"), ctx)
    g = textio.parse_map(args.to, ctx)
    verdict = verify(witness, f, g)
    print(verdict)
    if not verdict:
        raise MathFailure


def cmd_realize(args):
    ctx = _field(args)
    if not ctx.is_rationals:
        raise ParseError("realization needs --field Q")
    f = textio.parse_map(args.map, ctx)
    deg, raw, residual = winding_profile(f, samples=args.samples)
    print(f"degree {deg} (residual {residual:.2e})")


WORD_RE = re.compile(r"\[([^\[\]]+)\]")


def cmd_k1mw(args):
    ctx = _field(args)
    if ctx.is_rationals:
        raise ParseError("k1mw needs --field Fp=<p>")
    # nothing but blanks may lie outside the [...] groups
    if WORD_RE.sub("", args.word).strip():
        raise ParseError('word must look like "[u1][u2]..."')
    w = MWSymbolWord(ctx, [ctx.parse_scalar(e) for e in WORD_RE.findall(args.word)])
    canon = k1_canonical(ctx, w)
    print(f"canonical residue {canon.residue} (mod {canon.modulus})")
    print(textio.map_str(kappa_rep(w)))


def cmd_selftest(args):
    if not run_selftest(args.filter):
        raise MathFailure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jou",
        description="Exact computations with pointed maps from the Jouanolou device "
        "to the projective line.",
    )
    parser.add_argument(
        "--field", default="Q", help="base field: Q or Fp=<prime> (default Q)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of a ring expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("ideal", help="ideal membership with cofactor certificate")
    p.add_argument("--target", required=True)
    p.add_argument("--gens", required=True, help="comma-separated polynomials")
    p.add_argument("--with-relation", action="store_true")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("resultant", help="Sylvester resultant of a homogeneous pair")
    p.add_argument(
        "--pair",
        required=True,
        help='"c0; ...; cn | d0; ...; dn", ascending (c0 is the pure-beta coefficient)',
    )
    p.add_argument("--degree", type=_int_arg, required=True)
    p.set_defaults(func=cmd_resultant)

    p = sub.add_parser("sum", help="group operation on degree-0 rows")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("act", help="matrix action on a nonzero-degree map")
    p.add_argument("matrix")
    p.add_argument("map")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("oplus", help="full group operation on two maps")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--ref-neg", choices=("qbasis", "naive"), default="qbasis")
    p.set_defaults(func=cmd_oplus)

    p = sub.add_parser("decompose", help="factor through the reference map")
    p.add_argument("map")
    p.add_argument("--ref-neg", choices=("qbasis", "naive"), default="qbasis")
    p.add_argument("--witness-out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-homotopy", help="check a witness file")
    p.add_argument("witness")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=cmd_verify_homotopy)

    p = sub.add_parser("realize", help="winding number along the real circle")
    p.add_argument("map")
    p.add_argument(
        "--samples",
        type=_int_arg,
        default=4096,
        help="circle samples (default 4096); the degree is read from samples, "
        "not certified, and too few samples miss turns",
    )
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("k1mw", help="Milnor-Witt K1 canonical form and row")
    p.add_argument("--word", required=True, help='"[u1][u2]..."')
    p.set_defaults(func=cmd_k1mw)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--filter")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except MathFailure:
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print("Undecided")
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except JouanolouError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
