"""Outside-in tracing of the library's layers, for the traced benchmark run.

The tracer rebinds public functions and methods of ``jouanolou`` modules at
every name their callers resolve (``bundle.generation_cofactors`` and the
copy ``morphism`` imported, ``homotopy.cert_expands_to_one``, ...).  The
library's source is never modified.  Span wrappers record
``(name, start, end, parent, op, tag)`` in memory; count wrappers on the hot
arithmetic only bump a counter.  Nothing is recorded outside an op, so
set-up work stays out of the layer numbers.

This module is imported only by a traced run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, attribute path, tag) -- tag picks what a span
# remembers besides its interval: the matrix size, the returned value, ...
SPANS = (
    ("bundle.det_subset", "bundle", "det_subset", "size"),
    ("bundle.bezout_from_unit_resultant", "bundle", "bezout_from_unit_resultant", None),
    ("bundle.resultant_univ", "bundle", "resultant_univ", None),
    ("bundle.generation_cofactors", "bundle", "generation_cofactors", None),
    ("bundle.mu_product", "bundle", "mu_product", None),
    ("bundle.normalize_section", "bundle", "normalize_section", None),
    ("sl2.PointedSL2.init", "sl2", "PointedSL2.__init__", None),
    ("sl2.act", "sl2", "act", None),
    ("sl2.complete_pointed", "sl2", "complete_pointed", None),
    ("homotopy.Sl2Path.init", "homotopy", "Sl2Path.__init__", None),
    ("homgrp.decompose", "homgrp", "decompose", None),
    ("homgrp.oplus", "homgrp", "oplus", None),
    ("homotopy.verify", "homotopy", "verify", None),
    ("groebner.express_in_ideal", "groebner", "express_in_ideal", "result"),
    ("morphism.make_map", "morphism", "make_map", None),
    ("morphism.make_row", "morphism", "make_row", None),
    ("morphism.cert_expands_to_one", "morphism", "cert_expands_to_one", "result"),
    ("textio.parse_map", "textio", "parse_map", None),
    ("textio.parse_witness", "textio", "parse_witness", None),
    ("textio.witness_str", "textio", "witness_str", "length"),
    ("realize.winding_degree", "realize", "winding_degree", None),
)

COUNTS = (
    ("jring.RingElement.mul", "jring", "RingElement.__mul__"),
    ("jring.RingElement.add", "jring", "RingElement.__add__"),
    ("jring.BivarPoly.mul", "jring", "BivarPoly.__mul__"),
    ("jring.RingPolyT.mul", "jring", "RingPolyT.__mul__"),
    ("field.FieldCtx.rmul", "field", "FieldCtx.rmul"),
    ("field.FieldCtx.radd", "field", "FieldCtx.radd"),
    ("polys.MPoly.mul", "polys", "MPoly.__mul__"),
    ("polys.MPoly.mul_term", "polys", "MPoly.mul_term"),
)

DET_SIZES = range(1, 17)

OP_SPAN = "op"


def _tag_value(tag, args, result):
    if tag == "size":
        return len(args[0])
    if tag == "result":
        return "refuted" if result is None else bool(result)
    if tag == "length":
        return len(result)
    return None


class Tracer:
    """Spans and counts of one job's ops; ``install`` wraps the library."""

    def __init__(self):
        # span rows: [name, start, end, parent index, op id, tag]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------
    def _span(self, name, fn, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            row = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                row[5] = type(exc).__name__
                raise
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if tag is not None:
                row[5] = _tag_value(tag, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span of one benchmark op; spans are recorded only inside."""
        row = [OP_SPAN, time.perf_counter(), 0.0, None, op_id, None]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()
            self._op = None

    # -- installation -------------------------------------------------------
    def install(self):
        for name, module, path, tag in SPANS:
            self._rebind(module, path, lambda fn, name=name, tag=tag: self._span(name, fn, tag))
        for name, module, path in COUNTS:
            self._rebind(module, path, lambda fn, name=name: self._count(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, module, path, make):
        mod = sys.modules[f"jouanolou.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            wrapper = make(original)
            # aliases such as __rmul__ = __mul__ resolve to the same function
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, wrapper)
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "jouanolou" or mod_name.startswith("jouanolou.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, key, value))
                    setattr(other, key, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for row in spans:
        if row[3] is not None:
            children[row[3]].append(row)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        kids = [(max(k[1], start), min(k[2], end)) for k in children.get(i, ())]
        out.append((end - start) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def self_time_residual(spans, selfs) -> float:
    """Largest gap, over ops, between the op span's duration and the sum of
    self times of every span recorded inside that op."""
    per_op = defaultdict(float)
    roots = {}
    for row, s in zip(spans, selfs):
        per_op[row[4]] += s
        if row[0] == OP_SPAN:
            roots[row[4]] = row[2] - row[1]
    return max((abs(per_op[op] - dur) for op, dur in roots.items()), default=0.0)


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer numbers from spans and counters (one value per metric name)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name, *_ in SPANS:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for name, *_ in COUNTS:
        out[f"{name}.calls"] = counts.get(name, 0)
    for m in DET_SIZES:
        out[f"bundle.det_subset.calls.m{m}"] = 0
    extra = Counter()

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield spans[p][0]
            p = spans[p][3]

    for i, (row, s) in enumerate(zip(spans, selfs)):
        name, start, end, _, _, tag = row
        if name == OP_SPAN:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += s
        if name not in ancestors(i):  # recursion counts once in total time
            out[f"{name}.total_s"] += end - start
        if name == "bundle.det_subset" and isinstance(tag, int):
            key = f"bundle.det_subset.calls.m{tag}"
            if key in out:
                out[key] += 1
        elif name == "groebner.express_in_ideal":
            if tag == "refuted":
                extra["groebner.express_in_ideal.refuted"] += 1
            elif tag == "BudgetExceeded":
                extra["groebner.express_in_ideal.undecided"] += 1
            if "homotopy.verify" in ancestors(i):
                extra["homotopy.verify.groebner_fallbacks"] += 1
        elif name == "morphism.cert_expands_to_one" and tag is True:
            extra["morphism.cert_expands_to_one.true"] += 1
            if "homotopy.verify" in ancestors(i):
                extra["homotopy.verify.cert_hits"] += 1
        elif name == "textio.witness_str" and isinstance(tag, int):
            extra["textio.witness_bytes"] += tag
    for key in (
        "groebner.express_in_ideal.refuted",
        "groebner.express_in_ideal.undecided",
        "homotopy.verify.groebner_fallbacks",
        "homotopy.verify.cert_hits",
        "morphism.cert_expands_to_one.true",
        "textio.witness_bytes",
    ):
        out[key] = extra.get(key, 0)
    out["trace.self_time_residual_s"] = self_time_residual(spans, selfs)
    return out
