"""One benchmark job in a fresh interpreter: set up, run ops, report JSON.

``run.py`` starts this script with a controlled environment and reads the
single JSON line it prints.  A ``ref_ladder`` job builds one reference map
cold; a ``group_roundtrip`` or ``witness_boundary`` job builds its corpus
(the timed set-up) and runs one pass over it.

Every timing is reported twice: raw seconds, and seconds normalized to the
machine's speed while the timed region ran.  The reference machine is a
shared VM whose speed swings by up to 2x within seconds, so a timer signal
runs a tiny fixed pure-Python kernel (sparse products of Fraction dicts,
the library's own kind of work) every ``PROBE_PERIOD_S`` for the whole job
and records how long it took.  A region's normalized time is its raw time
(probe runs excluded) times (``PROBE_REF_S`` / the median probe time during
the region) to the power ``PROBE_EXPONENT``.  On cold ``n_pi(6)`` builds
normalizing (then by the mean probe time) cut the spread (coefficient of
variation) from 11% raw to 3%; timing the kernel only before and after a
long op does not help.  The probe runs with the garbage collector off, so
a collection of the library's garbage is charged to the library, not to
the probe; the median keeps one slow probe from moving a region.
Normalization only reduces noise: a change that slows the interpreter as a
whole slows the probe too, so the raw figures are reported beside the
normalized ones.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_PERIOD_S = 0.02
# About the probe kernel's time between library calls on the reference
# machine (2-core VM, Python 3.11.7) when nothing else competes for it; a
# normalized second is a second there.
PROBE_REF_S = 0.0004
# The library slows less than the probe when the machine slows: over ten
# runs of each workload, op time grew as probe time to the power 0.73
# (group_roundtrip), 0.91 (witness_boundary) and about 1 (ref_ladder); one
# exponent between them serves all three.
PROBE_EXPONENT = 0.85
# a region with fewer than three probes inside it borrows those this close
PROBE_WINDOW_S = 0.1
_PROBE_A = {(i, (3 * i) % 7): Fraction(i + 1, 3 + i % 4) for i in range(4)}
_PROBE_B = {(i % 5, i): Fraction(2 * i - 7, 1 + i % 3) for i in range(24)}


def _kernel():
    out = {}
    for ka, ca in _PROBE_A.items():
        for kb, cb in _PROBE_B.items():
            key = (ka[0] + kb[0], ka[1] + kb[1])
            out[key] = out.get(key, 0) + ca * cb
    return out


class SpeedProbe:
    """Samples the machine's speed from a SIGALRM handler."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        _kernel()
        self.samples.append((t, time.perf_counter() - t))
        if collecting:
            gc.enable()

    def seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalized) seconds of the region [t0, t1], probes excluded."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        raw = (t1 - t0) - sum(inside)
        speed = inside
        if len(speed) < 3:
            speed = [d for s, d in self.samples if t0 - PROBE_WINDOW_S <= s < t1 + PROBE_WINDOW_S]
        speed = speed or [d for _, d in self.samples]
        return raw, raw * (PROBE_REF_S / statistics.median(speed)) ** PROBE_EXPONENT


def digest(op, output: str) -> str:
    """sha256 of the op's canonical input and output text."""
    return hashlib.sha256(f"{op.input}\n--\n{output}".encode()).hexdigest()


def run_op(op) -> tuple[str, str]:
    """Run one op; returns (status, canonical output text).

    Exhausting the step budget is the "undecided" outcome, not an error;
    anything else raised is reported by exception name.
    """
    from jouanolou.errors import BudgetExceeded

    try:
        return op.run()
    except BudgetExceeded:
        return "undecided", "Undecided"
    except Exception as exc:  # the benchmark must report, not crash
        return f"error:{type(exc).__name__}", f"{type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--corpus", type=int)
    ap.add_argument("--field")
    ap.add_argument("--n", type=int)
    ap.add_argument("--trace-out", help="trace the ops and write their spans here")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    import workloads

    if args.workload == "ref_ladder":
        ops = [workloads.ladder_op(args.field, args.n)]
    else:
        ops = workloads.build_ops(args.workload, args.corpus)
    setup_end = time.perf_counter()

    tracer = None
    if args.trace_out:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()

    results = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.op(i):
                status, text = run_op(op)
        else:
            status, text = run_op(op)
        results.append((op, status, text, t0, time.perf_counter()))
    time.sleep(PROBE_WINDOW_S)  # probes after the last op
    probe.stop()

    records = []
    for op, status, text, t0, t1 in results:
        raw, norm = probe.seconds(t0, t1)
        records.append({
            "kind": op.kind, "field": op.field, "degree": op.degree, "key": op.key,
            "expect": op.expect, "status": status,
            "digest": digest(op, text),
            "raw_s": raw, "s": norm,
        })
    setup_raw, setup_norm = probe.seconds(_T0, setup_end)
    result = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_norm,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tracer_loaded": "layertrace" in sys.modules,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layertrace.layer_metrics(tracer.spans, tracer.counts)
        tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
