"""The jouanolou benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload ref_ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report

Run it from the root of a checkout.  Each job runs in a fresh interpreter
(``worker.py``) with ``PYTHONPATH=src``, a seed-derived ``PYTHONHASHSEED``,
single-threaded numeric libraries and no ``JOU_STEP_BUDGET``, so a user's
shell cannot change the results.  Jobs run one at a time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one pass
untraced and the same pass traced and reports the per-layer metrics.  The
report lines name every metric with its unit and sample count; the last
line is one JSON object.  The exit code is 1 when a correctness check
fails and 2 when the benchmark cannot run at all.

See ``perfbench/README.md`` for the workloads, the metric definitions and
the prediction table.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("ref_ladder", "group_roundtrip", "witness_boundary")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
LADDER = [(f, n) for f in ("q", "f7") for n in (2, 3, 4, 5, 6)]
# Least passes a run makes (ladder passes on ref_ladder, segments on the
# others, each of which times its own set-up for the setup_s median); more
# follow while --seconds allows.
MIN_PASSES = {"ref_ladder": 2, "group_roundtrip": 3, "witness_boundary": 3}
# Each segment of group_roundtrip or witness_boundary runs one corpus drawn
# from a fixed pool; the golden file holds the digests of every corpus in
# the pool, so the byte-identity gate covers any --seed.
CORPUS_POOL = 32
# a workload run gives up (exit 2) rather than outlive this many seconds
RUN_LIMIT_S = 170
OUT_DIR = ".perfbench"

# outcome of an op that the library got wrong in a way the benchmark knows
# about and keeps visible (see workloads.WINDING_MISMATCH)
KNOWN_DEFECTS = ("winding_mismatch",)
OUTCOMES = ("ok", "rejected", "undecided", "failed") + KNOWN_DEFECTS

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "raw_setup_s": "s", "raw_ops_per_s": "1/s", "raw_op_p50_s": "s", "raw_op_tail_s": "s",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a crashed job)."""


# ---------------------------------------------------------------------------
# outcome accounting and the golden gate


def classify(expect: str, status: str) -> str:
    """Sort one op into ok / rejected / undecided / failed / known defect."""
    if status == "undecided":
        return "undecided"
    if status == expect:
        return "ok" if expect == "valid" else "rejected"
    if status in KNOWN_DEFECTS:
        return status
    return "failed"


class GoldenGate:
    """Digests of each op's canonical input and output, keyed by workload,
    corpus number and op label (``Op.key``), which the library cannot change.

    With recorded digests (``golden/*.json``) every op must match its record,
    and an op whose key has no record fails.  While recording
    (``recorded=None``) an op that runs twice must give the same digest."""

    def __init__(self, recorded: dict[str, str] | None):
        self.recorded = recorded
        self.seen: dict[str, str] = {}
        self.matched = 0
        self.unrecorded: list[str] = []
        self.mismatches: list[str] = []

    def check(self, key: str, digest: str) -> bool:
        if self.recorded is None:
            want = self.seen.get(key)
        else:
            want = self.recorded.get(key)
            if want is None:
                self.unrecorded.append(key)
                return False
        self.seen.setdefault(key, digest)
        if want is not None and want != digest:
            self.mismatches.append(key)
            return False
        self.matched += want is not None
        return True


def golden_path(workload: str) -> Path:
    return BENCH_DIR / "golden" / f"{workload}.json"


def load_golden(workload: str) -> dict[str, str]:
    """The recorded digests; none when the file is missing, so that every op
    fails the gate."""
    path = golden_path(workload)
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float], n_min: int) -> tuple[float, float]:
    """(value, percentile) of the tail.  The percentile is the highest one
    with at least ten samples beyond it in the smallest run the workload
    makes (``n_min`` samples); it is fixed per workload, so runs of
    different lengths report the same statistic.  With ``n_min`` <= 10 the
    tail is the largest value."""
    ordered = sorted(values)
    n = len(ordered)
    if n_min <= 10:
        return ordered[-1], 100.0
    share = 10 / n_min
    beyond = int(share * n + 1e-9)
    return ordered[n - beyond - 1], 100.0 * (1 - share)


def ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# jobs


def job_env(root: Path, hash_seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k != "JOU_STEP_BUDGET" and not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=os.pathsep.join((str(root / "src"), str(BENCH_DIR))),
        PYTHONHASHSEED=str(hash_seed % 4294967296),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_job(root: Path, workload: str, hash_seed: int, trace_out=None, corpus=None,
            field=None, n=None, timeout: float = RUN_LIMIT_S) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload]
    if corpus is not None:
        cmd += ["--corpus", str(corpus)]
    if field is not None:
        cmd += ["--field", field, "--n", str(n)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=job_env(root, hash_seed), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} job still running after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} job exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} job printed no result")
    return json.loads(lines[-1])


def ladder_passes(seed: int):
    """Endless shuffled passes over the ladder, one (field, n) per job."""
    k = 0
    while True:
        order = list(LADDER)
        random.Random(f"ref_ladder:{seed}:{k}").shuffle(order)
        yield order
        k += 1


def segment_corpus(workload: str, seed: int, k: int) -> int:
    return random.Random(f"{workload}:{seed}:{k}").randrange(CORPUS_POOL)


def run_jobs(root, workload, seed, seconds, traced=False, passes=None,
             deadline=None) -> list[dict]:
    """Untraced: jobs until ``seconds`` would be exceeded (whole passes only).
    With ``passes``: exactly that many passes.  No job outlives ``deadline``
    (a ``time.monotonic()`` value)."""
    jobs, t0, durations = [], time.perf_counter(), []

    def job(**kwargs):
        if deadline is not None:
            kwargs["timeout"] = max(1.0, deadline - time.monotonic())
        return run_job(root, workload, **kwargs)

    ladder = ladder_passes(seed)
    trace_dir = root / OUT_DIR / "trace"
    if traced:
        trace_dir.mkdir(parents=True, exist_ok=True)
    for k in itertools.count():
        if passes is not None and k >= passes:
            break
        if passes is None and k >= MIN_PASSES[workload]:
            if time.perf_counter() - t0 + statistics.mean(durations) > seconds:
                break
        start = time.perf_counter()
        if workload == "ref_ladder":
            for i, (field, n) in enumerate(next(ladder)):
                out = trace_dir / f"{workload}-s{seed}-p{k}-{field}{n}.jsonl" if traced else None
                result = job(hash_seed=seed * 1000 + k * 16 + i, trace_out=out, field=field, n=n)
                result["pass"] = k
                jobs.append(result)
        else:
            out = trace_dir / f"{workload}-s{seed}-p{k}.jsonl" if traced else None
            jobs.append(job(hash_seed=seed * 1000 + k, trace_out=out,
                            corpus=segment_corpus(workload, seed, k)))
        durations.append(time.perf_counter() - start)
    return jobs


# ---------------------------------------------------------------------------
# summaries


def account(jobs: list[dict], gate: GoldenGate) -> dict:
    ops = [op for job in jobs for op in job["ops"]]
    counts = dict.fromkeys(OUTCOMES, 0)
    for op in ops:
        outcome = classify(op["expect"], op["status"])
        if not gate.check(op["key"], op["digest"]):
            outcome = "failed"
        op["outcome"] = outcome
        counts[outcome] += 1
    verifies = [op for op in ops if op["kind"].split(":")[0] in ("construct", "file", "mutation")]
    mutations = [op for op in ops if op["kind"].startswith("mutation:")]
    return {
        "ops": ops,
        "counts": counts,
        "attempted": len(ops),
        "failed": counts["failed"],
        "verifies": len(verifies),
        "undecided": sum(op["outcome"] == "undecided" for op in verifies),
        "mutations": len(mutations),
        "mutations_rejected": sum(op["outcome"] == "rejected" for op in mutations),
    }


def op_times(workload: str, jobs: list[dict], clock: str = "s") -> list[float]:
    """Op times as the end-to-end metrics count ops.  On ref_ladder one op
    is a whole ladder, the cold builds of n = 2..6 over one field in one
    pass, so every op has the same size whatever the pass count.  ``clock``
    picks normalized ("s") or raw ("raw_s") seconds."""
    if workload != "ref_ladder":
        return [op[clock] for job in jobs for op in job["ops"]]
    ladders: dict[tuple, float] = {}
    for job in jobs:
        key = (job["pass"], job["ops"][0]["field"])
        ladders[key] = ladders.get(key, 0.0) + job["ops"][0][clock]
    return list(ladders.values())


def min_ops(workload: str, jobs: list[dict]) -> int:
    """Op count of the smallest untraced run."""
    per_pass = 2 if workload == "ref_ladder" else len(jobs[0]["ops"])
    return MIN_PASSES[workload] * per_pass


def end_to_end(workload: str, jobs: list[dict]) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as (value, sample count): the times normalized
    to the machine's speed, and the same figures in raw seconds."""
    out = {}
    for prefix, clock in (("", "s"), ("raw_", "raw_s")):
        times = op_times(workload, jobs, clock)
        setups = [job["setup_" + clock] for job in jobs]
        tail_value, _ = tail(times, min_ops(workload, jobs))
        out.update({
            prefix + "setup_s": (statistics.median(setups), len(setups)),
            prefix + "ops_per_s": (len(times) / sum(times), len(times)),
            prefix + "op_p50_s": (statistics.median(times), len(times)),
            prefix + "op_tail_s": (tail_value, len(times)),
        })
    out["peak_rss_mb"] = (max(job["peak_rss_mb"] for job in jobs), len(jobs))
    return out


def report(workload, seed, jobs, acc, gate, metrics, out=print):
    """Human-readable lines: every metric by name with unit and base."""
    times = op_times(workload, jobs)
    out(f"# workload {workload} seed {seed}: {len(jobs)} jobs, {acc['attempted']} ops")
    for name, (value, count) in metrics.items():
        extra = ""
        if name.endswith("op_tail_s"):
            extra = f" (p{tail(times, min_ops(workload, jobs))[1]:.1f})"
        out(f"{workload} {name} = {value:.6g} {UNITS[name]}{extra} n={count}")
    if workload == "witness_boundary":
        # each stream of the trust-boundary pipeline on its own
        for stream in ("construct", "file", "mutation"):
            own = [op["s"] for op in acc["ops"] if op["kind"].startswith(stream + ":")]
            out(f"{workload} {stream}_p50_s = {statistics.median(own):.6g} s n={len(own)}")
    counts = acc["counts"]
    out(f"{workload} outcomes " + " ".join(f"{k}={v}" for k, v in counts.items()))
    out(f"{workload} failed_ratio = {ratio(acc['failed'], acc['attempted']):.4g}"
        f" ({acc['failed']}/{acc['attempted']} ops)")
    if workload == "witness_boundary":
        out(f"{workload} undecided_ratio = {ratio(acc['undecided'], acc['verifies']):.4g}"
            f" ({acc['undecided']}/{acc['verifies']} verify attempts)")
        out(f"{workload} mutation_reject_ratio = "
            f"{ratio(acc['mutations_rejected'], acc['mutations']):.4g}"
            f" ({acc['mutations_rejected']}/{acc['mutations']} mutations)")
    if workload == "group_roundtrip":
        oplus = [op for op in acc["ops"] if op["kind"] == "oplus"]
        bad = sum(op["outcome"] == "winding_mismatch" for op in oplus)
        out(f"{workload} winding_mismatch_ratio = {ratio(bad, len(oplus)):.4g}"
            f" ({bad}/{len(oplus)} oplus ops; known realize defect)")
    if workload == "ref_ladder":
        ref = {}
        for field in ("q", "f7"):
            for n in (5, 6):
                vals = [op["s"] for op in acc["ops"] if (op["field"], op["degree"]) == (field, n)]
                ref[(field, n)] = statistics.median(vals)
                out(f"{workload} ref_s.{field}.n{n} = {ref[(field, n)]:.6g} s n={len(vals)}")
        out(f"{workload} ref_growth.q = {ref[('q', 6)] / ref[('q', 5)]:.4g}"
            f" (ref_s.q.n6 / ref_s.q.n5)")
    out(f"{workload} golden: {gate.matched} ops matched recorded digests,"
        f" {len(gate.mismatches)} mismatched, {len(gate.unrecorded)} had no recorded digest")


def layer_units(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "textio.witness_bytes":
        return "B"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool, out=print):
    gate = GoldenGate(load_golden(workload))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not trace:
        jobs = run_jobs(root, workload, seed, seconds, deadline=deadline)
        acc = account(jobs, gate)
        metrics = end_to_end(workload, jobs)
        report(workload, seed, jobs, acc, gate, metrics, out)
        # the raw figures are printed but too noisy on a shared machine to gate
        values = {name: (value, UNITS[name]) for name, (value, _) in metrics.items()
                  if not name.startswith("raw_")}
        return acc, values, True

    plain = run_jobs(root, workload, seed, seconds, passes=1, deadline=deadline)
    traced = run_jobs(root, workload, seed, seconds, traced=True, passes=1, deadline=deadline)
    acc = account(plain + traced, gate)
    layers: dict[str, float] = {}
    for job in traced:
        for name, value in job["layers"].items():
            if name == "trace.self_time_residual_s":
                layers[name] = max(layers.get(name, 0.0), value)
            else:
                layers[name] = layers.get(name, 0) + value
    plain_s = sum(op["s"] for job in plain for op in job["ops"])
    traced_s = sum(op["s"] for job in traced for op in job["ops"])
    layers["trace.overhead_ratio"] = traced_s / plain_s
    metrics = end_to_end(workload, plain)
    # the untraced pass's raw figures travel with the per-layer metrics, so a
    # comparison can see what the normalization divided out
    layers.update({name: value for name, (value, _) in metrics.items() if name.startswith("raw_")})
    report(workload, seed, plain, acc, gate, metrics, out)
    for name, value in sorted(layers.items()):
        out(f"{workload} {name} = {value:.6g} {layer_units(name)}")
    # within each op the self times of its spans must add up to its duration
    sums_ok = layers["trace.self_time_residual_s"] <= 1e-6
    out(f"{workload} trace self-time sums {'match' if sums_ok else 'DO NOT match'} op durations"
        f" (largest gap {layers['trace.self_time_residual_s']:.3g} s);"
        f" spans in {OUT_DIR}/trace/")
    values = {name: (value, layer_units(name)) for name, value in layers.items()}
    return acc, values, sums_ok


def record_golden(root: Path, workload: str):
    """Write the digests of every corpus in the pool (one ladder pass for
    ref_ladder), refusing when an op failed or an input gave two digests."""
    if workload == "ref_ladder":
        jobs = run_jobs(root, workload, DEFAULT_SEED, 0, passes=1)
    else:
        jobs = [run_job(root, workload, c, corpus=c) for c in range(CORPUS_POOL)]
    gate = GoldenGate(None)
    acc = account(jobs, gate)
    failed = [f"{op['kind']} ({op['field']}): {op['status']}" for op in acc["ops"]
              if op["outcome"] == "failed"]
    if failed:
        raise BenchError(f"not recording {workload}: {len(failed)} ops failed: {failed[:5]}")
    path = golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(sorted(gate.seen.items())), fh, indent=0)
        fh.write("\n")
    print(f"{workload}: {len(gate.seen)} digests recorded from {len(jobs)} jobs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out"
                         " for re-checking claims)")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="record the output digests of every input instead of measuring")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "jouanolou" / "__init__.py").is_file():
        print("perfbench: run from the root of a jouanolou checkout (src/jouanolou missing)",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.record_golden:
            for w in workloads:
                record_golden(root, w)
            return 0
        results = [(w, *run_workload(root, w, args.seed, args.seconds, bool(args.trace)))
                   for w in workloads]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct = all(acc["failed"] == 0 and ok for _, acc, _, ok in results)
    prefix = len(results) > 1
    summary = {
        "correct": correct,
        "attempted": sum(acc["attempted"] for _, acc, _, _ in results),
        "failed": sum(acc["failed"] for _, acc, _, _ in results),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
            for w, _, values, _ in results
            for name, (value, unit) in values.items()
        },
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
