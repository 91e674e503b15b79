"""Tests of the benchmark itself (run: python3 -m pytest perfbench)."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from jouanolou.errors import BudgetExceeded  # noqa: E402
from workloads import Op, WitnessCase, WitnessCorpus  # noqa: E402


def _span(name, start, end, parent, op=0, tag=None):
    return [name, start, end, parent, op, tag]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("c", 6.0, 9.0, 0),  # overlaps b: the union counts once
        _span("op", 20.0, 22.0, None, op=1),
        _span("d", 20.5, 21.0, 5, op=1),
    ]
    selfs = layertrace.self_times(spans)
    assert selfs == pytest.approx([10 - 3 - 4, 2.0, 1.0, 2.0, 3.0, 1.5, 0.5])
    # per op the self times of all spans add up to the op's duration, except
    # where siblings overlap (b and c share one second)
    assert layertrace.self_time_residual(spans, selfs) == pytest.approx(1.0)
    spans[4][1] = 7.0
    selfs = layertrace.self_times(spans)
    assert layertrace.self_time_residual(spans, selfs) == pytest.approx(0.0)


def test_layer_metrics_read_tags_and_ancestry():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("homotopy.verify", 1.0, 9.0, 0),
        _span("morphism.cert_expands_to_one", 1.0, 2.0, 1, tag=True),
        _span("groebner.express_in_ideal", 2.0, 8.0, 1, tag="BudgetExceeded"),
        _span("bundle.det_subset", 8.5, 8.7, 1, tag=12),
    ]
    m = layertrace.layer_metrics(spans, {"field.FieldCtx.rmul": 7})
    assert m["homotopy.verify.calls"] == 1
    assert m["homotopy.verify.self_s"] == pytest.approx(8.0 - 1.0 - 6.0 - 0.2)
    assert m["homotopy.verify.cert_hits"] == 1
    assert m["homotopy.verify.groebner_fallbacks"] == 1
    assert m["groebner.express_in_ideal.undecided"] == 1
    assert m["bundle.det_subset.calls.m12"] == 1
    assert m["field.FieldCtx.rmul.calls"] == 7
    assert m["trace.self_time_residual_s"] == pytest.approx(0.0)


@pytest.mark.parametrize(
    "expect, status, outcome",
    [
        ("valid", "valid", "ok"),
        ("invalid", "invalid", "rejected"),
        ("invalid", "valid", "failed"),  # a mutation that verifies is a failure
        ("valid", "invalid", "failed"),  # a genuine witness rejected
        ("valid", "undecided", "undecided"),
        ("invalid", "undecided", "undecided"),
        ("valid", "error:ValueError", "failed"),
        ("valid", "winding_mismatch", "winding_mismatch"),
    ],
)
def test_classify(expect, status, outcome):
    assert run.classify(expect, status) == outcome


def _op(run_fn, expect="valid", text="input"):
    return Op("test", "q", 1, "test:key", text, expect, run_fn)


def test_budget_exceeded_is_undecided_and_other_errors_fail():
    def exhausted():
        raise BudgetExceeded("groebner step budget exhausted")

    def broken():
        raise ValueError("boom")

    status, text = worker.run_op(_op(exhausted))
    assert run.classify("valid", status) == "undecided"
    assert text == "Undecided"
    status, _ = worker.run_op(_op(broken))
    assert run.classify("valid", status) == "failed"


def test_undecided_construction_leaves_dependent_ops_undecided():
    def exhausted():
        raise BudgetExceeded("groebner step budget exhausted")

    def broken():
        raise ValueError("boom")

    for build, outcome in ((exhausted, "undecided"), (broken, "failed")):
        case = WitnessCase("lift_row_stripped", "f7.0.lift_row_stripped", "f7", 0, "M", build)
        ops = [WitnessCorpus._construct_op(0, case), WitnessCorpus._file_op(0, case),
               WitnessCorpus._mutation_op(0, case, 1)]
        assert [run.classify(op.expect, worker.run_op(op)[0]) for op in ops] == [outcome] * 3


def _job(text, key="k"):
    digest = hashlib.sha256(text.encode()).hexdigest()
    op = {"kind": "file:scaling", "key": key, "expect": "valid", "status": "valid",
          "digest": digest, "s": 0.1, "raw_s": 0.1}
    return {"ops": [op], "setup_s": 1.0, "setup_raw_s": 1.0, "peak_rss_mb": 30.0}


def test_flipped_byte_trips_the_golden_gate():
    text = "Valid\njouanolou/v1 field=Q\nsegments 1\n"
    recorded = {"k": hashlib.sha256(text.encode()).hexdigest()}
    assert run.account([_job(text)], run.GoldenGate(recorded))["failed"] == 0
    flipped = text[:5] + chr(ord(text[5]) ^ 1) + text[6:]
    acc = run.account([_job(flipped)], run.GoldenGate(recorded))
    assert acc["failed"] == 1 and acc["counts"]["failed"] == 1


def test_changed_input_text_trips_the_golden_gate():
    def same_output():
        return "valid", "Valid"

    recorded = {"test:key": worker.digest(_op(same_output, text="x^2"), "Valid")}
    changed = _op(same_output, text="x^2 + 1")
    status, text = worker.run_op(changed)
    op = {"kind": "test", "key": changed.key, "expect": "valid", "status": status,
          "digest": worker.digest(changed, text)}
    acc = run.account([{"ops": [op]}], run.GoldenGate(recorded))
    assert acc["failed"] == 1


def test_a_key_without_a_record_fails_the_gate():
    acc = run.account([_job("a", key="other")], run.GoldenGate({"k": "0" * 64}))
    assert acc["failed"] == 1
    acc = run.account([_job("a")], run.GoldenGate(run.load_golden("no_such_workload")))
    assert acc["failed"] == 1


def test_recording_requires_repeated_inputs_to_agree():
    acc = run.account([_job("a"), _job("a")], run.GoldenGate(None))
    assert acc["failed"] == 0
    acc = run.account([_job("a"), _job("b")], run.GoldenGate(None))
    assert acc["failed"] == 1


def test_tail_percentile_is_fixed_by_the_smallest_run():
    values = [float(v) for v in range(1, 41)]
    value, pct = run.tail(values, 40)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(75.0)
    # a run twice as long reports the same percentile, 20 samples beyond it
    value, pct = run.tail([float(v) for v in range(1, 81)], 40)
    assert (value, pct) == (60.0, pytest.approx(75.0))
    assert run.tail(values, 8) == (40.0, 100.0)


def test_untraced_job_never_loads_the_tracer(tmp_path):
    job = run.run_job(ROOT, "ref_ladder", 0, field="q", n=2)
    assert job["tracer_loaded"] is False and "layers" not in job
    traced = run.run_job(ROOT, "ref_ladder", 0, tmp_path / "t.jsonl", field="q", n=2)
    assert traced["tracer_loaded"] is True
    assert traced["ops"][0]["digest"] == job["ops"][0]["digest"]
    assert traced["layers"]["bundle.det_subset.calls"] > 0
    assert traced["layers"]["trace.self_time_residual_s"] < 1e-6
    assert (tmp_path / "t.jsonl").stat().st_size > 0


def test_tracer_rebinds_every_alias_and_restores_them():
    import jouanolou
    from jouanolou import bundle, homotopy, jring, morphism

    originals = (bundle.generation_cofactors, morphism.generation_cofactors,
                 homotopy.cert_expands_to_one, jring.RingPolyT.__rmul__, jouanolou.verify)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert morphism.generation_cofactors is bundle.generation_cofactors
        assert morphism.generation_cofactors is not originals[0]
        assert homotopy.cert_expands_to_one is morphism.cert_expands_to_one
        assert jring.RingPolyT.__rmul__ is jring.RingPolyT.__mul__
        assert jouanolou.verify is homotopy.verify is not originals[4]
    finally:
        tracer.uninstall()
    assert (bundle.generation_cofactors, morphism.generation_cofactors,
            homotopy.cert_expands_to_one, jring.RingPolyT.__rmul__,
            jouanolou.verify) == originals


def test_end_to_end_reports_raw_times_beside_normalized():
    jobs = [_job("a"), _job("a")]
    for job in jobs:
        job["ops"][0]["raw_s"] = 0.2
        job["setup_raw_s"] = 2.0
    m = run.end_to_end("witness_boundary", jobs)
    assert m["op_p50_s"][0] == pytest.approx(0.1)
    assert m["raw_op_p50_s"][0] == pytest.approx(0.2)
    assert m["raw_ops_per_s"][0] == pytest.approx(5.0)
    assert (m["setup_s"][0], m["raw_setup_s"][0]) == (1.0, 2.0)
    # the normalized figures are gated, the raw ones go with the layer metrics
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    raw = {name for name in m if name.startswith("raw_")}
    assert set(m) - raw == {metric["name"] for metric in bench["end_to_end"]}
    assert raw <= {metric["name"] for metric in bench["per_layer"]}
