"""Smoke tests of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest hclbench/tests``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import reference
import spans
from hcl import cli, losses, mlp

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def tiny(name, **changes):
    """A workload of the named kind on a 4-leaf taxonomy, fast enough for a test."""
    sizes = dict(levels=3, branching=2, examples_per_leaf=8, epochs=2, setups=2,
                 setup_batch=2, hit1_floor=0.0)
    return replace(harness.WORKLOADS[name], **{**sizes, **changes})


def originals():
    return {t: spans._resolve(t)[2] for t in spans.SPAN_TARGETS + spans.COUNT_TARGETS}


def test_benchmark_json_names_the_harness_metrics_and_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_named_metric_is_emitted(name, trace, tmp_path):
    before = originals()
    result, report = harness.run_workload(tiny(name), seed=3, seconds=0, trace=trace,
                                          workdir=tmp_path)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert report["failed_frac"] == 0.0 and len(report["log_sha256"]) == 64
    assert report["timings"]["setup_s"]["n"] == tiny(name).setups
    assert report["timings"]["reference_ms"]["median"] > 0
    assert originals() == before, "a traced run left a wrapper in hcl"
    if trace:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        assert values["mlp.forward.calls"] > 0 and values["metrics.evaluate.calls"] > 0
        assert values["data.synth_generate.ms"] > 0
        if name == "score":
            assert values["mlp.train.self_ms"] == 0.0
            assert values["mlp.load_checkpoint.ms"] > 0
        else:
            assert values["mlp.train.self_ms"] > 0
            assert values[f"losses.hier_transform.{tiny(name).scope}.calls"] > 0
            assert values["curriculum.hcl_loss.total_ms"] >= values["curriculum.hcl_loss.self_ms"]


def test_a_missing_wrapped_function_fails_loudly_and_swaps_nothing(monkeypatch):
    before = originals()
    monkeypatch.delattr(losses, "hier_transform")
    with pytest.raises(spans.TraceTargetMissing, match="hier_transform"):
        with spans.Tracer().installed():
            pass
    assert mlp.forward is before["mlp.forward"]


def test_originals_are_restored_when_the_traced_call_raises():
    before = originals()
    with pytest.raises(RuntimeError, match="boom"):
        with spans.Tracer().installed():
            assert mlp.forward is not before["mlp.forward"]
            raise RuntimeError("boom")
    assert originals() == before


def test_self_times_partition_the_traced_wall_time(tmp_path):
    w = tiny("wide-anc")
    s = harness.set_up(w, 1, tmp_path)
    op = harness.run_operation(w, s, 1, traced=True)
    summary = op.tracer.summary()
    roots = sum(end - start for _, start, end, parent in op.tracer.spans if parent < 0)
    assert sum(v["self"] for v in summary.values()) == pytest.approx(roots, rel=1e-9)
    assert summary["mlp.train"]["calls"] == 1
    assert all(v["self"] >= 0 for v in summary.values())


def test_a_traced_operation_matches_an_untraced_one(tmp_path):
    w = tiny("wide")
    s = harness.set_up(w, 2, tmp_path)
    plain = harness.run_operation(w, s, 2, traced=False)
    traced = harness.run_operation(w, s, 2, traced=True)
    assert plain.ok and traced.ok
    assert (plain.log, plain.evaluation) == (traced.log, traced.evaluation)


def test_log_bytes_match_the_metrics_jsonl_hcl_train_writes(tmp_path):
    w = tiny("desk")
    s = harness.set_up(w, 0, tmp_path)
    _, log = mlp.train(s.dataset, s.dataset.taxonomy, harness.train_config(w, 0))
    cli._write_metrics_jsonl(log, tmp_path / "metrics.jsonl")
    assert harness.log_bytes(log) == (tmp_path / "metrics.jsonl").read_bytes()


def test_operations_below_the_quality_floor_count_as_failed(tmp_path):
    result, report = harness.run_workload(tiny("desk", hit1_floor=1.01), seed=0, seconds=0,
                                          trace=False, workdir=tmp_path)
    setups = tiny("desk").setups * tiny("desk").setup_batch
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - setups > 0
    assert report["failed_frac"] > 0


def test_the_gauge_scales_a_step_by_the_passes_around_it(monkeypatch):
    passes = iter([0.2, 0.3, 0.1])
    monkeypatch.setattr(reference.Reference, "seconds", lambda self: next(passes))
    gauge = reference.Gauge()
    assert gauge() == pytest.approx(reference.NOMINAL_SECONDS / 0.25)
    assert gauge() == pytest.approx(reference.NOMINAL_SECONDS / 0.2)
    assert gauge.passes == [0.2, 0.3, 0.1]
