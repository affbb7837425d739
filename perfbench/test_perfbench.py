"""Tests of the benchmark's own metric code: quartiles, span self time,
golden comparison, and the layer wrappers' install/remove cycle."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.layers import LAYERS, METRICS, Tracer, layer_metrics
from perfbench.run import CASES, UNITS, Checker
from perfbench.stats import (
    Span,
    canonical,
    covered_seconds,
    inclusive_seconds,
    mismatches,
    quartiles,
    self_times,
    spread,
)

S = 1_000_000_000  # nanoseconds per second


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_one_and_of_constant_values():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([4.0, 4.0, 4.0, 4.0]) == 0.0


def _nested_spans():
    # cli [0,1]; micro [2,10] > hw [3,9] > cache [4,5]; model [11,12]
    return [
        Span("cli", "cli.import", 0, 1 * S),
        Span("micro", "micro.load_or_calibrate", 2 * S, 10 * S),
        Span("hw", "hw.cluster", 3 * S, 9 * S, parent=1),
        Span("cache", "cache.load", 4 * S, 5 * S, parent=2),
        Span("model", "model.analyze", 11 * S, 12 * S),
    ]


def test_self_time_subtracts_direct_children_only():
    selfs = self_times(_nested_spans())
    assert selfs == {"cli": 1.0, "micro": 2.0, "hw": 5.0, "cache": 1.0, "model": 1.0}


def test_self_times_sum_to_covered_time_and_can_stop_at_a_mark():
    spans = _nested_spans()
    assert sum(self_times(spans).values()) == pytest.approx(covered_seconds(spans))
    assert covered_seconds(spans) == 10.0
    assert self_times(spans, before=10 * S) == {
        "cli": 1.0, "micro": 2.0, "hw": 5.0, "cache": 1.0,
    }


def test_covered_seconds_merges_overlaps_and_gaps():
    spans = [Span("a", "a", 0, 2 * S), Span("b", "b", 1 * S, 3 * S), Span("c", "c", 5 * S, 6 * S)]
    assert covered_seconds(spans) == 4.0


def test_inclusive_seconds_counts_recursive_calls_once():
    spans = [
        Span("hw", "hw.measure", 0, 4 * S),
        Span("cache", "cache.load", 1 * S, 2 * S, parent=0),
        Span("hw", "hw.measure", 2 * S, 3 * S, parent=1),
        Span("hw", "hw.measure", 5 * S, 6 * S),
    ]
    assert inclusive_seconds(spans, "hw.measure") == 5.0
    assert inclusive_seconds(spans, "cache.load") == 1.0


def test_layer_metrics_account_for_the_whole_wall_time():
    metrics = layer_metrics(_nested_spans(), wall_s=13.0)
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert attributed + metrics["bench.unattributed_s"] == pytest.approx(13.0)
    assert metrics["bench.unattributed_frac"] == pytest.approx(3.0 / 13.0)
    assert metrics["micro.calibrate_s"] == 8.0
    assert metrics["hw.cluster_runs"] == 1


def test_mismatches_compare_canonical_bytes():
    expected = {"a": {"cycles": 1.0, "mode": "dedup"}, "b": {"cycles": 2}}
    assert mismatches(expected, {"a": {"mode": "dedup", "cycles": 1.0}}) == []
    assert mismatches(expected, {"a": {"cycles": 1.0000000000000002, "mode": "dedup"}}) == ["a"]
    # 2 and 2.0 print differently, so they are different outputs
    assert mismatches(expected, {"b": {"cycles": 2.0}}) == ["b"]
    assert mismatches(expected, {"new": {"cycles": 3.0}}) == []
    assert canonical({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def _pass(calibration="c", errors=(), **records):
    return {
        "calibration_sha256": calibration,
        "records": records,
        "errors": {name: "Traceback ..." for name in errors},
    }


def test_checker_counts_failed_operations_against_the_golden(tmp_path):
    run = SimpleNamespace(state=tmp_path, args=SimpleNamespace(seed=0))
    golden = {"seed": 0, "calibration_sha256": "c", "cases": {"matmul": {"cycles": 1.0}}}
    checker = Checker(run, golden)
    checker.check(_pass(matmul={"cycles": 1.0}), "clean")
    checker.check(_pass("d", errors=["spmv-full"], matmul={"cycles": 2.0}), "bad")
    checker.check({"crashed": True, "cases": ["matmul"]}, "crash")
    assert checker.attempted == 2 + 3 + 2
    assert checker.failed == 0 + 3 + 2
    checker.remember()  # a run with failures records nothing
    assert not (tmp_path / "digests").exists()


def test_checker_makes_later_runs_of_a_seed_agree(tmp_path):
    run = SimpleNamespace(state=tmp_path, args=SimpleNamespace(seed=7))
    golden = {"seed": 0, "calibration_sha256": "c", "cases": {}}
    first = Checker(run, golden)
    first.check(_pass(matmul={"cycles": 1.0}), "cold")
    first.check(_pass(matmul={"cycles": 1.0}), "warm")
    assert first.failed == 0
    first.remember()
    later = Checker(run, golden)
    later.check(_pass(matmul={"cycles": 1.5}, **{"spmv-full": {"cycles": 3.0}}), "traced")
    assert later.failed == 1
    again = Checker(run, golden)
    again.check(_pass(**{"spmv-full": {"cycles": 3.0}}), "extends")
    again.remember()
    stored = json.loads((tmp_path / "digests" / "seed-7.json").read_text())
    assert stored == {"matmul": {"cycles": 1.0}, "spmv-full": {"cycles": 3.0}}


def test_golden_covers_every_case_and_the_calibration_tables():
    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    assert sorted(golden["cases"]) == sorted(CASES)
    assert len(golden["calibration_sha256"]) == 64
    for record in golden["cases"].values():
        assert set(record) == {
            "predicted_seconds", "predicted_cycles", "measured_cycles", "model_error", "engine",
        }
        assert "wall_seconds" not in record["engine"]


def test_tracer_wraps_entry_points_and_removes_the_wrappers():
    import repro.apps.matrices as matrices

    original = matrices.qcd_like
    tracer = Tracer()
    tracer.install()
    try:
        assert matrices.qcd_like is not original
        with tracer.span("cli", "cli.case"):
            matrices.qcd_like(dims=(2, 2, 2, 2), seed=1)
    finally:
        assert tracer.uninstall()
    assert matrices.qcd_like is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("cli.case", None), ("apps.prepare", 0)]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in METRICS.items()
    ]
    assert set(layer_metrics(_nested_spans(), wall_s=13.0)) == set(METRICS) - {
        "bench.trace_overhead_frac"
    }
