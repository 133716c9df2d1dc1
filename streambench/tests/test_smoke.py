"""Smoke tests for the streaming benchmark on a tiny volume.

    python -m pytest -q streambench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from session import MIN_SPAN_COVERAGE  # noqa: E402
from workload import WORKLOADS  # noqa: E402

TINY = (6, 4, 6)


def tiny_run(workload, seed=7, trace=False):
    return run.run(workload, seed, seconds=0.0, trace=trace, dims=TINY)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_streams_bit_exact(workload):
    result = tiny_run(workload)
    assert result["problems"] == []
    assert result["failed"] == 0
    assert result["metrics"]["success_rate"] == 1.0
    assert result["attempted"] >= run.DIGEST_UPDATES


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_wire_digest_follows_the_seed(workload):
    first = tiny_run(workload, seed=3)["wire_digest"]
    assert tiny_run(workload, seed=3)["wire_digest"] == first
    assert tiny_run(workload, seed=4)["wire_digest"] != first


def test_keyframe_churn_evicts_and_sends_only_key_frames():
    result = tiny_run("keyframe_churn", trace=True)
    assert result["problems"] == []
    counts = [s["counts"] for s in result["samples"]]
    assert all(c["codec.key_frames"] == 2 for c in counts)
    assert sum(c["packing.slot_evictions"] for c in counts) > 0


def test_traced_run_reports_every_layer_metric():
    result = tiny_run("relight_local", trace=True)
    assert result["problems"] == []
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trace.span_coverage_pct"] >= 100 * MIN_SPAN_COVERAGE


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
