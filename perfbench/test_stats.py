"""Tests of the benchmark's own metric arithmetic and of metrics.json's
coverage of BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import SpanRecorder  # noqa: E402
from stats import (  # noqa: E402
    MISSING,
    beyond,
    fail_frac,
    finite,
    latency_from_due,
    percentile,
    supported_percentile,
    timing_summary,
    within_limit_frac,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99.9) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_tail_needs_ten_samples_beyond():
    assert beyond(100, 90) == 10
    assert supported_percentile(100) == 90
    assert supported_percentile(99) == 75  # p90 of 99 has only 9 beyond
    assert supported_percentile(20) == 50
    assert supported_percentile(19) is None
    assert supported_percentile(1000) == 99
    assert supported_percentile(10_000) == 99.9


def test_timing_summary_reports_count_and_supported_tail():
    summary = timing_summary([float(i) for i in range(1, 41)])
    assert summary == {"n": 40, "p50": 20.0, "tail_pct": 75.0, "tail": 30.0}
    assert timing_summary([1.0])["tail"] is None


def test_refused_and_failed_requests_miss_every_limit():
    assert latency_from_due(10.0, None) == MISSING
    lat = [0.2, 0.4, latency_from_due(0.0, None), latency_from_due(0.0, math.inf)]
    assert within_limit_frac(lat, 1.0) == 0.5
    assert within_limit_frac(lat, 1e12) == 0.5
    assert percentile(lat, 90) == MISSING
    assert finite(percentile(lat, 90)) == 1e9


def test_open_loop_latency_counts_from_due_not_send():
    # Due at t=10, sent late at t=12 behind a stall, done at t=12.5.
    assert latency_from_due(10.0, 12.5) == pytest.approx(2.5)
    # A result stamped before the due time (a repeat of a finished job)
    # is never negative.
    assert latency_from_due(10.0, 9.0) == 0.0


def test_fail_frac_base_is_attempts():
    assert fail_frac(200) == 0.0
    assert fail_frac(200, errored=1, refused=2, invalid=1) == 0.02
    with pytest.raises(ValueError):
        fail_frac(0)
    with pytest.raises(ValueError):
        fail_frac(2, errored=2, refused=1)


def test_self_time_subtracts_covered_child_intervals():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0, "r")
    rec.add("a", 1.0, 4.0, "r", parent=root.span_id)
    rec.add("b", 3.0, 6.0, "r", parent=root.span_id)  # overlaps a
    rec.add("c", 9.0, 12.0, "r", parent=root.span_id)  # runs past the root
    assert rec.self_time(root) == pytest.approx(10.0 - 5.0 - 1.0)
    with rec.span("outer", "x") as outer:
        with rec.span("inner", "x") as inner:
            pass
    assert inner.parent == outer.span_id
    assert rec.self_time(outer) <= outer.duration


def test_every_benchmark_entry_has_a_definition():
    manifest = json.loads((HERE / "metrics.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for kind in ("workloads", "end_to_end", "per_layer"):
        assert [m["name"] for m in bench[kind]] == list(manifest[kind]), kind
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
