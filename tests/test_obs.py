"""Unit tests for the observability subsystem (:mod:`repro.obs`).

Covers the metrics registry (counters, gauges, fixed-bucket histograms,
disabled null path), the two-clock-domain tracer (span nesting, stride
sampling, JSONL and Chrome trace_event export, schema validation), the
always-measuring wall timer, audit progress reporting, and the pickle
round-trips the process-pool audit path relies on.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs import (NULL_OBS, NULL_REGISTRY, NULL_TRACER, AuditProgress,
                       Counter, Gauge, Histogram, MetricsRegistry,
                       Observability, Tracer, WallTimer, ensure_obs,
                       validate_chrome_trace)
from repro.obs.progress import NULL_PROGRESS
from repro.obs.trace import SIM, WALL


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_gauge_tracks_high_water(self):
        gauge = Gauge("g")
        gauge.set(7)
        gauge.inc(3)
        gauge.set(4)
        assert gauge.value == 4
        assert gauge.high_water == 10

    def test_histogram_buckets(self):
        hist = Histogram("h", bounds=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        # one observation per bucket, one in the +inf overflow
        assert hist.bucket_counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.max == 5.0
        assert hist.mean == pytest.approx(5.555 / 4)
        snapshot = hist.to_dict()
        assert snapshot["count"] == 4
        json.dumps(snapshot)  # JSON-ready

    def test_histogram_boundary_is_inclusive(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(1.0)
        assert hist.bucket_counts == [1, 0]

    def test_empty_histogram_snapshot_has_full_bucket_schema(self):
        # An empty histogram must emit the same bucket keys as a populated
        # one — consumers key on bound labels, not on whether data arrived.
        hist = Histogram("h", bounds=(0.01, 1.0))
        empty = hist.to_dict()
        assert empty["buckets"] == {"0.01": 0, "1.0": 0, "+inf": 0}
        assert (empty["count"], empty["sum"], empty["max"]) == (0, 0.0, 0.0)
        hist.observe(0.5)
        assert set(hist.to_dict()["buckets"]) == set(empty["buckets"])

    def test_null_histogram_snapshot_matches_real_schema(self):
        real = Histogram("h").to_dict()
        null = NULL_REGISTRY.histogram("h").to_dict()
        assert set(null["buckets"]) == set(real["buckets"])
        assert null["count"] == 0


class TestRegistry:
    def test_instruments_are_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")

    def test_name_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(3)
        registry.gauge("a").set(1)
        registry.histogram("m").observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        json.dumps(snapshot)

    def test_disabled_registry_hands_out_shared_nulls(self):
        counter = NULL_REGISTRY.counter("anything")
        counter.inc(10**6)
        assert counter is NULL_REGISTRY.counter("other")
        assert NULL_REGISTRY.snapshot() == {}
        assert not NULL_REGISTRY.enabled

    def test_null_instruments_pickle_to_singletons(self):
        for instrument in (NULL_REGISTRY.counter("c"),
                           NULL_REGISTRY.gauge("g"),
                           NULL_REGISTRY.histogram("h")):
            assert pickle.loads(pickle.dumps(instrument)) is instrument


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_span_nesting_records_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.span.parent_id == outer.span.span_id
        # children finish (and record) before their parents
        assert [span.name for span in tracer.spans] == ["inner", "outer"]
        assert all(span.end >= span.start for span in tracer.spans)

    def test_timed_measures_and_records(self):
        tracer = Tracer()
        with tracer.timed("work", machine="m1") as timer:
            pass
        assert timer.seconds >= 0.0
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.domain == WALL
        assert span.attributes["machine"] == "m1"

    def test_event_uses_explicit_timestamp_and_duration(self):
        tracer = Tracer(sim_time=lambda: 100.0)
        tracer.event("snapshot", domain=SIM, duration=2.5, timestamp=40.0,
                     pages=3)
        tracer.event("tick", domain=SIM)
        first, second = tracer.spans
        assert (first.start, first.end) == (40.0, 42.5)
        assert second.start == 100.0  # falls back to the sim clock
        assert first.attributes == {"pages": 3}

    def test_sample_stride_is_a_deterministic_counter(self):
        tracer = Tracer(sample_stride=3)
        for index in range(9):
            tracer.event("e", timestamp=float(index))
        assert [span.start for span in tracer.spans] == [0.0, 3.0, 6.0]

    def test_max_spans_drops_oldest(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            tracer.event("e", timestamp=float(index))
        assert tracer.dropped_spans == 3
        assert [span.start for span in tracer.spans] == [3.0, 4.0]

    def test_error_exit_flags_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.spans
        assert span.attributes["error"] is True

    def test_chrome_trace_two_processes_and_validates(self, tmp_path):
        tracer = Tracer(sim_time=lambda: 0.0)
        with tracer.timed("audit.segment", track="m1"):
            pass
        tracer.event("monitor.snapshot", domain=SIM, track="m1",
                     timestamp=3.0, duration=1.0)
        path = tracer.export_chrome_trace(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["audit.segment"]["pid"] == 1   # wall domain
        assert by_name["monitor.snapshot"]["pid"] == 2  # sim domain
        assert by_name["monitor.snapshot"]["ts"] == pytest.approx(3e6)
        assert by_name["monitor.snapshot"]["dur"] == pytest.approx(1e6)
        thread_names = [e for e in data["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {e["args"]["name"] for e in thread_names} == {"m1"}


class TestValidateChromeTrace:
    def test_accepts_bare_event_array(self):
        assert validate_chrome_trace(
            [{"ph": "i", "name": "e", "pid": 1, "tid": 1, "ts": 0}]) == []

    @pytest.mark.parametrize("bad,expected", [
        ({"traceEvents": 3}, "traceEvents"),
        ({"traceEvents": [{"ph": "Z", "name": "e", "pid": 1, "tid": 1,
                           "ts": 0}]}, "phase"),
        ({"traceEvents": [{"ph": "i", "pid": 1, "tid": 1, "ts": 0}]},
         "'name'"),
        ({"traceEvents": [{"ph": "i", "name": "e", "pid": "1", "tid": 1,
                           "ts": 0}]}, "'pid'"),
        ({"traceEvents": [{"ph": "i", "name": "e", "pid": 1, "tid": 1,
                           "ts": -1}]}, "'ts'"),
        ({"traceEvents": [{"ph": "X", "name": "e", "pid": 1, "tid": 1,
                           "ts": 0}]}, "'dur'"),
        ({"traceEvents": [{"ph": "i", "name": "e", "pid": 1, "tid": 1,
                           "ts": 0, "args": 7}]}, "'args'"),
        (42, "object or array"),
    ])
    def test_rejects_malformed(self, bad, expected):
        problems = validate_chrome_trace(bad)
        assert problems and expected in problems[0]

    def test_metadata_events_need_no_timestamp(self):
        assert validate_chrome_trace(
            [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
              "args": {"name": "p"}}]) == []


class TestWallTimer:
    def test_measures_without_a_handle(self):
        with WallTimer(None) as timer:
            sum(range(1000))
        assert timer.seconds > 0.0

    def test_null_tracer_timed_still_measures(self):
        with NULL_TRACER.timed("anything") as timer:
            sum(range(1000))
        assert timer.seconds > 0.0
        assert NULL_TRACER.spans == []


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------

class TestAuditProgress:
    def test_lifecycle_and_snapshot(self):
        updates = []
        progress = AuditProgress(on_update=lambda entry: updates.append(
            (entry.machine, entry.chunks_done, entry.done)))
        progress.machine_started("m1", total_chunks=2)
        progress.chunk_done("m1", entries=10, checkpoint_seq=4)
        progress.chunk_done("m1", entries=12, checkpoint_seq=9)
        progress.machine_done("m1", "pass", wall_seconds=1.5)
        (entry,) = progress.snapshot()
        assert entry["chunks_done"] == 2
        assert entry["entries_done"] == 22
        assert entry["checkpoint_seq"] == 9
        assert entry["verdict"] == "pass"
        assert entry["done"] is True
        assert entry["peak_rss_bytes"] > 0
        assert progress.peak_rss == entry["peak_rss_bytes"]
        assert updates[-1] == ("m1", 2, True)
        assert "m1" in progress.render()

    def test_null_progress_is_inert(self):
        NULL_PROGRESS.machine_started("m")
        NULL_PROGRESS.chunk_done("m")
        NULL_PROGRESS.machine_done("m", "pass")
        assert NULL_PROGRESS.snapshot() == []
        assert NULL_PROGRESS.peak_rss == 0


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

class TestObservability:
    def test_ensure_obs_defaults_to_the_shared_null(self):
        assert ensure_obs(None) is NULL_OBS
        bundle = Observability.make()
        assert ensure_obs(bundle) is bundle

    def test_enabled_flags(self):
        assert not NULL_OBS.enabled
        assert Observability.make().enabled

    def test_null_bundle_pickles_to_singleton(self):
        assert pickle.loads(pickle.dumps(NULL_OBS)) is NULL_OBS
        assert pickle.loads(pickle.dumps(NULL_TRACER)) is NULL_TRACER
        assert pickle.loads(pickle.dumps(NULL_PROGRESS)) is NULL_PROGRESS
