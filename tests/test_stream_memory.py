"""tracemalloc memory-bound regression tests for the audit engine.

The engine's promise is residency bounded by its window, not by the log: it
holds at most ``in_flight`` submitted chunks (one on the inline executor,
two per worker on a pool) plus the one it is decoding, so peak traced memory
must stay under a fixed multiple of the chunk size times that window
(nothing on the audit path runs a compressor, so there is no constant
working set to discount), while the materializing path — which inflates the
whole archived log before any check runs — blows through the same bound.
Each test runs at one inline worker and at two thread workers.  The slow
tests pin this on a 200-snapshot archived run; the fast variants are the
same assertion at smoke scale.  The promise holds for the machine that gets
convicted as much as for the honest one: the *convicted* variants audit a
server whose fault is two thirds into its log and hold the conviction —
evidence included — to the same bound.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from dataclasses import replace

from repro.adversary.guests import CheatingKvServerGuest
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.verdict import AuditPhase, Verdict
from repro.experiments.parallel_audit import build_fleet
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.workloads.kvstore import KvServerGuest
from repro.workloads.sqlbench import SqlBenchSettings

#: the traced peak must stay under this multiple of the largest chunk's raw
#: bytes per chunk in flight, plus a small fixed overhead
CHUNK_MULTIPLE = 6
FIXED_OVERHEAD = 1_200_000

WORKERS = pytest.mark.parametrize("workers,executor",
                                  [(1, "inline"), (2, "thread")])


def _traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


class _LateSweetener(CheatingKvServerGuest):
    """The agreed image answers SELECTs its own way from request
    ``FROM_REQUEST`` on; a server that keeps answering like the stock image
    stops matching the reference there, two thirds into its log."""

    FROM_REQUEST = 0

    def execute(self, query):
        if query.get("request_id", 0) < self.FROM_REQUEST:
            return KvServerGuest.execute(self, query)
        return super().execute(query)


def _run_memory_bound_check(tmp_path, duration: float, snapshots: int,
                            workers: int, executor: str,
                            convicted: bool = False):
    snapshot_interval = duration / snapshots
    root = tmp_path / "archive"
    fleet = build_fleet(num_machines=2, duration=duration, seed=19,
                        snapshot_interval=snapshot_interval,
                        archive=LogArchive(root),
                        client_settings=SqlBenchSettings(
                            server="", operations_per_tick=6,
                            tick_interval=0.25, rows_per_phase=4,
                            payload_bytes=8000))
    archive = LogArchive(root)
    service = AuditIngestService(archive)
    machine = next(name for name in archive.machines() if "server" in name)
    records = archive.segment_records(machine)
    assert len(archive.snapshot_store(machine).snapshot_ids()) >= snapshots

    #: chunk the log ~4 segments at a time; the bound scales with this
    chunks = max(4, len(records) // 4)
    chunk_raw = -(-sum(r.raw_bytes for r in records) // chunks)  # ceil
    #: jobs submitted and not yet folded (``_ChunkRun.bound``)
    in_flight = 1 if executor == "inline" else 2 * workers
    engine = AuditScheduler(workers=workers, executor=executor,
                            chunks_per_machine=chunks)

    reference = fleet.reference_images[machine]
    if convicted:   # same disk, another query engine (24 requests a second)
        _LateSweetener.FROM_REQUEST = round(duration * 24 * 2 / 3)
        reference = replace(reference, guest_factory=_LateSweetener)

    def prepared_auditor():
        auditor = fleet.make_auditor(machine, collect=False)
        auditor.reference_image = reference
        service.prepare_auditor(auditor, machine)
        return auditor

    def engine_report(auditor):
        return engine.audit_fleet([AuditAssignment(auditor, target)]) \
            .machine_reports[machine]

    target = service.target_for(machine)
    streamed = engine_report(prepared_auditor())
    assert streamed.unchunkable_reason is None
    assert streamed.chunk_count <= chunks
    materialized = prepared_auditor().audit_whole_log(target)
    if convicted:
        result = streamed.result
        assert result.verdict is materialized.verdict is Verdict.FAIL
        assert result.phase is materialized.phase is AuditPhase.SEMANTIC_CHECK
        assert result.reason == materialized.reason
        # a late chunk, not the log: what the third party replays is small
        evidence = result.evidence
        assert evidence.segment.first_sequence > records[-1].last_sequence // 2
        assert len(evidence.segment.entries) <= streamed.peak_chunk_entries
        assert evidence.verify(fleet.keystore, reference)
    else:
        assert streamed.result == materialized

    # Prepare the auditors (and their O(log) authenticator stores — input
    # state both paths share) outside the traced region, so the peaks
    # measure what the *audit* holds.
    stream_auditor = prepared_auditor()
    stream_peak = _traced_peak(lambda: engine_report(stream_auditor))
    materializing_auditor = prepared_auditor()
    materializing_peak = _traced_peak(
        lambda: materializing_auditor.audit_whole_log(target))
    bound = CHUNK_MULTIPLE * chunk_raw * in_flight + FIXED_OVERHEAD

    assert stream_peak <= bound, (
        f"engine audit of {len(records)} segments on {workers} {executor} "
        f"workers used {stream_peak:,} B; bound was {bound:,} B "
        f"({CHUNK_MULTIPLE}x the {chunk_raw:,} B chunk x {in_flight} "
        f"in flight)")
    assert materializing_peak > bound, (
        f"materializing path stayed under the chunk bound "
        f"({materializing_peak:,} B <= {bound:,} B) — the bound no longer "
        f"separates the paths; tighten the test")
    assert stream_peak < materializing_peak


@pytest.mark.slow
@WORKERS
def test_stream_memory_bound_200_snapshots(tmp_path, workers, executor):
    """A 200-snapshot archived run: the engine stays O(window), full doesn't."""
    _run_memory_bound_check(tmp_path, duration=50.0, snapshots=200,
                            workers=workers, executor=executor)


@WORKERS
def test_stream_memory_bound_smoke(tmp_path, workers, executor):
    """Smoke-sized variant of the 200-snapshot bound (fast stage)."""
    _run_memory_bound_check(tmp_path, duration=10.0, snapshots=40,
                            workers=workers, executor=executor)


@pytest.mark.slow
@WORKERS
def test_convicted_stream_memory_bound_200_snapshots(tmp_path, workers,
                                                     executor):
    """The failing log is held to the passing log's bound."""
    _run_memory_bound_check(tmp_path, duration=50.0, snapshots=200,
                            workers=workers, executor=executor,
                            convicted=True)


@WORKERS
def test_convicted_stream_memory_bound_smoke(tmp_path, workers, executor):
    """Smoke-sized variant of the failing-log bound (fast stage)."""
    _run_memory_bound_check(tmp_path, duration=10.0, snapshots=40,
                            workers=workers, executor=executor,
                            convicted=True)
