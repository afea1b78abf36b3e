"""tracemalloc memory-bound regression tests for the streaming audit.

The pipeline's promise is O(chunk) residency: peak traced memory must stay
under a fixed multiple of the chunk size (nothing on the audit path runs a
compressor, so there is no constant working set to discount), while the
materializing path — which inflates the whole archived log before any check
runs — blows through the same bound.  The slow test pins this on a
200-snapshot archived run; the fast variant is the same assertion at smoke
scale.  The promise holds for the machine that gets convicted as much as
for the honest one: the *convicted* variants audit a server whose fault is
two thirds into its log and hold the conviction — evidence included — to the
same bound.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from dataclasses import replace

from repro.adversary.guests import CheatingKvServerGuest
from repro.audit.stream import stream_audit
from repro.audit.verdict import AuditPhase, Verdict
from repro.experiments.parallel_audit import build_fleet
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.workloads.kvstore import KvServerGuest
from repro.workloads.sqlbench import SqlBenchSettings

#: the traced peak must stay under this multiple of the largest chunk's raw
#: bytes, plus a small fixed pipeline overhead
CHUNK_MULTIPLE = 6
FIXED_OVERHEAD = 1_200_000


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

    #: chunk the stream ~4 segments at a time; the bound scales with this
    chunks = max(4, len(records) // 4)
    chunk_raw = -(-sum(r.raw_bytes for r in records) // chunks)  # ceil

    reference = fleet.reference_images[machine]
    if convicted:   # same disk, another query engine (24 requests a second)
        _LateSweetener.FROM_REQUEST = round(duration * 24 * 2 / 3)
        reference = replace(reference, guest_factory=_LateSweetener)

    def prepared_auditor():
        auditor = fleet.make_auditor(machine, collect=False)
        auditor.reference_image = reference
        service.prepare_auditor(auditor, machine)
        return auditor

    target = service.target_for(machine)
    streamed = stream_audit(prepared_auditor(), target, max_chunks=chunks)
    assert streamed.stats.unchunkable_reason is None
    materialized = prepared_auditor().audit(target, streaming=False)
    if convicted:
        result = streamed.result
        assert result.verdict is materialized.verdict is Verdict.FAIL
        assert result.phase is materialized.phase is AuditPhase.SEMANTIC_CHECK
        assert result.reason == materialized.reason
        # a late chunk, not the log: what the third party replays is small
        evidence = result.evidence
        assert evidence.segment.first_sequence > records[-1].last_sequence // 2
        assert len(evidence.segment.entries) <= streamed.stats.peak_chunk_entries
        assert evidence.verify(fleet.keystore, reference)
    else:
        assert streamed.result == materialized

    # Prepare the auditors (and their O(log) authenticator stores — input
    # state both paths share) outside the traced region, so the peaks
    # measure what the *audit* holds.
    stream_auditor = prepared_auditor()
    stream_peak = _traced_peak(
        lambda: stream_audit(stream_auditor, target, max_chunks=chunks))
    materializing_auditor = prepared_auditor()
    materializing_peak = _traced_peak(
        lambda: materializing_auditor.audit(target, streaming=False))
    bound = CHUNK_MULTIPLE * chunk_raw + FIXED_OVERHEAD

    assert stream_peak <= bound, (
        f"streaming audit of {len(records)} segments used "
        f"{stream_peak:,} B; bound was {bound:,} B "
        f"({CHUNK_MULTIPLE}x the {chunk_raw:,} B chunk)")
    assert materializing_peak > bound, (
        f"materializing path stayed under the chunk bound "
        f"({materializing_peak:,} B <= {bound:,} B) — the bound no longer "
        f"separates the paths; tighten the test")
    assert stream_peak < materializing_peak


@pytest.mark.slow
def test_stream_memory_bound_200_snapshots(tmp_path):
    """A 200-snapshot archived run: streaming stays O(chunk), full doesn't."""
    _run_memory_bound_check(tmp_path, duration=50.0, snapshots=200)


def test_stream_memory_bound_smoke(tmp_path):
    """Smoke-sized variant of the 200-snapshot bound (fast stage)."""
    _run_memory_bound_check(tmp_path, duration=10.0, snapshots=40)


@pytest.mark.slow
def test_convicted_stream_memory_bound_200_snapshots(tmp_path):
    """The failing log is held to the passing log's bound."""
    _run_memory_bound_check(tmp_path, duration=50.0, snapshots=200,
                            convicted=True)


def test_convicted_stream_memory_bound_smoke(tmp_path):
    """Smoke-sized variant of the failing-log bound (fast stage)."""
    _run_memory_bound_check(tmp_path, duration=10.0, snapshots=40,
                            convicted=True)
