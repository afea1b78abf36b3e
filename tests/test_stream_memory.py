"""tracemalloc memory-bound regression tests for the audit engine.

The engine's promise is residency bounded by its window, not by the log: it
holds at most ``in_flight`` submitted chunks (one on the inline executor,
two per worker on a pool) plus the one it is decoding, so peak traced memory
must stay under a fixed multiple of the chunk size times that window
(nothing on the audit path runs a compressor, so there is no constant
working set to discount), while the materializing path — which inflates the
whole archived log before any check runs — blows through the same bound.
Each test runs at one inline worker and at two process workers.  The slow
tests pin this on a 200-snapshot archived run; the fast variants are the
same assertion at smoke scale.  The promise holds for the machine that gets
convicted as much as for the honest one: the *convicted* variants audit a
server whose fault is two thirds into its log and hold the conviction —
evidence included — to the same bound.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from functools import partial

import pytest

from dataclasses import replace

from repro.adversary.guests import CheatingKvServerGuest
from repro.audit.engine import (AuditAssignment, AuditScheduler, _ChunkRun,
                                _MachineAudit)
from repro.audit.kernel import run_chunk
from repro.audit.verdict import AuditPhase, Verdict
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import build_trust
from repro.network.simnet import SimulatedNetwork
from repro.service.fleet import AuditFleet, drain_fleet_to_archive
from repro.service.ingest import DEFAULT_INGEST_IDENTITY, AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.workloads.kvstore import KvServerGuest, make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image

#: the traced peak must stay under this multiple of the largest chunk's raw
#: bytes per chunk in flight, plus a small fixed overhead
CHUNK_MULTIPLE = 6
FIXED_OVERHEAD = 1_200_000

WORKERS = pytest.mark.parametrize("workers,executor",
                                  [(1, "inline"), (2, "process")])


def _traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


class _LateSweetener(CheatingKvServerGuest):
    """The agreed image answers SELECTs its own way from request
    ``from_request`` on; a server that keeps answering like the stock image
    stops matching the reference there, two thirds into its log.  The
    threshold is an argument, so a process worker's replay gets it with the
    pickled image."""

    def __init__(self, from_request: int) -> None:
        super().__init__()
        self.from_request = from_request

    def execute(self, query):
        if query.get("request_id", 0) < self.from_request:
            return KvServerGuest.execute(self, query)
        return super().execute(query)


def _fat_row_fleet(root, duration: float, snapshot_interval: float) -> AuditFleet:
    """One kv-server / sql-bench pair recorded into an archive at ``root``,
    as ``build_fleet`` records one, but with fat row payloads: raw log
    bytes grow, entry counts do not."""
    server, client = "db-server-00", "db-client-00"
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                          snapshot_interval=snapshot_interval)
    _, keypairs, keystore = build_trust([server, client, "auditor"],
                                        scheme=config.signature_scheme, seed=7)
    images = {server: make_kvserver_image(),
              client: make_sqlbench_image(SqlBenchSettings(
                  server=server, operations_per_tick=6, tick_interval=0.25,
                  rows_per_phase=4, payload_bytes=8000))}
    monitors = {name: AccountableVMM(name, image, config, scheduler, network,
                                     keypair=keypairs[name], keystore=keystore,
                                     clock_offset=offset)
                for (name, image), offset in zip(images.items(), (0.0, 0.0002))}
    ingest = AuditIngestService(LogArchive(root), identity=DEFAULT_INGEST_IDENTITY,
                                network=network)
    for monitor in monitors.values():
        monitor.attach_archive_shipper(DEFAULT_INGEST_IDENTITY)
        monitor.start()
    scheduler.run_until(duration)
    for monitor in monitors.values():
        monitor.stop()
    drain_fleet_to_archive(scheduler, monitors)
    return AuditFleet(monitors=monitors, reference_images=images,
                      keystore=keystore, peers={server: client, client: server},
                      ingest=ingest, scheduler=scheduler)


def _run_memory_bound_check(tmp_path, duration: float, snapshots: int,
                            workers: int, executor: str,
                            convicted: bool = False):
    snapshot_interval = duration / snapshots
    root = tmp_path / "archive"
    fleet = _fat_row_fleet(root, duration, snapshot_interval)
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
        reference = replace(reference, guest_factory=partial(
            _LateSweetener, round(duration * 24 * 2 / 3)))

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
    one_chunk = AuditScheduler(chunks_per_machine=1)   # still materializes
    materialized = one_chunk.audit_fleet(
        [AuditAssignment(prepared_auditor(), target)]).results[machine]
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
        lambda: one_chunk.audit_fleet(
            [AuditAssignment(materializing_auditor, target)]))
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


#: what a pickled chunk job may carry per entry beyond the entry's encoded
#: content: its wire fields and the job's share of authenticators, keys and
#: image (about 230 B here; with each entry's decoded content beside its
#: bytes, about 1,700 B)
JOB_BYTES_PER_ENTRY = 400


@pytest.mark.parametrize("archived", [False, True], ids=["live", "archive"])
def test_a_chunk_job_pickles_each_entry_as_its_wire_fields(tmp_path, archived):
    """A job crosses to a pool worker pickled: each entry goes as its
    encoded content and hashes, not also as the content dict decoded from
    them, and comes back the same entry with the same outcome."""
    root = tmp_path / "archive"
    fleet = _fat_row_fleet(root, duration=10.0, snapshot_interval=0.25)
    service = AuditIngestService(LogArchive(root))
    machine = "db-server-00"
    auditor = fleet.make_auditor(machine, collect=False)
    service.prepare_auditor(auditor, machine)
    target = service.target_for(machine) if archived \
        else fleet.monitors[machine]
    audit = _MachineAudit(AuditAssignment(auditor, target), budget=4)
    jobs = list(AuditScheduler()._plan(audit, _ChunkRun("inline", 1)))
    assert len(jobs) == 4
    for job in jobs:
        entries = job.segment.entries
        blob = pickle.dumps(job)
        content = sum(len(entry.encoded_content()) for entry in entries)
        assert len(blob) <= content + JOB_BYTES_PER_ENTRY * len(entries)
        copy = pickle.loads(blob)
        assert [(entry.sequence, entry.entry_type, entry.chain_hash,
                 entry.previous_hash, entry.timestamp, entry.encoded_content())
                for entry in copy.segment.entries] == \
            [(entry.sequence, entry.entry_type, entry.chain_hash,
              entry.previous_hash, entry.timestamp, entry.encoded_content())
             for entry in entries]
        assert all("content" not in entry.__dict__
                   for entry in copy.segment.entries)
        assert run_chunk(copy) == run_chunk(job)
