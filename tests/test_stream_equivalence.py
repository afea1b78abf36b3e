"""Differential tests: the audit engine == the materializing audit.

The engine's contract (:mod:`repro.audit.engine`) is that a passing audit of
an archived log — streamed one chunk at a time at one inline worker, or
chunked over a pool — is *structurally identical* — verdict, counters,
replay report and modelled costs — to the serial materializing audit of the
same archive (the engine's one-chunk plan), which in turn equals the
in-memory audit of the live machine; and that a failing one reaches the
same verdict, phase and reason with the failing chunk, not the whole log,
as evidence a third party confirms.  (Re-pinned when the serial
confirmation went: every cell's verdict, phase and reason were recorded at
the parent commit and are the materializing audit's, asserted equal below;
what changed is the evidence and the counters of a conviction, which now
describe the chunks up to the fault.)  The fast tests
check this on a small archived fleet, on truncated (GC'd) archives, on the
engine and spot-check front-ends, and on a representative subset of
adversary scenarios; the slow tests sweep every adversary class over both
workloads and the 16-machine archived fleet.  Any divergence fails with the
offending cell printed.
"""

from __future__ import annotations

import tempfile

import pytest

from archive_tools import archived_entry_count, archived_log, archived_segments
from repro.adversary.catalog import adversary_names, make_adversary
from repro.adversary.matrix import WORKLOADS, CellSpec, ScenarioMatrix
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import Verdict
from repro.errors import ReproError
from repro.service.fleet import build_fleet
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive


# ---------------------------------------------------------------------------
# A small archived fleet shared by the fast tests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def archived_fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream-fleet") / "archive"
    fleet = build_fleet(num_machines=4, duration=8.0,
                        snapshot_interval=2.0, archive=LogArchive(root))
    return fleet, root


def _service(root) -> AuditIngestService:
    return AuditIngestService(LogArchive(root))


def _prepared_auditor(fleet, service, machine):
    auditor = fleet.make_auditor(machine, collect=False)
    service.prepare_auditor(auditor, machine)
    return auditor


def _one_chunk(auditor, target):
    """The engine's one-chunk plan: the whole log, materialized, as one
    chunk (the reference the chunked audits are held to)."""
    return AuditScheduler(chunks_per_machine=1).audit_fleet(
        [AuditAssignment(auditor, target)]).results[target.identity]


def _engine_report(auditor, target, **engine):
    """The engine's report on one machine (one inline worker by default)."""
    return AuditScheduler(**engine).audit_fleet(
        [AuditAssignment(auditor, target)]).machine_reports[target.identity]


class TestArchivedFleetEquivalence:
    def test_streaming_equals_materializing_and_memory(self, archived_fleet):
        fleet, root = archived_fleet
        service = _service(root)
        for machine in fleet.machines:
            materialized = _one_chunk(
                _prepared_auditor(fleet, service, machine),
                service.target_for(machine))
            report = _engine_report(_prepared_auditor(fleet, service, machine),
                             service.target_for(machine))
            in_memory = fleet.make_auditor(machine).audit(
                fleet.monitors[machine])
            assert report.unchunkable_reason is None
            assert report.result == materialized, \
                f"stream vs materializing diverged for {machine}"
            assert report.result == in_memory, \
                f"stream vs in-memory diverged for {machine}"

    def test_stream_actually_chunks(self, archived_fleet):
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        report = _engine_report(_prepared_auditor(fleet, service, machine),
                         service.target_for(machine))
        assert report.result.verdict is Verdict.PASS
        assert report.chunk_count > 1
        assert report.peak_chunk_entries < report.entries

    def test_default_audit_path_streams(self, archived_fleet):
        """``Auditor.audit`` of an archive target takes the engine at one
        inline worker (same result object, produced without whole-log
        materialization)."""
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        default = service.audit_machine(
            fleet.make_auditor(machine, collect=False), machine)
        report = _engine_report(_prepared_auditor(fleet, service, machine),
                         service.target_for(machine))
        assert default == report.result

    @pytest.mark.parametrize("workers", [2, 4])
    def test_engine_from_archive_matches_serial(self, archived_fleet, workers):
        """The whole result, costs included, at any worker count: chunk VMs
        restore absolute instruction counters from boundary snapshots and
        the cost is the whole log's, so nothing depends on the chunking."""
        fleet, root = archived_fleet
        service = _service(root)
        assignments = []
        for machine in fleet.machines:
            auditor = _prepared_auditor(fleet, service, machine)
            assignments.append(
                AuditAssignment(auditor, service.target_for(machine)))
        engine_report = AuditScheduler(workers=workers, executor="process") \
            .audit_fleet(assignments)
        assert engine_report.chunk_count > len(fleet.machines)
        for machine in fleet.machines:
            serial = _one_chunk(
                _prepared_auditor(fleet, service, machine),
                service.target_for(machine))
            assert serial.verdict is Verdict.PASS
            assert engine_report.results[machine] == serial

    def test_spot_checker_reads_the_archive_as_the_live_log(
            self, archived_fleet):
        """A k-chunk of the archive — a range read off its segment files —
        is the same range of the live log: result and price."""
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        target = service.target_for(machine)
        archived = SpotChecker(_prepared_auditor(fleet, service, machine)) \
            .check_chunk(target, 1, 2)
        live = SpotChecker(fleet.make_auditor(machine)).check_chunk(
            fleet.monitors[machine], 1, 2)
        assert archived.result.ok and archived.result == live.result
        assert (archived.log_bytes, archived.compressed_log_bytes) \
            == (live.log_bytes, live.compressed_log_bytes)
        segments = archived_segments(service.archive, machine)
        every = SpotChecker(_prepared_auditor(fleet, service, machine)) \
            .check_all_chunks(target, k=2, skip_initial=False)
        assert all(result.ok for result in every)
        assert [result.chunk_start_index for result in every] == list(
            range(len(segments) - 1))


class TestReviewRegressions:
    """Pinned fixes from the pre-merge review of the streaming pipeline."""

    def test_duplicate_send_id_is_flagged_in_a_later_chunk(self):
        """A forged duplicate-id SEND after its pair matched must be flagged
        (a chunk does not see the pair the whole-segment checker compares
        it against; a tampered log must not pass only when streamed)."""
        from repro.audit.kernel import BoundaryContext
        from repro.audit.syntactic import SyntacticChecker
        from repro.log.entries import EntryType
        from repro.log.segments import LogSegment
        from repro.log.tamper_evident import TamperEvidentLog

        log = TamperEvidentLog("mallory")
        log.append(EntryType.SEND, {"destination": "bob", "payload_hash": "aa",
                                    "payload_size": 1, "message_id": "m1"})
        log.append(EntryType.MACLAYER, {"direction": "out", "message_id": "m1",
                                        "payload_hash": "aa",
                                        "execution_counter": 1})
        forged = log.append(EntryType.SEND,
                            {"destination": "bob", "payload_hash": "bb",
                             "payload_size": 1, "message_id": "m1"})
        segment = LogSegment(machine="mallory", entries=list(log.entries),
                             start_hash=log.entries[0].previous_hash)
        whole = SyntacticChecker().check(segment)
        assert not whole.ok  # the serial checker catches the forgery...
        assert "disagree about the payload" in whole.problems[0]
        # ...and so must the chunk the forgery lands in, without the pair
        first = LogSegment("mallory", segment.entries[:2], segment.start_hash)
        later = LogSegment("mallory", segment.entries[2:],
                           segment.entries[1].chain_hash)
        assert SyntacticChecker().check(
            first, BoundaryContext(ends_log=False)).ok
        chunk = SyntacticChecker().check(later, BoundaryContext().after(first))
        assert [problem for problem in chunk.problems
                if "was sent" in problem and "never left the AVM" in problem]

    def test_unverifiable_boundary_snapshot_is_re_planned(
            self, archived_fleet, monkeypatch):
        """A log whose chunk boundary cannot be planned is re-planned as one
        chunk instead of raising out of the engine."""
        import repro.audit.engine as engine_module
        from repro.errors import MissingSnapshotError

        def refuse(target, snapshot_entry):
            raise MissingSnapshotError("simulated unverifiable snapshot")

        monkeypatch.setattr(engine_module, "fetch_verified_snapshot_entry",
                            refuse)
        fleet, root = archived_fleet
        service = _service(root)
        machine = fleet.machines[0]
        report = _engine_report(_prepared_auditor(fleet, service, machine),
                         service.target_for(machine))
        assert report.unchunkable_reason == "simulated unverifiable snapshot"
        assert report.chunk_count == 1
        one_chunk = _one_chunk(_prepared_auditor(fleet, service, machine),
                               service.target_for(machine))
        assert report.result == one_chunk

    def test_the_retention_state_reaches_the_replay_of_a_truncated_archive(
            self, archived_fleet, tmp_path, monkeypatch):
        """The state a truncated archive's replay starts from must reach the
        replay unchanged (a wrong one must fail; nothing may silently
        replace it with another)."""
        import shutil
        fleet, root = archived_fleet
        clone_root = tmp_path / "archive"
        shutil.copytree(root, clone_root)
        archive = LogArchive(clone_root)
        service = AuditIngestService(archive)
        machine = fleet.machines[0]
        archive.truncate(machine, archive.head_checkpoint(machine).sequence // 2)
        target = service.target_for(machine)
        monkeypatch.setattr(target, "replay_start",
                            lambda: ({"bogus": True}, 0))
        # The bogus state must reach the replay VM, which rejects it.
        with pytest.raises(ReproError):
            _one_chunk(_prepared_auditor(fleet, service, machine), target)


def test_full_segment_shim_is_gone(archived_fleet):
    """The archive has no materializing reader; the archive target's
    get_log_segment is the one explicit materialization."""
    fleet, root = archived_fleet
    archive = LogArchive(root)
    machine = fleet.machines[0]
    assert not hasattr(archive, "full_segment")
    assert not hasattr(archive, "materialized_log")
    full = archived_log(archive, machine)
    assert len(full.entries) == archived_entry_count(archive, machine)


class TestTruncatedArchiveEquivalence:
    def test_streaming_audits_gc_truncated_archive(self, archived_fleet):
        fleet, root = archived_fleet
        with tempfile.TemporaryDirectory() as tmp:
            import shutil
            clone_root = tmp + "/archive"
            shutil.copytree(root, clone_root)
            archive = LogArchive(clone_root)
            service = AuditIngestService(archive)
            for machine in fleet.machines:
                head = archive.head_checkpoint(machine)
                archive.truncate(machine, head.sequence // 2)
                assert archive.retained_checkpoint(machine) is not None
                materialized = _one_chunk(
                    _prepared_auditor(fleet, service, machine),
                    service.target_for(machine))
                report = _engine_report(_prepared_auditor(fleet, service, machine),
                                 service.target_for(machine))
                assert report.unchunkable_reason is None
                assert report.result == materialized, \
                    f"truncated stream vs materializing diverged for {machine}"
                assert report.result.verdict is Verdict.PASS
                assert report.result.cost.snapshot_bytes_downloaded > 0

    @pytest.mark.parametrize("engine", [None, 2], ids=["default", "2-workers"])
    def test_audit_pending_drains_truncated_and_whole_in_one_call(
            self, archived_fleet, tmp_path, engine):
        """One truncated machine and the untruncated rest, drained together
        from a service opened over the archive, audit exactly as they do one
        by one: the engine anchors the truncated log at its retention
        boundary itself."""
        import shutil
        fleet, root = archived_fleet
        shutil.copytree(root, tmp_path / "archive")
        archive = LogArchive(tmp_path / "archive")
        truncated = fleet.machines[0]
        archive.truncate(truncated,
                         archive.head_checkpoint(truncated).sequence // 2)
        assert archive.retained_checkpoint(truncated) is not None
        service = AuditIngestService(archive)

        def make_auditor(machine):
            return fleet.make_auditor(machine, collect=False)

        drained = service.audit_pending(
            make_auditor, engine=engine and AuditScheduler(
                workers=engine, executor="process"))
        assert sorted(drained) == fleet.machines
        assert service.pending_machines() == []
        one_by_one = {machine: service.audit_machine(make_auditor(machine),
                                                     machine)
                      for machine in fleet.machines}
        assert drained == one_by_one
        assert all(result.ok for result in drained.values())
        assert drained[truncated].cost.snapshot_bytes_downloaded > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_an_empty_archive_is_an_error_before_any_work(
        archived_fleet, tmp_path, monkeypatch, workers):
    import repro.audit.engine as engine_module
    from repro.errors import StoreError
    fleet, root = archived_fleet
    service = _service(root)
    audited, absent = fleet.machines[:2]
    ran = []
    monkeypatch.setattr(engine_module, "run_chunk", ran.append)
    empty = AuditIngestService(LogArchive(tmp_path / "empty"))
    assignments = [
        AuditAssignment(_prepared_auditor(fleet, service, audited),
                        service.target_for(audited)),
        AuditAssignment(fleet.make_auditor(absent, collect=False),
                        empty.target_for(absent))]
    engine = AuditScheduler(workers=workers, executor="process")
    with pytest.raises(StoreError, match="no archived segments"):
        engine.audit_fleet(assignments)
    assert ran == []


# ---------------------------------------------------------------------------
# Differential sweep over adversary scenarios
# ---------------------------------------------------------------------------

def _run_archived_scenario(adversary_name: str, workload: str, seed: int,
                           archive_dir: str):
    """Record one adversary cell with archive shipping attached."""
    matrix = ScenarioMatrix()
    adversary = make_adversary(adversary_name, seed=seed)
    fleet_size = 2 if workload == "kv" else 3
    spec = CellSpec(adversary_name, workload, "archive", fleet_size, seed)
    ctx, run = matrix._build(spec, adversary, archive_dir)
    adversary.install(ctx)
    run()
    matrix._drain_archive(ctx)
    adversary.corrupt(ctx)
    return matrix, adversary, ctx


def _same_conviction(streamed, materialized, ctx, where: str) -> None:
    """Verdict, phase and reason of the materializing audit, on the failing
    chunk: a run of the whole log's entries, confirmed by a third party."""
    assert (streamed.verdict, streamed.phase, streamed.reason) == (
        materialized.verdict, materialized.phase, materialized.reason), where
    chunk = streamed.evidence.segment.entries
    whole = materialized.evidence.segment.entries
    first = chunk[0].sequence - whole[0].sequence
    assert chunk == whole[first:first + len(chunk)], where
    assert bool(streamed.evidence.anchor) == (first > 0), where
    assert streamed.cost.log_bytes_downloaded \
        <= materialized.cost.log_bytes_downloaded, where
    for evidence in (streamed.evidence, materialized.evidence):
        assert evidence.verify(
            ctx.keystore, ctx.reference_images[streamed.machine]), where


def _compare_cell(adversary_name: str, workload: str, seed: int) -> None:
    with tempfile.TemporaryDirectory(prefix="stream-diff-") as tmp:
        matrix, adversary, ctx = _run_archived_scenario(
            adversary_name, workload, seed, tmp)
        cell = f"{adversary_name} x {workload}"
        for machine in sorted(ctx.monitors):
            target = ctx.ingest.target_for(machine)

            def _prepared():
                auditor = matrix._make_auditor(ctx, machine, adversary)
                ctx.ingest.prepare_auditor(auditor, machine)
                return auditor

            try:
                materialized = _one_chunk(_prepared(), target)
                materialized_error = None
            except ReproError as exc:
                materialized, materialized_error = None, exc
            try:
                streamed = _prepared().audit(target)
                streamed_error = None
            except ReproError as exc:
                streamed, streamed_error = None, exc

            if materialized_error is not None or streamed_error is not None:
                assert type(streamed_error) is type(materialized_error), (
                    f"cell [{cell}] machine {machine}: error divergence — "
                    f"materializing raised {materialized_error!r}, "
                    f"streaming raised {streamed_error!r}")
                continue
            if materialized.ok and streamed != materialized:
                pytest.fail(
                    f"cell [{cell}] machine {machine}: structural divergence\n"
                    f"  materializing: {materialized}\n"
                    f"  streaming:     {streamed}")
            if not materialized.ok:
                _same_conviction(streamed, materialized, ctx,
                                 f"cell [{cell}] machine {machine}")


#: representative fast subset: one honest control, one in-log fault (replay
#: divergence ships into the archive), one shipping corruptor (quarantine →
#: partial/empty archive)
_FAST_CELLS = [("honest", "kv"), ("cheating-guest", "kv"),
               ("lying-shipper-segments", "kv")]


@pytest.mark.parametrize("adversary_name,workload", _FAST_CELLS)
def test_adversary_cell_differential_fast(adversary_name, workload):
    _compare_cell(adversary_name, workload, seed=5000)


@pytest.mark.parametrize("adversary_name,workload", _FAST_CELLS)
def test_the_engine_is_the_same_on_every_executor(adversary_name, workload):
    """A pass is the one-chunk plan's at every worker count and executor; a
    conviction, at one chunking, is one result — verdict, phase, reason,
    cost and evidence — whatever runs the chunks."""
    with tempfile.TemporaryDirectory(prefix="engine-diff-") as tmp:
        matrix, adversary, ctx = _run_archived_scenario(
            adversary_name, workload, 5000, tmp)
        for machine in sorted(ctx.monitors):
            if ctx.ingest.quarantine_for(machine):
                continue
            target = ctx.ingest.target_for(machine)

            def audit(**engine):
                auditor = matrix._make_auditor(ctx, machine, adversary)
                ctx.ingest.prepare_auditor(auditor, machine)
                if not engine:
                    return _one_chunk(auditor, target)
                return AuditScheduler(**engine).audit_fleet(
                    [AuditAssignment(auditor, target)]).results[machine]

            serial = audit()
            for chunks in ((None,) if serial.ok else (None, 64)):
                results = {
                    (workers, executor): audit(
                        workers=workers, executor=executor,
                        chunks_per_machine=chunks)
                    for workers in (1, 2, 4)
                    for executor in ("inline", "process")}
                reference = serial if serial.ok \
                    else results[1, "inline"] if chunks else None
                for where, result in results.items():
                    where = f"{adversary_name}: {machine} on {where}"
                    assert result.verdict is serial.verdict, where
                    if reference is not None:
                        assert result == reference, where


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("adversary_name", adversary_names())
def test_adversary_matrix_differential(adversary_name, workload):
    """Every adversary class, both workloads: streaming == materializing."""
    _compare_cell(adversary_name, workload, seed=6000)


@pytest.mark.slow
def test_sixteen_machine_archived_fleet_differential(tmp_path):
    root = tmp_path / "archive"
    fleet = build_fleet(num_machines=16, duration=12.0,
                        snapshot_interval=4.0, archive=LogArchive(root))
    service = _service(root)
    for machine in fleet.machines:
        in_memory = fleet.make_auditor(machine).audit(fleet.monitors[machine])
        report = _engine_report(_prepared_auditor(fleet, service, machine),
                         service.target_for(machine))
        assert report.unchunkable_reason is None
        if report.result != in_memory:
            pytest.fail(f"16-machine fleet, machine {machine}: streaming vs "
                        f"in-memory divergence\n  in-memory: {in_memory}\n"
                        f"  streaming: {report.result}")
    # ...and the parallel engine agrees from the same archive, exactly.
    for workers in (2, 4):
        assignments = [
            AuditAssignment(_prepared_auditor(fleet, service, machine),
                            service.target_for(machine))
            for machine in fleet.machines]
        engine_report = AuditScheduler(workers=workers).audit_fleet(
            assignments)
        for machine in fleet.machines:
            serial = _one_chunk(
                _prepared_auditor(fleet, service, machine),
                service.target_for(machine))
            assert engine_report.results[machine] == serial, \
                f"{workers} workers, machine {machine}"
