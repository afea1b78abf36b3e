"""Regression: a snapshot between a RECV and its injection convicts nobody.

The monitor logs a RECV when a packet arrives and injects the packet into the
AVM about a millisecond later, so a snapshot — a chunk boundary — can fall
between the two.  Every front-end must audit such a log as what it is, an
honest one: the chunk after the boundary starts with the RECV in flight (its
:class:`~repro.audit.kernel.BoundaryContext`).  And the same boundary must not
hide a cheat: when the monitor logs a RECV and never injects the packet, the
chunk that should hold the injection reports it.

The recording is a kv pair with a snapshot forced into that window; nothing
here imports ``bench/``.

The same boundary is the one an *accuser* can lie about: evidence for the
chunk after it is anchored to the chain, and every forgery of its start —
the accuser adversaries of ``tests/accuser.py`` — is rejected.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from accuser import ACCUSER_ADVERSARIES
from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.audit.engine import (AuditAssignment, AuditScheduler, _ChunkRun,
                                _MachineAudit)
from repro.audit.evidence import Evidence
from repro.audit.multiparty import distribute_evidence
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import AuditPhase, AuditResult, Verdict
from repro.errors import EvidenceError
from repro.log.entries import EntryType
from repro.log.hashchain import chain_hash
from repro.network.message import MessageKind
from repro.vm.events import PacketDelivery

SEED = 5100
SERVER = "db-server-00"


def _build(archive_dir):
    matrix = ScenarioMatrix()
    adversary = make_adversary("honest", seed=SEED)
    spec = CellSpec("honest", "kv", "archive", 2, SEED)
    ctx, run = matrix._build(spec, adversary, str(archive_dir))
    return matrix, adversary, ctx, run


def _record(archive_dir, forced_at=None, never_inject=None):
    """Record the pair; optionally force a server snapshot at ``forced_at``
    and make the server's monitor drop the injection of ``never_inject``."""
    matrix, adversary, ctx, run = _build(archive_dir)
    server = ctx.monitors[SERVER]
    if forced_at is not None:
        ctx.scheduler.schedule_at(forced_at, server.take_snapshot,
                                  label="forced-snapshot")
    if never_inject is not None:
        deliver = server.deliver_event

        def drop(event):
            if isinstance(event, PacketDelivery) \
                    and event.message_id == never_inject:
                return []
            return deliver(event)

        server.deliver_event = drop
    run()
    matrix._drain_archive(ctx)
    return matrix, adversary, ctx


@pytest.fixture(scope="module")
def window(tmp_path_factory):
    """A mid-log packet to the server: its message id, and a time halfway
    between its arrival and its injection.  (The simulation is seeded, so a
    probe recording tells where the window will be.)"""
    _, _, ctx = _record(tmp_path_factory.mktemp("probe"))
    perf = ctx.monitors[SERVER].perf
    at, message = next(
        (at, message) for at, message in ctx.network.deliveries
        if message.destination == SERVER and message.kind is MessageKind.DATA
        and at > 1.4)
    delay = perf.incoming_packet_delay(len(message.payload))
    assert delay > 0
    return message.message_id, at + delay / 2


@pytest.fixture(scope="module")
def honest(tmp_path_factory, window):
    _, forced_at = window
    return _record(tmp_path_factory.mktemp("honest"), forced_at=forced_at)


@pytest.fixture(scope="module")
def cheat(tmp_path_factory, window):
    message_id, forced_at = window
    return _record(tmp_path_factory.mktemp("cheat"), forced_at=forced_at,
                   never_inject=message_id)


def _in_flight_at_snapshots(monitor):
    """``(snapshot sequence, message id)`` for every RECV that a snapshot
    separates from its injection (or from the end of the log)."""
    pending, found = {}, []
    for entry in monitor.log.entries:
        content = entry.content
        if entry.entry_type is EntryType.RECV:
            pending[content["message_id"]] = entry.sequence
        elif entry.entry_type is EntryType.MACLAYER \
                and content["direction"] == "in":
            pending.pop(content["message_id"], None)
        elif entry.entry_type is EntryType.SNAPSHOT:
            found.extend((entry.sequence, message_id) for message_id in pending)
    return found


def _live_auditor(recording, machine=SERVER):
    matrix, adversary, ctx = recording
    return matrix._make_auditor(ctx, machine, adversary)


def _archive_auditor(recording, machine=SERVER):
    ctx = recording[2]
    auditor = _live_auditor(recording, machine)
    ctx.ingest.prepare_auditor(auditor, machine)
    return auditor


def _streamed(auditor, target):
    """The engine at one inline worker: one chunk per archived snapshot."""
    return AuditScheduler().audit_fleet([AuditAssignment(auditor, target)]) \
        .machine_reports[target.identity]


def _targets(recording, machine=SERVER):
    ctx = recording[2]
    return {"live": (_live_auditor, ctx.monitors[machine]),
            "archive": (_archive_auditor, ctx.ingest.target_for(machine))}


def test_the_recording_has_the_straddle(honest, window):
    message_id, _ = window
    server = honest[2].monitors[SERVER]
    straddles = _in_flight_at_snapshots(server)
    # (the client sends in bursts, so the packet may have company)
    assert message_id in [mid for _, mid in straddles]
    assert len({boundary for boundary, _ in straddles}) == 1
    boundary = straddles[0][0]
    first_after = server.log.entries[boundary]          # sequence boundary+1
    assert first_after.entry_type is EntryType.MACLAYER
    assert first_after.content["direction"] == "in"
    assert first_after.content["message_id"] in [mid for _, mid in straddles]
    assert 0 < boundary < len(server.log) - 50          # mid-log


class TestHonestStraddlePasses:
    def test_serial_and_streamed(self, honest):
        for name, (make_auditor, target) in _targets(honest).items():
            result = AuditScheduler(chunks_per_machine=1).audit_fleet(
                [AuditAssignment(make_auditor(honest), target)]).results[SERVER]
            assert result.verdict is Verdict.PASS, name
        report = _streamed(_archive_auditor(honest),
                           honest[2].ingest.target_for(SERVER))
        assert report.result.verdict is Verdict.PASS
        assert report.unchunkable_reason is None
        assert report.chunk_count >= 4

    @pytest.mark.parametrize("source", ["live", "archive"])
    def test_engine_at_two_chunks_and_at_the_finest(self, honest, source):
        make_auditor, target = _targets(honest)[source]
        finest = len(honest[2].monitors[SERVER].segment_records())
        assert finest >= 4
        for chunks in (2, finest):
            engine = AuditScheduler(workers=2, executor="inline",
                                    chunks_per_machine=chunks)
            report = engine.audit_fleet(
                [AuditAssignment(make_auditor(honest), target)])
            machine_report = report.machine_reports[SERVER]
            assert machine_report.result.verdict is Verdict.PASS
            assert machine_report.chunk_count == chunks
            assert machine_report.unchunkable_reason is None, chunks

    @pytest.mark.parametrize("source", ["live", "archive"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_every_spot_check(self, honest, source, k):
        make_auditor, target = _targets(honest)[source]
        checker = SpotChecker(make_auditor(honest))
        results = checker.check_all_chunks(target, k=k, skip_initial=False)
        assert len(results) >= 2
        assert all(result.ok for result in results), \
            [(r.chunk_start_index, r.result.reason) for r in results
             if not r.ok]

    def test_the_honest_client_too(self, honest):
        ctx = honest[2]
        client = next(m for m in ctx.monitors if m != SERVER)
        auditor = _live_auditor(honest, client)
        assert auditor.audit(ctx.monitors[client]).verdict is Verdict.PASS
        assert all(r.ok for r in SpotChecker(auditor).check_all_chunks(
            ctx.monitors[client], k=1, skip_initial=False))


class TestDroppedInjectionIsConvicted:
    """The cheat twin: same recording, but the straddling RECV's packet
    never enters the AVM."""

    def _check(self, cheat, result, window):
        ctx = cheat[2]
        assert result.verdict is Verdict.FAIL
        assert result.phase is AuditPhase.SYNTACTIC_CHECK
        assert f"message {window[0]} was received" in result.reason
        assert "never entered the AVM" in result.reason
        assert result.evidence.verify(ctx.keystore,
                                      ctx.reference_images[SERVER])

    def test_the_recording_never_injects_it(self, cheat, window):
        server = cheat[2].monitors[SERVER]
        injected = {entry.content["message_id"]
                    for entry in server.log.entries_of_type(EntryType.MACLAYER)
                    if entry.content["direction"] == "in"}
        assert window[0] not in injected
        assert window[0] in {mid for _, mid in _in_flight_at_snapshots(server)}

    def test_serial_and_streamed(self, cheat, window):
        ctx = cheat[2]
        self._check(cheat, _live_auditor(cheat).audit(ctx.monitors[SERVER]),
                    window)
        report = _streamed(_archive_auditor(cheat),
                           ctx.ingest.target_for(SERVER))
        assert report.unchunkable_reason is None
        self._check(cheat, report.result, window)
        self._check_anchor(report.result.evidence, window)

    @pytest.mark.parametrize("source", ["live", "archive"])
    def test_full_coverage_spot_check(self, cheat, window, source):
        make_auditor, target = _targets(cheat)[source]
        checker = SpotChecker(make_auditor(cheat))
        results = checker.check_all_chunks(target, k=1, skip_initial=False)
        failed = [result for result in results if not result.ok]
        # the chunk that should contain the injection, and only that one
        assert len(failed) == 1
        assert failed[0].chunk_start_index > 0
        self._check(cheat, failed[0].result, window)
        self._check_anchor(failed[0].result.evidence, window)

    def _check_anchor(self, evidence, window):
        """Evidence for a mid-log chunk is anchored: it carries the log from
        the RECV, in flight at the chunk's start, through the boundary
        snapshot, and that suffix ends where the chunk starts."""
        anchor = evidence.anchor
        assert anchor[0].entry_type is EntryType.RECV
        assert anchor[0].content["message_id"] == window[0]
        assert anchor[-1].entry_type is EntryType.SNAPSHOT
        assert anchor[-1].chain_hash == evidence.segment.start_hash
        assert anchor[-1].sequence + 1 == evidence.segment.first_sequence

    def test_the_engine_convicts_on_the_failing_chunk(self, cheat, window):
        ctx = cheat[2]
        finest = len(ctx.monitors[SERVER].segment_records())
        engine = AuditScheduler(workers=2, executor="inline",
                                chunks_per_machine=finest)
        report = engine.audit_fleet(
            [AuditAssignment(_live_auditor(cheat), ctx.monitors[SERVER])])
        machine_report = report.machine_reports[SERVER]
        assert machine_report.unchunkable_reason is None
        # it stopped at the chunk that should hold the injection
        assert 1 < machine_report.chunk_count < finest
        assert not machine_report.chunk_outcomes[-1].ok
        self._check(cheat, report.results[SERVER], window)
        self._check_anchor(report.results[SERVER].evidence, window)


class TestAccuserAdversaries:
    """The machine is honest; the cheat is in the evidence.  Expected
    outcome: evidence rejected — an ``EvidenceError``, never ``True``."""

    @pytest.fixture(scope="class")
    def accusation(self, honest):
        """Genuine evidence for the genuine chunk that starts with the
        straddling RECV in flight, as an auditor who (wrongly) accused the
        honest server would package it."""
        ctx = honest[2]
        auditor = _live_auditor(honest)
        engine = AuditScheduler(workers=2, chunks_per_machine=64)
        audit = _MachineAudit(
            AuditAssignment(auditor, ctx.monitors[SERVER]), budget=64)
        job = next(job for job in engine._plan(audit, _ChunkRun("inline", 1))
                   if job.context.in_flight)
        assert job.chunk_index > 0 and job.initial_state is not None
        accusation = AuditResult(SERVER, auditor.identity, Verdict.FAIL,
                                 AuditPhase.SEMANTIC_CHECK, "an accusation")
        return auditor.evidence_for(job, accusation), \
            ctx.keystore, ctx.reference_images[SERVER]

    def test_honest_evidence_of_the_chunk_convicts_nobody(self, accusation,
                                                          window):
        evidence, keystore, image = accusation
        assert evidence.anchor[0].entry_type is EntryType.RECV
        assert window[0] in [entry.content["message_id"]
                             for entry in evidence.anchor
                             if entry.entry_type is EntryType.RECV]
        assert evidence.verify(keystore, image) is False

    @pytest.mark.parametrize("name", sorted(ACCUSER_ADVERSARIES))
    def test_forgery_is_rejected(self, accusation, name):
        evidence, keystore, image = accusation
        forged = ACCUSER_ADVERSARIES[name](evidence, keystore)
        assert forged != evidence
        with pytest.raises(EvidenceError):
            forged.verify(keystore, image)
        with pytest.raises(EvidenceError):
            distribute_evidence(forged, [("carol", keystore)], image)

    def test_cancelling_twins_of_a_tamper_check_accusation(self, accusation,
                                                           honest):
        """Evidence of the tamper check carries every covering
        authenticator; replaced pairwise by cancelling twins, whose product
        verifies as the genuine pair's does, none of them counts."""
        evidence, keystore, image = accusation
        auditor = _live_auditor(honest)
        covered = range(evidence.segment.first_sequence,
                        evidence.segment.last_sequence + 1)
        held = [auth for auth in auditor.authenticators_for(SERVER)
                if auth.sequence in covered]
        assert len(held) >= 2
        genuine = replace(evidence, authenticators=held)
        assert genuine.verify(keystore, image) is False
        forged = ACCUSER_ADVERSARIES["cancelling-authenticators"](genuine,
                                                                  keystore)
        assert len(forged.authenticators) == len(held)
        with pytest.raises(EvidenceError, match="no valid authenticator"):
            forged.verify(keystore, image)
        with pytest.raises(EvidenceError, match="no valid authenticator"):
            distribute_evidence(forged, [("carol", keystore)], image)

    def test_altered_recv_with_the_chain_recomputed(self, accusation):
        """Rehashing the anchor onward from the altered RECV makes it a
        chain again — one that no longer ends where the chunk starts."""
        evidence, keystore, image = accusation
        altered = ACCUSER_ADVERSARIES["altered-in-flight-recv"](evidence,
                                                                keystore)
        rehashed, previous = [], altered.anchor[0].previous_hash
        for entry in altered.anchor:
            entry = replace(entry, previous_hash=previous)
            entry = replace(entry, chain_hash=chain_hash(
                previous, entry.sequence, entry.entry_type, entry.content))
            rehashed.append(entry)
            previous = entry.chain_hash
        with pytest.raises(EvidenceError, match="at the segment's start"):
            replace(evidence, anchor=rehashed).verify(keystore, image)

    def test_an_anchor_from_elsewhere_or_without_its_snapshot(self, accusation,
                                                              honest):
        evidence, keystore, image = accusation
        log = honest[2].monitors[SERVER].log
        with pytest.raises(EvidenceError):          # ends before the boundary
            replace(evidence, anchor=evidence.anchor[:-1]).verify(keystore, image)
        elsewhere = log.segment(3, 6).entries       # a chain, but not this one
        with pytest.raises(EvidenceError):
            replace(evidence, anchor=elsewhere).verify(keystore, image)

    def test_second_half_of_an_honest_log_is_not_a_log(self, honest):
        """``Evidence(segment=log.segment(n // 2, n))`` used to replay from
        the reference image, diverge, and confirm."""
        ctx = honest[2]
        auditor = _live_auditor(honest)
        log = ctx.monitors[SERVER].log
        evidence = Evidence(
            machine=SERVER, accuser="mallory", reason="an accusation",
            segment=log.segment(len(log) // 2, len(log)),
            authenticators=auditor.authenticators_for(SERVER),
            reference_image_hash=ctx.reference_images[SERVER].image_hash())
        with pytest.raises(EvidenceError, match="where the log starts"):
            evidence.verify(ctx.keystore, ctx.reference_images[SERVER])
        # ...while the log from its start is evidence, of nothing
        assert replace(evidence, segment=log.full_segment()).verify(
            ctx.keystore, ctx.reference_images[SERVER]) is False
