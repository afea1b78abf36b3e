"""Tests for the parallel batch-audit engine and its crypto/log substrate.

Covers the acceptance points of the engine design: each signature is
verified on its own and a single bad one is left out; a chunked audit of a tampered
log reaches the serial path's verdict, phase and reason with the failing
chunk as evidence, identical on every executor; ``workers=1`` and
``workers=4`` produce identical verdicts; and the incremental hash-chain /
chunk-partitioning primitives behave.

(Re-pinned when the serial confirmation went: verdict, phase and reason of
every faulty session below were recorded at the parent commit and are what
is asserted here; what changed is the evidence — the failing chunk, anchored
to its chain, instead of the whole log — and, for the forged second SEND,
the reason, which is now the later chunk's.)
"""

import contextlib
import json
import multiprocessing
import os
import signal

import pytest

from repro.audit.engine import (
    AuditAssignment,
    AuditScheduler,
    _ChunkRun,
    _MachineAudit,
    pool_starts_total,
    run_chunk,
    shutdown_worker_pools,
)
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import AuditPhase, Verdict
from repro.crypto.signatures import get_scheme
from repro.errors import HashChainError
from repro.log.authenticator import batch_verify_authenticators
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.segments import concatenate_segments, partition_segments


# ---------------------------------------------------------------------------
# Signature verification: each signature on its own
# ---------------------------------------------------------------------------

class TestPerItemVerify:
    def _signed_items(self, ca, identity="alice", count=12):
        keypair = ca.issue(identity)
        messages = [f"packet-{index}".encode("utf-8") for index in range(count)]
        return messages, [(message, keypair.sign(message)) for message in messages]

    @staticmethod
    def _verdicts(keys, identity, items):
        return [keys.verify(identity, message, signature)
                for message, signature in items]

    def test_all_valid_signatures_verify(self, ca, keystore):
        _, items = self._signed_items(ca)
        assert all(self._verdicts(keystore, "alice", items))

    def test_single_bad_signature_is_pinpointed(self, ca, keystore):
        messages, items = self._signed_items(ca)
        items[7] = (messages[7], items[6][1])  # signature for the wrong message
        verdicts = self._verdicts(keystore, "alice", items)
        assert [i for i, ok in enumerate(verdicts) if not ok] == [7]

    def test_multiple_bad_signatures_all_found(self, ca, keystore):
        messages, items = self._signed_items(ca, count=16)
        items[0] = (messages[0], items[1][1])
        items[9] = (messages[9], b"\x07" * len(items[9][1]))
        items[15] = (messages[15], items[14][1])
        verdicts = self._verdicts(keystore, "alice", items)
        assert [i for i, ok in enumerate(verdicts) if not ok] == [0, 9, 15]

    def test_structurally_broken_signature_fails_alone(self, ca, keystore):
        messages, items = self._signed_items(ca, count=5)
        items[2] = (messages[2], b"short")
        assert self._verdicts(keystore, "alice", items) == [
            True, True, False, True, True]

    def test_unknown_identity_rejects_everything(self, ca, keystore):
        _, items = self._signed_items(ca)
        assert not any(self._verdicts(keystore, "nobody", items))

    def test_static_view_matches_keystore(self, ca, keystore):
        messages, items = self._signed_items(ca)
        items[3] = (messages[3], items[2][1])
        view = keystore.static_view()
        assert self._verdicts(view, "alice", items) == \
            self._verdicts(keystore, "alice", items)

    def test_empty_batch(self, keystore):
        assert batch_verify_authenticators([], keystore, "alice") == []


class TestBatchVerifyAuthenticators:
    def test_bad_authenticator_is_left_out(self, honest_session):
        machine = "player1"
        auditor = honest_session.make_auditor("player2", machine)
        auths = auditor.authenticators_for(machine)
        assert len(auths) > 4
        from dataclasses import replace
        forged = replace(auths[2], signature=auths[3].signature)
        batch = auths[:2] + [forged] + auths[3:]
        assert batch_verify_authenticators(
            batch, honest_session.keystore, machine) == auths[:2] + auths[3:]

    def test_inconsistent_chain_hash_is_left_out(self, honest_session):
        machine = "player1"
        auditor = honest_session.make_auditor("player2", machine)
        auths = auditor.authenticators_for(machine)
        from dataclasses import replace
        broken = replace(auths[0], chain_hash=b"\x00" * 32)
        assert batch_verify_authenticators(
            [broken] + auths[1:], honest_session.keystore, machine) == auths[1:]


# ---------------------------------------------------------------------------
# Incremental hash chain + chunk partitioning
# ---------------------------------------------------------------------------

class TestIncrementalChain:
    def test_chunks_tile_into_a_full_proof(self, honest_session):
        segment = honest_session.monitors["server"].get_log_segment()
        segments = honest_session.monitors["server"].get_snapshot_segments()
        chunks = partition_segments(segments, 3)
        assert 1 < len(chunks) <= 3
        assert concatenate_segments(chunks).to_dict() == segment.to_dict()
        checkpoint = ChainCheckpoint.genesis()
        for chunk in chunks:
            assert chunk.start_checkpoint() == checkpoint
            checkpoint = verify_chain_incremental(chunk.entries, checkpoint)
        assert checkpoint == segment.end_checkpoint()

    def test_wrong_checkpoint_is_rejected(self, honest_session):
        segments = honest_session.monitors["server"].get_snapshot_segments()
        chunk = segments[1]
        with pytest.raises(HashChainError):
            verify_chain_incremental(chunk.entries, ChainCheckpoint.genesis())

    def test_checkpoint_from_authenticator_resumes_verification(self, honest_session):
        machine = "player1"
        monitor = honest_session.monitors[machine]
        auditor = honest_session.make_auditor("player2", machine)
        auth = sorted(auditor.authenticators_for(machine),
                      key=lambda a: a.sequence)[0]
        suffix = monitor.log.segment(auth.sequence + 1, len(monitor.log))
        end = verify_chain_incremental(
            suffix.entries, ChainCheckpoint(auth.sequence, auth.chain_hash))
        assert end.sequence == len(monitor.log)


# ---------------------------------------------------------------------------
# Recorded sessions with one faulty machine
# ---------------------------------------------------------------------------

def _short_session(seed):
    from repro.avmm.config import Configuration
    from repro.game.session import GameSession, GameSessionSettings
    return GameSession(GameSessionSettings(
        configuration=Configuration.AVMM_RSA768, num_players=2,
        duration=4.0, seed=seed, snapshot_interval=2.0))


def _tampered_session():
    """player1 rewrites a SEND entry after the fact and recomputes its chain."""
    from repro.log.entries import EntryType
    session = _short_session(seed=37)
    session.run()
    machine = "player1"
    monitor = session.monitors[machine]
    # Tamper with an entry that is still covered by an issued
    # authenticator (the uncovered tail of the log is the paper's known
    # detection window), and late enough to land in a later chunk.
    covered = max(auth.sequence for auth in
                  session.make_auditor("server", machine)
                  .authenticators_for(machine))
    victim = [entry for entry in monitor.log.entries_of_type(EntryType.SEND)
              if entry.sequence <= covered][-1]
    monitor.log.tamper_replace_entry(
        victim.sequence, {**victim.content, "payload_size": 4242},
        recompute_chain=True)
    return session, machine


def _cross_boundary_session():
    """player1 logs, after its first snapshot, a second SEND for a message
    that left the AVM before it — with another payload hash.

    The chain, every authenticator, each entry's format and the replay of
    each chunk are all fine (replay is driven by the MAC-layer stream); only
    the whole-log cross-reference check pairs the early MAC-layer entry with
    the late SEND, across the chunk boundary the snapshot makes.
    """
    from repro.log.entries import EntryType
    session = _short_session(seed=43)
    machine = "player1"
    monitor = session.monitors[machine]

    forged = []

    def forge():
        sent = monitor.log.entries_of_type(EntryType.SEND)[0]
        forged.append(monitor.log.append(
            EntryType.SEND, {**sent.content, "payload_hash": "00" * 32}))

    session.scheduler.schedule_at(2.5, forge, label="forge-duplicate-send")
    session.run()
    boundary = monitor.log.entries_of_type(EntryType.SNAPSHOT)[0].sequence
    first_out = next(entry for entry in monitor.log.entries_of_type(EntryType.MACLAYER)
                     if entry.content["direction"] == "out")
    assert first_out.sequence < boundary < forged[0].sequence
    return session, machine


def _evidence_bytes(result):
    evidence = result.evidence
    return json.dumps({
        "machine": evidence.machine, "accuser": evidence.accuser,
        "reason": evidence.reason, "segment": evidence.segment.to_dict(),
        "authenticators": [auth.to_dict() for auth in evidence.authenticators],
        "image": evidence.reference_image_hash.hex(),
        "initial_state": evidence.initial_state,
        "anchor": [entry.to_dict() for entry in evidence.anchor],
        "ends_log": evidence.ends_log,
    }, sort_keys=True).encode("utf-8")


def _is_a_chunk_of(chunked, serial):
    """The chunked audit's evidence is a run of the log the serial audit's
    evidence holds whole, anchored unless it starts the log."""
    entries = chunked.evidence.segment.entries
    whole = serial.evidence.segment.entries
    first = entries[0].sequence - whole[0].sequence
    assert 0 < len(entries) < len(whole)
    assert entries == whole[first:first + len(entries)]
    assert bool(chunked.evidence.anchor) == (first > 0)
    return True


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test instead of hanging it."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _worker_pids():
    return {child.pid for child in multiprocessing.active_children()}


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class TestAuditScheduler:
    def test_workers_1_and_4_produce_identical_verdicts(self, honest_session):
        for machine in honest_session.player_ids + ["server"]:
            serial = AuditScheduler(workers=1).audit_machine(
                honest_session.make_auditor("player2" if machine != "player2"
                                            else "player1", machine),
                honest_session.monitors[machine])
            parallel = AuditScheduler(workers=4).audit_machine(
                honest_session.make_auditor("player2" if machine != "player2"
                                            else "player1", machine),
                honest_session.monitors[machine])
            assert serial.verdict is parallel.verdict is Verdict.PASS
            assert serial.phase is parallel.phase
            assert serial.authenticators_checked == parallel.authenticators_checked
            assert serial.replay_report.events_injected == \
                parallel.replay_report.events_injected

    def test_cheater_chunked_audit_matches_serial_evidence(self, cheater_session):
        machine = "player1"
        serial = cheater_session.audit(machine)
        parallel = AuditScheduler(workers=4).audit_machine(
            cheater_session.make_auditor("server", machine),
            cheater_session.monitors[machine])
        assert parallel.verdict is serial.verdict is Verdict.FAIL
        assert parallel.phase is serial.phase
        assert parallel.reason == serial.reason
        assert parallel.evidence.reason == serial.evidence.reason
        assert _is_a_chunk_of(parallel, serial)
        assert parallel.evidence.verify(
            cheater_session.keystore,
            cheater_session.reference_images[machine])

    def test_tampered_log_chunked_audit_matches_serial_evidence(self):
        session, machine = _tampered_session()
        monitor = session.monitors[machine]
        serial = session.audit(machine)
        parallel = AuditScheduler(workers=4).audit_machine(
            session.make_auditor("server", machine), monitor)
        assert parallel.verdict is serial.verdict is Verdict.FAIL
        assert parallel.phase is serial.phase is AuditPhase.AUTHENTICATOR_CHECK
        assert parallel.reason == serial.reason
        assert _is_a_chunk_of(parallel, serial)
        assert parallel.evidence.verify(session.keystore,
                                        session.reference_images[machine])

    def test_fleet_report_accounting(self, honest_session):
        engine = AuditScheduler(workers=2)
        assignments = [
            AuditAssignment(honest_session.make_auditor("server", machine),
                            honest_session.monitors[machine])
            for machine in honest_session.player_ids]
        report = engine.audit_fleet(assignments)
        assert report.all_passed
        assert set(report.results) == set(honest_session.player_ids)
        assert report.chunk_count >= len(honest_session.player_ids)
        assert report.modelled.serial_seconds > 0
        assert report.modelled.makespan_seconds <= report.modelled.serial_seconds
        assert report.total_cost.signatures_verified > 0
        # each signature verified on its own, each priced once
        verify_seconds = get_scheme("rsa768").costs().verify_seconds
        assert report.total_cost.signature_seconds == pytest.approx(
            verify_seconds * report.total_cost.signatures_verified)
        for machine_report in report.machine_reports.values():
            assert machine_report.unchunkable_reason is None

    def test_fleet_modelled_speedup_at_four_workers(self):
        from repro.service.fleet import build_fleet
        fleet = build_fleet(num_machines=8, duration=8.0)
        serial = AuditScheduler(workers=1).audit_fleet(fleet.assignments())
        parallel = AuditScheduler(workers=4).audit_fleet(fleet.assignments())
        verdicts = {machine: result.verdict
                    for machine, result in serial.results.items()}
        assert set(verdicts.values()) == {Verdict.PASS}
        assert {machine: result.verdict
                for machine, result in parallel.results.items()} == verdicts
        # near-linear: eight independent logs spread over four workers
        assert parallel.modelled.speedup >= 2.5

    def test_executor_modes_agree(self, honest_session):
        machine = "player1"
        results = {}
        for executor in ("inline", "thread", "process"):
            engine = AuditScheduler(workers=2, executor=executor)
            results[executor] = engine.audit_machine(
                honest_session.make_auditor("server", machine),
                honest_session.monitors[machine])
        verdicts = {result.verdict for result in results.values()}
        assert verdicts == {Verdict.PASS}
        counts = {result.authenticators_checked for result in results.values()}
        assert len(counts) == 1

    def test_auditor_workers_parameter_uses_engine(self, honest_session):
        from repro.audit.auditor import Auditor
        machine = "player1"
        auditor = Auditor("server", honest_session.keystore,
                          honest_session.reference_images[machine], workers=4)
        for peer_identity, peer in honest_session.monitors.items():
            if peer_identity != machine:
                auditor.collect_from_peer(peer, machine)
        assert auditor.engine is not None
        result = auditor.audit(honest_session.monitors[machine])
        assert result.verdict is Verdict.PASS

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AuditScheduler(workers=0)
        with pytest.raises(ValueError):
            AuditScheduler(executor="gpu")

    def test_duplicate_fleet_targets_rejected(self, honest_session):
        machine = "player1"
        assignments = [
            AuditAssignment(honest_session.make_auditor("player2", machine),
                            honest_session.monitors[machine]),
            AuditAssignment(honest_session.make_auditor("server", machine),
                            honest_session.monitors[machine]),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            AuditScheduler(workers=2).audit_fleet(assignments)

    def test_corrupt_stored_snapshot_is_handed_to_the_serial_front_end(self):
        # A target whose *stored* snapshot does not verify cannot be chunked,
        # but the serial audit replays from the start and does not need it —
        # the engine must produce the same verdict as workers=1, not crash.
        session = _short_session(seed=41)
        session.run()
        machine = "player1"
        monitor = session.monitors[machine]
        snapshot = monitor.snapshots.get(1)
        snapshot.state_root = b"\x00" * 32
        serial = session.audit(machine)
        engine = AuditScheduler(workers=4)
        report = engine.audit_fleet([AuditAssignment(
            session.make_auditor("server", machine), monitor)])
        assert "does not match the root" in \
            report.machine_reports[machine].unchunkable_reason
        assert report.results[machine].verdict is serial.verdict
        assert report.results[machine].phase is serial.phase


# ---------------------------------------------------------------------------
# The execution layer: one warm pool, overlapped with the parent's work
# ---------------------------------------------------------------------------

#: more chunks than any session here has snapshots: the finest chunking
FINEST = dict(chunks_per_machine=8)


def _fleet_audit(session, machine, **engine_args):
    report = AuditScheduler(**engine_args).audit_fleet([AuditAssignment(
        session.make_auditor("server", machine), session.monitors[machine])])
    return report, report.machine_reports[machine]


class TestWarmPool:
    @pytest.fixture(autouse=True)
    def no_pool_yet(self):
        """Whatever ran before, each test here starts with no worker alive."""
        shutdown_worker_pools()
        assert not _worker_pids()

    def test_two_schedulers_share_one_pool_and_its_workers(self, honest_session):
        starts = pool_starts_total()
        ran_in = []
        for _ in range(2):
            report, machine_report = _fleet_audit(
                honest_session, "player1", workers=2, executor="process")
            assert report.executor_used == "process"
            assert machine_report.result.verdict is Verdict.PASS
            pids = {outcome.worker_pid
                    for outcome in machine_report.chunk_outcomes}
            # run_chunk really ran in worker processes, not in this one
            assert pids and pids <= _worker_pids() and os.getpid() not in pids
            ran_in.append(_worker_pids())
        assert ran_in[0] == ran_in[1] and len(ran_in[0]) == 2
        assert pool_starts_total() - starts == 1

    def test_killed_worker_costs_one_rebuild_and_no_verdict(self, honest_session):
        _, before = _fleet_audit(honest_session, "player1",
                                 workers=2, executor="process")
        starts = pool_starts_total()
        victim = sorted(_worker_pids())[0]
        os.kill(victim, signal.SIGKILL)
        with _deadline(60):
            _, after = _fleet_audit(honest_session, "player1",
                                    workers=2, executor="process")
        assert after.result == before.result
        assert after.result.verdict is Verdict.PASS
        assert pool_starts_total() - starts == 1
        assert victim not in _worker_pids() and len(_worker_pids()) == 2
        # and the rebuilt pool is the warm one from here on
        _fleet_audit(honest_session, "player1", workers=2, executor="process")
        assert pool_starts_total() - starts == 1

    @pytest.mark.parametrize("faulty, phase", [
        (_tampered_session, AuditPhase.AUTHENTICATOR_CHECK),
        (_cross_boundary_session, AuditPhase.SYNTACTIC_CHECK),
    ])
    def test_conviction_on_the_warm_path(self, faulty, phase):
        """Evidence is identical at every worker count and on every executor
        because it is the failing chunk, not because a serial pass rebuilt
        it; with one worker the chunk is the whole log, the serial audit's."""
        session, machine = faulty()
        # warm: the process pool has served an audit before this one
        _fleet_audit(session, "server", workers=2, executor="process")
        results = {
            name: _fleet_audit(session, machine, **engine_args)[1].result
            for name, engine_args in {
                # one chunk per snapshot: the fault is in the second
                "process": dict(workers=2, executor="process", **FINEST),
                "thread": dict(workers=2, executor="thread", **FINEST),
                "inline": dict(workers=2, executor="inline", **FINEST),
                "workers=1": dict(workers=1),
            }.items()}
        serial = session.audit(machine, "server")
        for name, result in results.items():
            assert result.verdict is Verdict.FAIL, name
            assert result.phase is phase, name
            assert result.evidence.verify(
                session.keystore, session.reference_images[machine]), name
        assert _evidence_bytes(results["workers=1"]) == _evidence_bytes(serial)
        assert results["workers=1"].reason == serial.reason
        assert results["process"] == results["thread"] == results["inline"]
        assert _is_a_chunk_of(results["process"], serial)
        assert results["process"].evidence.anchor    # the second chunk's

    def test_cross_boundary_violation_is_the_later_chunks_to_find(self):
        """A second SEND, forged in a later chunk for a message that left in
        an earlier one.  The serial audit pairs it with the early MAC-layer
        entry ("disagree about the payload"); a chunk sees a SEND that never
        left the AVM — the monitor logs the two in one step, so no chunk
        boundary separates an honest pair."""
        session, machine = _cross_boundary_session()
        assert "disagree about the payload" in \
            session.audit(machine, "server").reason
        _, machine_report = _fleet_audit(session, machine, workers=2,
                                         executor="process", **FINEST)
        first, second = machine_report.chunk_outcomes[:2]
        assert first.ok and second.phase is AuditPhase.SYNTACTIC_CHECK
        assert machine_report.unchunkable_reason is None
        assert "was sent" in machine_report.result.reason
        assert "never left the AVM" in machine_report.result.reason

    def test_unparseable_content_is_a_verdict_not_an_exception(self):
        # Stored bytes that do not parse end in the same conviction —
        # the chunk holding them fails its chain check — whatever the
        # executor, and never in a LogFormatError out of the engine.
        from repro.log.entries import EntryType, lazy_entry
        session = _short_session(seed=44)
        session.run()
        machine = "player1"
        entries = session.monitors[machine].log._entries
        position, victim = [
            (position, entry) for position, entry in enumerate(entries)
            if entry.entry_type is EntryType.SEND][-3]
        entries[position] = lazy_entry(
            victim.sequence, victim.entry_type,
            b"\xee" + victim.encoded_content()[1:],   # unknown content tag
            victim.chain_hash, victim.previous_hash, victim.timestamp)
        results = [_fleet_audit(session, machine, **engine_args)[1].result
                   for engine_args in (dict(workers=2, executor="process"),
                                       dict(workers=2, executor="inline"),
                                       dict(workers=1))]
        for result in results:
            assert result.verdict is Verdict.FAIL
            assert result.phase is AuditPhase.AUTHENTICATOR_CHECK
            assert result.reason == results[0].reason
            assert f"entry {victim.sequence} does not hash" in result.reason
            assert result.evidence.verify(session.keystore,
                                          session.reference_images[machine])
        assert results[0].cost == results[1].cost
        assert results[0].evidence.segment.entries \
            == results[1].evidence.segment.entries

    def test_forked_child_does_not_reuse_the_parents_pool(self, honest_session):
        _fleet_audit(honest_session, "player1", workers=2, executor="process")
        parents_workers = _worker_pids()
        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the forked child
            status = 1
            try:
                os.close(read_end)
                report, machine_report = _fleet_audit(
                    honest_session, "player1", workers=2, executor="process")
                os.write(write_end, json.dumps({
                    "verdict": machine_report.result.verdict.value,
                    "pool_starts": pool_starts_total(),
                    "pids": sorted({outcome.worker_pid for outcome
                                    in machine_report.chunk_outcomes}),
                }).encode("utf-8"))
                shutdown_worker_pools()
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with _deadline(60), os.fdopen(read_end, "rb") as pipe:
            told = json.loads(pipe.read())
            _, status = os.waitpid(child, 0)
        assert status == 0
        assert told["verdict"] == "pass"
        assert told["pool_starts"] == 1            # its own, counted from zero
        assert told["pids"] and not set(told["pids"]) & parents_workers
        assert _worker_pids() == parents_workers   # ours is untouched

    def test_shutdown_is_idempotent_and_the_next_audit_starts_fresh(
            self, honest_session):
        _fleet_audit(honest_session, "player1", workers=2, executor="process")
        _fleet_audit(honest_session, "player1", workers=2, executor="thread")
        old_workers = _worker_pids()
        assert old_workers
        shutdown_worker_pools()
        shutdown_worker_pools()
        assert not _worker_pids()
        starts = pool_starts_total()
        _, machine_report = _fleet_audit(honest_session, "player1",
                                         workers=2, executor="process")
        assert machine_report.result.verdict is Verdict.PASS
        assert pool_starts_total() - starts == 1
        assert _worker_pids() and not _worker_pids() & old_workers

    def test_concurrent_callers_start_one_pool(self, honest_session):
        import threading
        starts = pool_starts_total()
        verdicts = []

        def audit():
            verdicts.append(_fleet_audit(
                honest_session, "player1", workers=2,
                executor="process")[1].result.verdict)

        callers = [threading.Thread(target=audit) for _ in range(6)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert not any(caller.is_alive() for caller in callers)
        assert verdicts == [Verdict.PASS] * 6
        assert pool_starts_total() - starts == 1
        assert len(_worker_pids()) == 2

    def test_report_and_telemetry_of_a_run(self, honest_session):
        from repro.audit.auditor import Auditor
        machine = "player1"
        starts = pool_starts_total()
        for _ in range(2):
            auditor = Auditor("server", honest_session.keystore,
                              honest_session.reference_images[machine])
            for peer_identity, peer in honest_session.monitors.items():
                if peer_identity != machine:
                    auditor.collect_from_peer(peer, machine)
            report = AuditScheduler(workers=2, executor="process").audit_fleet(
                [AuditAssignment(auditor, honest_session.monitors[machine])])
            assert report.executor_used == "process"
            assert report.results[machine].verdict is Verdict.PASS
        # two runs on fresh schedulers, one pool start: the pool stays warm
        assert pool_starts_total() - starts == 1

    def test_auto_probes_the_image_not_the_log(self, honest_session):
        from dataclasses import replace
        machine = "player1"
        report, _ = _fleet_audit(honest_session, machine, workers=2)
        assert report.executor_used == "process"
        # An image whose guest factory is a closure cannot reach a process.
        reference = honest_session.reference_images[machine]
        factory = reference.guest_factory
        auditor = honest_session.make_auditor("server", machine)
        auditor.reference_image = replace(
            reference, guest_factory=lambda *a, **kw: factory(*a, **kw))
        report = AuditScheduler(workers=2).audit_fleet(
            [AuditAssignment(auditor, honest_session.monitors[machine])])
        assert report.executor_used == "thread"
        assert report.all_passed


class TestParallelSpotChecker:
    def test_parallel_spot_check_matches_serial(self, honest_session):
        machine = "server"
        serial_checker = SpotChecker(honest_session.make_auditor("player1", machine))
        parallel_checker = SpotChecker(
            honest_session.make_auditor("player1", machine),
            engine=AuditScheduler(workers=4))
        serial_results = serial_checker.check_all_chunks(
            honest_session.monitors[machine], k=1)
        parallel_results = parallel_checker.check_all_chunks(
            honest_session.monitors[machine], k=1)
        assert len(serial_results) == len(parallel_results) >= 1
        for serial_result, parallel_result in zip(serial_results, parallel_results):
            assert serial_result.chunk_start_index == parallel_result.chunk_start_index
            assert serial_result.ok and parallel_result.ok
            assert serial_result.snapshot_bytes == parallel_result.snapshot_bytes
            assert serial_result.log_bytes == parallel_result.log_bytes


class TestChunkJobPickling:
    def test_jobs_for_game_sessions_pickle(self, honest_session):
        import pickle
        machine = "player1"
        engine = AuditScheduler(workers=4)
        target = honest_session.monitors[machine]
        audit = _MachineAudit(honest_session.make_auditor("server", machine),
                              target, engine._chunks(target))
        jobs = list(engine._plan(audit, _ChunkRun("inline", 1)))
        assert len(jobs) > 1
        job = pickle.loads(pickle.dumps(jobs[-1]))
        outcome = run_chunk(job)
        assert outcome.ok, outcome.reason
