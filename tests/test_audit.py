"""Tests for auditing: syntactic checks, full audits, evidence, spot checks,
online audits and the multi-party protocol.

These are integration-level tests that reuse the session fixtures from
``conftest.py`` (a short honest game and a short game with a cheater).
"""

import pytest

from repro.audit.evidence import Evidence
from repro.audit.multiparty import (
    ChallengeCoordinator,
    collect_authenticators_for,
    distribute_evidence,
)
from repro.audit.spot_check import SpotChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditPhase, Verdict
from repro.errors import EvidenceError
from repro.game.cheats.external import LogTamperingAdversary, PacketForgingAdversary, boost_fire_commands
from repro.log.codec import modelled_compressed_log_bytes
from repro.log.entries import EntryType


class TestSyntacticCheck:
    def test_honest_log_passes(self, honest_session):
        checker = SyntacticChecker(honest_session.keystore)
        segment = honest_session.monitors["server"].get_log_segment()
        assert len(segment.entries) > 100
        assert segment.entries_of_type(EntryType.RECV)   # signatures to check
        report = checker.check(segment)
        assert report.ok, report.problems

    def test_detects_forged_sender_signature(self, honest_session):
        # Work on a *copy* of the segment so the shared session stays pristine.
        from dataclasses import replace
        from repro.log.segments import LogSegment
        segment = honest_session.monitors["player1"].get_log_segment()
        entries = list(segment.entries)
        index = next(i for i, e in enumerate(entries)
                     if e.entry_type is EntryType.RECV)
        tampered_content = dict(entries[index].content)
        tampered_content["sender_signature"] = "00" * 96
        entries[index] = replace(entries[index], content=tampered_content)
        tampered = LogSegment(machine=segment.machine, entries=entries,
                              start_hash=segment.start_hash)
        report = SyntacticChecker(honest_session.keystore).check(tampered)
        assert not report.ok
        assert any("signature" in problem for problem in report.problems)

    def test_detects_missing_recv_for_injected_packet(self, honest_session):
        from repro.log.segments import LogSegment
        segment = honest_session.monitors["player2"].get_log_segment()
        # Drop a RECV entry: the corresponding MAC-layer injection is orphaned.
        index = next(i for i, e in enumerate(segment.entries)
                     if e.entry_type is EntryType.RECV)
        entries = segment.entries[:index] + segment.entries[index + 1:]
        tampered = LogSegment(machine=segment.machine, entries=entries,
                              start_hash=segment.start_hash)
        report = SyntacticChecker(honest_session.keystore).check(tampered)
        assert not report.ok


class TestFullAudit:
    def test_honest_players_pass(self, honest_session):
        results = honest_session.audit_all()
        for player, result in results.items():
            assert result.verdict is Verdict.PASS, result.summary()
            assert result.authenticators_checked > 0
            audited = honest_session.monitors[player].get_log_segment()
            assert result.cost.log_bytes_downloaded == audited.size_bytes()
            assert 0 < modelled_compressed_log_bytes(audited) \
                < result.cost.log_bytes_downloaded
            assert result.cost.semantic_seconds > 0

    def test_server_audit_passes(self, honest_session):
        result = honest_session.audit("server")
        assert result.verdict is Verdict.PASS

    def test_cheater_fails_replay(self, cheater_session):
        results = cheater_session.audit_all()
        assert results["player1"].verdict is Verdict.FAIL
        assert results["player1"].phase is AuditPhase.SEMANTIC_CHECK
        assert results["player1"].evidence is not None
        assert results["player2"].verdict is Verdict.PASS

    def test_evidence_verified_by_third_party(self, cheater_session):
        result = cheater_session.audit("player1")
        evidence = result.evidence
        # A third party (the server operator) verifies with its own keystore
        # and its own copy of the reference image.
        confirmed = evidence.verify(cheater_session.keystore,
                                    cheater_session.reference_images["player1"])
        assert confirmed

    def test_evidence_about_honest_player_rejected(self, honest_session):
        # Fabricated evidence that merely *claims* a fault does not verify:
        # the log replays cleanly against the reference image.
        target = "player1"
        auditor = honest_session.make_auditor("player2", target)
        segment = honest_session.monitors[target].get_log_segment()
        fabricated = Evidence(
            machine=target, accuser="player2", reason="made up",
            segment=segment,
            authenticators=auditor.authenticators_for(target),
            reference_image_hash=honest_session.reference_images[target].image_hash())
        assert not fabricated.verify(honest_session.keystore,
                                     honest_session.reference_images[target])

    def test_evidence_with_wrong_image_rejected(self, cheater_session):
        result = cheater_session.audit("player1")
        with pytest.raises(EvidenceError):
            result.evidence.verify(cheater_session.keystore,
                                   cheater_session.reference_images["player2"])

    @pytest.mark.slow
    def test_log_tampering_caught_by_authenticator_check(self):
        # A dedicated (mutable) session: Bob rewrites his own log after the fact.
        from repro.avmm.config import Configuration
        from repro.game.session import GameSession, GameSessionSettings
        session = GameSession(GameSessionSettings(
            configuration=Configuration.AVMM_RSA768, num_players=2,
            duration=4.0, seed=31, snapshot_interval=None))
        session.run()
        target = "player1"
        monitor = session.monitors[target]
        adversary = LogTamperingAdversary(monitor)
        victim_entry = monitor.log.entries_of_type(EntryType.SEND)[0]
        adversary.rewrite_entry(victim_entry.sequence,
                                {**victim_entry.content, "payload_size": 9999},
                                recompute_chain=True)
        result = session.audit(target)
        assert result.verdict is Verdict.FAIL
        assert result.phase is AuditPhase.AUTHENTICATOR_CHECK
        assert result.evidence.verify(session.keystore,
                                      session.reference_images[target])

    def test_suspect_unresponsive_machine(self, honest_session):
        auditor = honest_session.make_auditor("player1", "player2")
        result = auditor.suspect("player2")
        assert result.verdict is Verdict.SUSPECTED
        assert result.evidence.unanswered_challenge
        assert result.evidence.verify(honest_session.keystore,
                                      honest_session.reference_images["player2"])


class TestSpotChecking:
    def test_chunk_audits_pass_for_honest_machine(self, honest_session):
        target = "server"
        auditor = honest_session.make_auditor("player1", target)
        checker = SpotChecker(auditor)
        segments = honest_session.monitors[target].get_snapshot_segments()
        assert len(segments) >= 2
        result = checker.check_chunk(honest_session.monitors[target], 1, 1,
                                     segments=segments)
        assert result.ok
        assert result.snapshot_bytes > 0  # memory + disk snapshot transferred

    def test_chunk_starting_at_log_beginning_needs_no_snapshot(self, honest_session):
        target = "server"
        checker = SpotChecker(honest_session.make_auditor("player1", target))
        result = checker.check_chunk(honest_session.monitors[target], 0, 1)
        assert result.ok
        assert result.snapshot_bytes == 0

    def test_bigger_chunks_cost_more(self, honest_session):
        target = "server"
        checker = SpotChecker(honest_session.make_auditor("player1", target))
        segments = honest_session.monitors[target].get_snapshot_segments()
        small = checker.check_chunk(honest_session.monitors[target], 0, 1,
                                    segments=segments)
        large = checker.check_chunk(honest_session.monitors[target], 0, len(segments),
                                    segments=segments)
        assert large.log_bytes > small.log_bytes
        assert large.replay_seconds >= small.replay_seconds

    def test_out_of_range_chunk_rejected(self, honest_session):
        target = "server"
        checker = SpotChecker(honest_session.make_auditor("player1", target))
        from repro.errors import SegmentError
        with pytest.raises(SegmentError):
            checker.check_chunk(honest_session.monitors[target], 0, 999)


class TestMultiParty:
    def test_collect_authenticators_from_peers(self, honest_session):
        holders = [honest_session.monitors[i] for i in honest_session.identities
                   if i != "player1"]
        collected = collect_authenticators_for("player1", holders)
        assert collected
        assert all(auth.machine == "player1" for auth in collected)

    def test_challenge_blocks_until_answered(self):
        coordinator = ChallengeCoordinator()
        challenge = coordinator.issue("alice", "bob", "produce log segment 1..100")
        assert coordinator.is_blocked("bob")
        assert not coordinator.is_blocked("charlie")
        answered = coordinator.respond("bob", "here is the segment")
        assert challenge in answered
        assert not coordinator.is_blocked("bob")
        assert challenge.response == "here is the segment"

    def test_evidence_distribution(self, cheater_session):
        result = cheater_session.audit("player1")
        verifiers = [("player2", cheater_session.keystore),
                     ("server", cheater_session.keystore)]
        verdicts = distribute_evidence(result.evidence, verifiers,
                                       cheater_session.reference_images["player1"])
        assert verdicts == {"player2": True, "server": True}


class TestExternalAdversaries:
    @pytest.mark.slow
    def test_packet_forging_detected_even_without_image_modification(self):
        # Class-2 detection: the guest image is the reference image, but the
        # machine's outgoing packets are rewritten outside the AVM.
        from repro.avmm.config import Configuration
        from repro.game.session import GameSession, GameSessionSettings
        settings = GameSessionSettings(configuration=Configuration.AVMM_RSA768,
                                       num_players=2, duration=5.0, seed=21,
                                       snapshot_interval=None)
        session = GameSession(settings)
        adversary = PacketForgingAdversary(session.monitors["player1"],
                                           boost_fire_commands)
        session.run()
        assert adversary.packets_forged > 0
        result = session.audit("player1")
        assert result.verdict is Verdict.FAIL
        assert session.audit("player2").verdict is Verdict.PASS
