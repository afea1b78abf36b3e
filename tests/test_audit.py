"""Tests for auditing: syntactic checks, full audits, evidence, spot checks,
online audits and the multi-party protocol.

These are integration-level tests that reuse the session fixtures from
``conftest.py`` (a short honest game and a short game with a cheater).
"""

import json

import pytest

from repro.audit.auditor import Auditor
from repro.audit.evidence import Evidence
from repro.audit.multiparty import (EquivocationProof, distribute_evidence,
                                    find_equivocation)
from repro.audit.online import OnlineAuditor
from repro.audit.spot_check import SpotChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditPhase, Verdict
from repro.crypto import hashing
from repro.crypto.keys import KeyStore
from repro.errors import EvidenceError, LogFormatError
from repro.vm.guest import PacketOutput
from repro.log.authenticator import make_authenticator
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
        victim_entry = monitor.log.entries_of_type(EntryType.SEND)[0]
        monitor.log.tamper_replace_entry(
            victim_entry.sequence, {**victim_entry.content, "payload_size": 9999},
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
        auditor = honest_session.make_auditor("player2", "player1")
        held = auditor.authenticators_for("player1")
        assert held
        assert all(auth.machine == "player1" for auth in held)
        # the server's are among them: each party collects from every peer
        server = honest_session.monitors["server"].authenticators_from("player1")
        assert server and {a.sequence for a in server} <= {a.sequence for a in held}

    def test_evidence_distribution(self, cheater_session):
        result = cheater_session.audit("player1")
        verifiers = [("player2", cheater_session.keystore),
                     ("server", cheater_session.keystore)]
        verdicts = distribute_evidence(result.evidence, verifiers,
                                       cheater_session.reference_images["player1"])
        assert verdicts == {"player2": True, "server": True}


def _keys(authenticators):
    return [(a.sequence, a.chain_hash, a.signature) for a in authenticators]


class TestOnlineSources:
    """An online pass checks the log against what the target's peers hold
    (Section 4.6), and collecting again adds no duplicate."""

    def test_a_live_pass_checks_the_peers_authenticators(self, honest_session):
        target = "player2"
        auditor = Auditor("player1", honest_session.keystore,
                          honest_session.reference_images[target])
        peers = [monitor for name, monitor in honest_session.monitors.items()
                 if name != target]
        record = OnlineAuditor(auditor, honest_session.monitors[target],
                               honest_session.scheduler, peers).run_once()
        held = {key for peer in peers
                for key in _keys(peer.authenticators_from(target))}
        assert record.verdict is Verdict.PASS
        assert record.result.authenticators_checked == len(held) > 0

    def test_passes_during_a_run_hold_each_authenticator_once(self):
        from repro.avmm.config import Configuration
        from repro.game.session import GameSession, GameSessionSettings
        session = GameSession(GameSessionSettings(
            configuration=Configuration.AVMM_RSA768, num_players=2,
            duration=8.0, seed=42, snapshot_interval=None))
        target = "player1"
        auditor = Auditor("server", session.keystore,
                          session.reference_images[target])
        peers = [monitor for name, monitor in session.monitors.items()
                 if name != target]
        online = OnlineAuditor(auditor, session.monitors[target],
                               session.scheduler, peers, interval=2.0)
        online.start()
        session.run()
        checked = [r.result.authenticators_checked for r in online.records]
        assert len(checked) >= 3 and 0 < checked[0] < checked[-1]
        assert checked == sorted(checked)
        held = _keys(auditor.authenticators_for(target))
        assert len(held) == len(set(held)) == checked[-1]

    def test_collecting_what_is_held_adds_nothing(self, honest_session):
        auditor = honest_session.make_auditor("player1", "player2")
        before = auditor.authenticators_for("player2")
        for peer in honest_session.monitors.values():
            assert auditor.collect_from_peer(peer, "player2") == 0
        assert auditor.authenticators_for("player2") == before


class PacketForgingAdversary:
    """Rewrites selected outgoing packets *after* the guest produced them.

    This models a cheat implemented entirely outside the AVM (or a tampered
    AVMM, Section 3.4): the guest's execution is untouched, but the
    machine's network-visible behaviour no longer corresponds to it.  The
    SEND entries then describe packets the reference execution never
    produced, so replay diverges — a class-2 detection that works no matter
    how the cheat is implemented.
    """

    def __init__(self, monitor, transform) -> None:
        self.transform = transform
        self.packets_forged = 0
        self._original_send = monitor._send_guest_packet
        monitor._send_guest_packet = self._forged_send

    def _forged_send(self, packet: PacketOutput,
                     compute_seconds: float = 0.0) -> None:
        forged_payload = self.transform(packet.payload)
        if forged_payload != packet.payload:
            self.packets_forged += 1
        self._original_send(PacketOutput(destination=packet.destination,
                                         payload=forged_payload),
                            compute_seconds)


def boost_fire_commands(payload: bytes) -> bytes:
    """Inject extra fire commands into command packets."""
    try:
        packet = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return payload
    if packet.get("type") != "commands":
        return payload
    packet["commands"] = packet.get("commands", []) + [{"action": "fire"}] * 2
    return json.dumps(packet, sort_keys=True, separators=(",", ":")).encode("utf-8")


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


# -- EquivocationProof wire form: third-party verifiable ---------------------

@pytest.fixture(scope="module")
def proof_parts(ca):
    """A genuine equivocation: two valid signatures on conflicting hashes."""
    keypair = ca.issue("mallory")
    keystore = KeyStore(ca)
    keystore.add_certificate(keypair.certificate)
    previous = hashing.hash_bytes(b"prefix")
    auths = []
    for branch in (b"left", b"right"):
        content = hashing.hash_bytes(b"content:" + branch)
        chain = hashing.hash_concat(previous, hashing.encode_int(9),
                                    "send".encode("utf-8"), content)
        auths.append(make_authenticator(keypair, sequence=9, chain_hash=chain,
                                        previous_hash=previous,
                                        entry_type="send",
                                        content_hash=content))
    proof = find_equivocation(auths, keystore)
    assert proof is not None and proof.verify(keystore)
    return proof, keystore


class TestEquivocationProofWire:
    def test_round_trip_preserves_verification(self, proof_parts):
        proof, keystore = proof_parts
        wire = json.dumps(proof.to_dict(), sort_keys=True)
        received = EquivocationProof.from_dict(json.loads(wire))
        assert received == proof
        assert received.verify(keystore)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("machine", "alice"),
        lambda d: d.__setitem__("sequence", 10),
        lambda d: d["first"].__setitem__("chain_hash",
                                         d["second"]["chain_hash"]),
        lambda d: d["first"].__setitem__("signature",
                                         d["second"]["signature"]),
        lambda d: d["second"].__setitem__("sequence", 10),
        lambda d: d["second"].__setitem__("machine", "alice"),
        lambda d: d["second"].__setitem__("content_hash",
                                          d["first"]["content_hash"]),
    ])
    def test_any_mutated_field_fails_verification(self, proof_parts, mutate):
        proof, keystore = proof_parts
        payload = json.loads(json.dumps(proof.to_dict()))
        mutate(payload)
        assert not EquivocationProof.from_dict(payload).verify(keystore)

    def test_malformed_payloads_raise_log_format_error(self, proof_parts):
        proof, _ = proof_parts
        good = proof.to_dict()
        for breakage in (
                {**good, "kind": "not-a-proof"},
                {**good, "sequence": "not-an-int"},
                {key: value for key, value in good.items() if key != "first"},
                {**good, "second": {"machine": "mallory"}},
        ):
            with pytest.raises(LogFormatError):
                EquivocationProof.from_dict(breakage)
