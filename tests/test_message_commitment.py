"""One signature per message: the authenticator *is* the commitment (§4.3).

An envelope carries no signature of its own.  The sender's authenticator
``(s_i, h_i, sigma(s_i || h_i))`` travels with ``h_{i-1}``; the receiver
recomputes ``h_i`` from the SEND content the message itself determines and
verifies the signature over that, logs ``s_i``, ``h_{i-1}`` and the
signature in its RECV entry, and an auditor repeats the very same
computation from the log.  The original sender does the mirror-image check
on every acknowledgment — which is the same signature again: an envelope's
ack run chains every RECV entry its sender still owes the recipient to the
entry that was signed (docs/message-protocol.md).  These tests pin what that
buys:

* a receiver cannot rewrite a logged message, even with its own chain
  recomputed — the sender's signature stops verifying and the syntactic
  check names the entry;
* a *valid* authenticator lifted from another message of the same sender
  proves nothing about this one;
* an ack that commits to some other message's RECV acknowledges nothing and
  is never filed as evidence — alone or as one link of a cumulative run,
  which is accepted or refused whole;
* a sender stops retransmitting ``m`` only once it holds a signature that,
  by hashes it recomputed itself, commits the peer to ``RECV(m)``;
* holding an acknowledgment for a carrier never causes a retransmission,
  and a lost carrier is repaired by the retransmission that already exists;
* ``avmm-nosig`` goes through the same code with empty signatures.
"""

from __future__ import annotations

import pytest

from repro.audit.auditor import Auditor
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import Verdict
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import build_trust
from repro.log.authenticator import (MAX_ACK_RUN_LINKS, Authenticator,
                                     build_run, recv_commitment)
from repro.log.entries import EntryType, recv_content
from repro.log.hashchain import verify_chain_incremental
from repro.network.channel import RETRANSMIT_INTERVAL
from repro.log.tamper_evident import TamperEvidentLog
from repro.network.message import MessageKind, NetworkMessage
from repro.network.simnet import SimulatedNetwork
from repro.sim.scheduler import Scheduler
from repro.vm.events import PacketDelivery
from repro.workloads.echo import make_echo_image, make_ping_sender_image


SEED_ID = "seed-1"


class Pair:
    """alpha and beta run echo guests; charlie is a silent third endpoint."""

    def __init__(self, configuration=Configuration.AVMM_RSA768):
        self.scheduler = Scheduler()
        self.network = SimulatedNetwork(self.scheduler)
        config = AvmmConfig.for_configuration(configuration,
                                              snapshot_interval=None)
        _, self.keypairs, self.keystore = build_trust(
            ["alpha", "beta", "charlie"], scheme=config.signature_scheme)
        self.image = make_echo_image()
        self.alpha, self.beta = (
            AccountableVMM(identity, self.image, config, self.scheduler,
                           self.network, keypair=self.keypairs[identity],
                           keystore=self.keystore)
            for identity in ("alpha", "beta"))
        self.to_charlie = []
        self.network.register("charlie", self.to_charlie.append)
        self.alpha.start()
        self.beta.start()

    def bounce(self, rounds_until: float = 0.05) -> None:
        """Start an echo volley with one unauthenticated packet "from alpha"."""
        self.beta.on_network_message(NetworkMessage(
            source="alpha", destination="beta", payload=b"ping",
            message_id=SEED_ID))
        self.scheduler.run_until(rounds_until)

    def alpha_sends_to_charlie(self, payload: bytes) -> NetworkMessage:
        """Make alpha's guest send ``payload`` to the silent endpoint."""
        before = len(self.to_charlie)
        self.alpha.deliver_event(PacketDelivery(
            source="charlie", payload=payload,
            message_id=f"from-charlie-{before}"))
        self.scheduler.run_until(self.scheduler.clock.now + 0.01)
        assert len(self.to_charlie) == before + 1
        return self.to_charlie[-1]


def first_recv(monitor):
    return next(e for e in monitor.log if e.entry_type is EntryType.RECV
                and e.content["message_id"] != SEED_ID)


def problems_naming(report, entry) -> list:
    return [p for p in report.problems if p.startswith(f"entry {entry.sequence}:")]


class TestReceiverCannotRewriteWhatItLogged:
    def test_honest_recv_entries_verify(self, monkeypatch):
        pair = Pair()
        pair.bounce()
        verified = []
        real_verify = Authenticator.verify
        monkeypatch.setattr(
            Authenticator, "verify",
            lambda auth, keystore: verified.append(auth) or real_verify(auth, keystore))
        for monitor in (pair.alpha, pair.beta):
            del verified[:]
            report = SyntacticChecker(pair.keystore).check(
                monitor.get_log_segment())
            assert report.ok, report.problems
            signed = sum(1 for e in monitor.log
                         if e.entry_type is EntryType.RECV
                         and e.content["message_id"] != SEED_ID)
            # every signed RECV's commitment was rebuilt and verified
            assert len(verified) == signed > 0

    @pytest.mark.parametrize("field,forge", [
        ("payload", lambda v: (b"pong" + bytes.fromhex(v)[4:]).hex()),
        ("message_id", lambda v: v[:-1] + ("0" if v[-1] != "0" else "1")),
        ("payload_size", lambda v: v + 1),
        ("sender_sequence", lambda v: v + 1),
        ("sender_previous_hash", lambda v: "00" * 32),
    ])
    def test_rewritten_field_with_recomputed_chain_is_named(self, field, forge):
        pair = Pair()
        pair.bounce()
        victim = first_recv(pair.alpha)
        forged = dict(victim.content)
        forged[field] = forge(forged[field])
        assert forged != victim.content
        # The receiver rewrites its own entry and recomputes its whole chain:
        # the log is internally consistent again.
        pair.alpha.log.tamper_replace_entry(victim.sequence, forged,
                                            recompute_chain=True)
        segment = pair.alpha.get_log_segment()
        verify_chain_incremental(segment.entries, segment.start_checkpoint())
        report = SyntacticChecker(pair.keystore).check(segment)
        named = problems_naming(report, victim)
        assert named and "beta" in named[0], report.problems

    @pytest.mark.parametrize("field,value", [
        ("sender_sequence", -1), ("sender_sequence", 1 << 64),
        ("sender_previous_hash", "zz"), ("payload", 7), ("payload_size", "x"),
    ])
    def test_unparseable_commitment_is_a_report_line_not_an_exception(
            self, field, value):
        pair = Pair()
        pair.bounce()
        victim = first_recv(pair.alpha)
        pair.alpha.log.tamper_replace_entry(
            victim.sequence, dict(victim.content, **{field: value}),
            recompute_chain=True)
        report = SyntacticChecker(pair.keystore).check(
            pair.alpha.get_log_segment())
        assert problems_naming(report, victim), report.problems

    def test_the_logged_commitment_is_the_senders_authenticator(self):
        # What the RECV entry lets an auditor rebuild is exactly the
        # authenticator the sender issued for its SEND entry — sequence,
        # chain hash and signature — and what alpha filed as evidence.
        pair = Pair()
        pair.bounce()
        recv = first_recv(pair.alpha)
        rebuilt = recv_commitment("alpha", recv.content)
        send = pair.beta.log.entry_at(rebuilt.sequence)
        assert send.entry_type is EntryType.SEND
        assert rebuilt.chain_hash == send.chain_hash
        assert rebuilt.verify(pair.keystore)
        assert rebuilt in pair.alpha.authenticators_from("beta")

    def test_legacy_recv_is_reported_as_unsupported_not_as_forged(self):
        # A log recorded while the envelope carried its own signature (typed
        # tags 0x02/0x03) still decodes, but its sender_signature covered an
        # envelope no one can rebuild: one "legacy format" line per entry,
        # never a "does not verify" / "malformed commitment" accusation.
        log = TamperEvidentLog("alpha")
        legacy = log.append(EntryType.RECV, {
            "source": "beta", "payload_hash": "11" * 32, "payload_size": 4,
            "message_id": "m1", "sender_signature": "ab" * 96,
            "payload": b"ping".hex(), "kind": "data"})
        _, _, keystore = build_trust(["alpha", "beta"])
        report = SyntacticChecker(keystore).check(log.full_segment())
        assert len(report.problems) == 1, report.problems
        assert report.problems[0].startswith(f"entry {legacy.sequence} (recv)")
        assert "legacy RECV format" in report.problems[0]


class TestBorrowedAuthenticator:
    def test_valid_authenticator_of_another_message_is_flagged(self):
        pair = Pair()
        pair.bounce()
        genuine = next(m for _, m in pair.network.deliveries
                       if m.source == "beta" and m.kind is MessageKind.DATA)
        filed_before = len(pair.alpha.authenticators_from("beta"))
        # Same sender, a real authenticator it really signed — for a
        # different message.
        forged = NetworkMessage(
            source="beta", destination="alpha", payload=b"never sent",
            message_id="forged-1", authenticator=dict(genuine.authenticator))
        pair.alpha.on_network_message(forged)
        assert len(pair.alpha.authenticators_from("beta")) == filed_before, \
            "an unverified authenticator was filed as evidence"
        entry = next(e for e in pair.alpha.log
                     if e.entry_type is EntryType.RECV
                     and e.content["message_id"] == "forged-1")
        report = SyntacticChecker(pair.keystore).check(
            pair.alpha.get_log_segment())
        assert problems_naming(report, entry), report.problems

    @pytest.mark.parametrize("attached", [
        {"machine": "beta", "sequence": "not-a-number"},
        {"machine": "beta", "sequence": -1, "entry_type": "send",
         "chain_hash": "00" * 32, "previous_hash": "00" * 32,
         "content_hash": "00" * 32, "signature": "5a" * 96},
        {"machine": "beta"},
        ["not", "a", "dict"],
        7,
    ])
    def test_malformed_authenticator_is_ignored_not_raised(self, attached):
        pair = Pair()
        pair.alpha.on_network_message(NetworkMessage(
            source="beta", destination="alpha", payload=b"x",
            message_id="odd-1", authenticator=attached))
        assert pair.alpha.authenticators_from("beta") == []
        entry = first_recv(pair.alpha)
        assert entry.content["sender_signature"] == ""

    def test_authenticator_of_a_third_machine_is_rejected(self):
        pair = Pair()
        pair.bounce()
        genuine = next(m for _, m in pair.network.deliveries
                       if m.source == "beta" and m.kind is MessageKind.DATA)
        # charlie relays beta's authenticator under its own name.
        pair.alpha.on_network_message(NetworkMessage(
            source="charlie", destination="alpha", payload=genuine.payload,
            message_id=genuine.message_id + "-relay",
            authenticator=dict(genuine.authenticator)))
        assert pair.alpha.authenticators_from("charlie") == []
        assert all(a.machine == "beta"
                   for a in pair.alpha.authenticators_from("beta"))


class TestAckMustCommitToTheReceipt:
    def _charlie_acks(self, pair, receipts, claims=None):
        """charlie logs RECV of each message in ``receipts`` (with an
        unrelated entry after each) and sends alpha one cumulative ACK: the
        authenticator of the last RECV entry, the entries before it chained
        to it by the run.  ``claims`` is what the ack *says* those RECV
        entries are — a message (default: the one logged), or ``None`` for a
        RECV passed over as an opaque link."""
        claims = receipts if claims is None else claims
        log = TamperEvidentLog("charlie", keypair=pair.keypairs["charlie"])
        claimed = {}
        for received, claim in zip(receipts, claims):
            entry = log.append(EntryType.RECV, recv_content(
                "alpha", received.payload, received.message_id,
                received.kind.value,
                Authenticator.from_dict(received.authenticator)))
            claimed[entry.sequence] = claim.message_id if claim else None
            log.append(EntryType.ANNOTATION, {"after": entry.sequence})
        last = max(claimed)
        return NetworkMessage(
            source="charlie", destination="alpha", payload=b"",
            kind=MessageKind.ACK,
            authenticator=log.authenticator_for(log.entry_at(last)).to_dict(),
            headers={"acked_message_id": claimed[last]},
            ack_run=build_run([log.entry_at(s) for s in range(1, last)], claimed))

    @staticmethod
    def _acks_logged(pair):
        return [e.content["message_id"] for e in pair.alpha.log
                if e.entry_type is EntryType.ACK
                and e.content["direction"] == "received"]

    def test_ack_covering_another_messages_recv_is_rejected(self):
        pair = Pair()
        first = pair.alpha_sends_to_charlie(b"first")
        second = pair.alpha_sends_to_charlie(b"second")

        # A genuine, well-signed authenticator — of RECV(first) — offered
        # as the acknowledgment of ``second``.
        pair.alpha.on_network_message(
            self._charlie_acks(pair, [first], claims=[second]))
        assert pair.alpha.stats.acks_rejected == 1
        assert pair.alpha.authenticators_from("charlie") == []
        assert self._acks_logged(pair) == []
        assert set(pair.alpha.channel.unacknowledged) == \
            {first.message_id, second.message_id}

        # The matching pair is accepted, logged and filed.
        pair.alpha.on_network_message(self._charlie_acks(pair, [second]))
        assert pair.alpha.stats.acks_rejected == 1
        assert self._acks_logged(pair) == [second.message_id]
        (filed,) = pair.alpha.authenticators_from("charlie")
        assert filed.entry_type == "recv" and filed.verify(pair.keystore)
        assert pair.alpha.channel.unacknowledged == [first.message_id]

    def test_one_wrong_link_fails_the_whole_cumulative_ack(self):
        pair = Pair()
        first, second, third = (pair.alpha_sends_to_charlie(payload)
                                for payload in (b"first", b"second", b"third"))
        # charlie logged RECV(first) and RECV(third); its run claims the
        # first of them is RECV(second).  The signed entry is right, the run
        # does not chain to it: nothing is acknowledged, nothing is filed.
        pair.alpha.on_network_message(self._charlie_acks(
            pair, [first, third], claims=[second, third]))
        assert pair.alpha.stats.acks_rejected == 1
        assert pair.alpha.authenticators_from("charlie") == []
        assert self._acks_logged(pair) == []
        assert len(pair.alpha.channel.unacknowledged) == 3

        # The honest run: one verification, both acknowledged, and only the
        # authenticator of the signed entry is filed.
        verified = pair.alpha.stats.signatures_verified
        pair.alpha.on_network_message(self._charlie_acks(pair, [first, third]))
        assert pair.alpha.stats.signatures_verified == verified + 1
        assert pair.alpha.stats.acks_rejected == 1
        assert self._acks_logged(pair) == [first.message_id, third.message_id]
        (filed,) = pair.alpha.authenticators_from("charlie")
        assert filed.sequence == 3 and filed.verify(pair.keystore)
        assert pair.alpha.channel.unacknowledged == [second.message_id]

    def test_cumulative_ack_that_omits_a_recv_leaves_that_message_in_flight(self):
        pair = Pair()
        sent = [pair.alpha_sends_to_charlie(payload)
                for payload in (b"first", b"second", b"third")]
        # RECV(second) is in charlie's log and in the chain, but the run
        # passes it over as an opaque link: it is not acknowledged.
        pair.alpha.on_network_message(self._charlie_acks(
            pair, sent, claims=[sent[0], None, sent[2]]))
        assert pair.alpha.stats.acks_rejected == 0
        assert pair.alpha.stats.acks_received == 2
        assert pair.alpha.channel.unacknowledged == [sent[1].message_id]
        assert pair.alpha._expected_receipts == {  # noqa: SLF001
            "charlie": {sent[1].message_id: pair.alpha._expected_receipts[  # noqa: SLF001
                "charlie"][sent[1].message_id]}}

    def test_ack_naming_a_message_sent_to_someone_else_fails_whole(self):
        pair = Pair()
        to_charlie = pair.alpha_sends_to_charlie(b"for charlie")
        # ... and, its echo to beta lost, one in flight to beta as well.
        pair.network.cut_links.add(("alpha", "beta"))
        pair.bounce()
        (for_beta,) = (pending.message for pending
                       in pair.alpha.channel._pending.values()  # noqa: SLF001
                       if pending.message.destination == "beta")
        # (beta's echo acknowledged the forged seed packet, which alpha
        # never sent: that run was refused too)
        assert pair.alpha.stats.acks_rejected == 1
        # charlie overheard it and acknowledges both: the link that is not
        # charlie's to acknowledge fails the run, the other one with it.
        pair.alpha.on_network_message(
            self._charlie_acks(pair, [for_beta, to_charlie]))
        assert pair.alpha.stats.acks_rejected == 2
        assert set(pair.alpha.channel.unacknowledged) == \
            {for_beta.message_id, to_charlie.message_id}
        pair.alpha.on_network_message(self._charlie_acks(pair, [to_charlie]))
        assert pair.alpha.channel.unacknowledged == [for_beta.message_id]

    def test_ack_without_an_authenticator_acknowledges_nothing(self):
        pair = Pair()
        sent = pair.alpha_sends_to_charlie(b"hello")
        pair.alpha.on_network_message(NetworkMessage(
            source="charlie", destination="alpha", payload=b"",
            kind=MessageKind.ACK,
            headers={"acked_message_id": sent.message_id}))
        assert pair.alpha.stats.acks_rejected == 1
        assert pair.alpha.channel.unacknowledged == [sent.message_id]

    def test_unanswered_sender_ends_up_suspecting_the_peer(self):
        pair = Pair()
        first = pair.alpha_sends_to_charlie(b"first")
        second = pair.alpha_sends_to_charlie(b"second")
        bad = self._charlie_acks(pair, [second, first], claims=[first, second])
        for _ in range(3):
            pair.alpha.on_network_message(bad)
        pair.scheduler.run_until(5.0)
        assert pair.alpha.stats.acks_rejected == 3
        assert "charlie" in pair.alpha.stats.suspected_peers
        # Nothing stays behind for messages the channel gave up on.
        assert pair.alpha._expected_receipts == {"charlie": {}}  # noqa: SLF001

    def test_late_duplicate_ack_is_ignored(self):
        pair = Pair()
        sent = [pair.alpha_sends_to_charlie(b"hello"),
                pair.alpha_sends_to_charlie(b"again")]
        ack = self._charlie_acks(pair, sent)
        pair.alpha.on_network_message(ack)
        entries = len(pair.alpha.log)
        pair.alpha.on_network_message(ack)
        assert len(pair.alpha.log) == entries
        assert len(pair.alpha.authenticators_from("charlie")) == 1
        assert pair.alpha.stats.acks_rejected == 0


class TestHoldAndLoss:
    def test_lost_carrier_is_repaired_by_retransmission(self):
        pair = Pair()
        # beta's echoes carry its acknowledgments; cut beta -> alpha for a
        # moment so that one carrier (and the message it is) gets lost.
        cut = pair.network.cut_links
        pair.scheduler.schedule_at(0.010, lambda: cut.add(("beta", "alpha")))
        pair.scheduler.schedule_at(0.050, cut.clear)
        pair.bounce(2.0)
        # alpha retransmitted what the lost carrier would have acknowledged
        # and beta re-acknowledged it at once, standalone; beta
        # retransmitted the carrier itself; the volley went on.
        assert pair.alpha.channel.retransmissions >= 1
        assert pair.beta.channel.retransmissions >= 1
        assert pair.beta.stats.acks_standalone >= 1
        for monitor in (pair.alpha, pair.beta):
            assert monitor.stats.suspected_peers == []
            assert monitor.channel.gave_up_on == []
            assert len(monitor.channel.unacknowledged) <= 1
        assert pair.alpha.stats.messages_sent > 100
        for monitor in (pair.alpha, pair.beta):
            # The retransmitted carrier's run names what beta has meanwhile
            # re-acknowledged: late, not forged — it chains, clears nothing
            # twice and is not counted as refused (alpha's one refusal is
            # the run over the forged seed packet).
            assert monitor.stats.acks_rejected == (monitor is pair.alpha)
            # ... out of a memory of acknowledged receipts that is bounded
            assert monitor.stats.acks_received > MAX_ACK_RUN_LINKS == max(
                map(len, monitor._cleared_receipts.values()))  # noqa: SLF001
            report = SyntacticChecker(pair.keystore).check(
                monitor.get_log_segment())
            assert report.ok, report.problems

    def test_duplicate_within_the_hold_then_a_new_message(self):
        # m, m again while its RECV is still owed, then m2, back to back:
        # the duplicate is re-acknowledged at once and leaves nothing owed,
        # which the next RECV from that peer must cope with.
        pair = Pair()
        first, second = (NetworkMessage(
            source="charlie", destination="alpha", payload=payload,
            message_id=message_id)
            for payload, message_id in ((b"m", "dup-1"), (b"m2", "dup-2")))
        for message in (first, first, second):
            pair.alpha.on_network_message(message)
        assert list(pair.alpha._owed["charlie"].values()) == ["dup-2"]  # noqa: SLF001
        pair.scheduler.run_until(1.0)
        acked = [e.content["message_id"] for e in pair.alpha.log
                 if e.entry_type is EntryType.ACK
                 and e.content["direction"] == "sent"]
        assert acked == ["dup-1", "dup-2"]
        assert pair.alpha.stats.acks_sent == 2
        assert pair.alpha._owed == {} == pair.alpha._ack_timers  # noqa: SLF001
        # the standalone re-acknowledgment, then the echo of m, which
        # carries the acknowledgment of m2
        ack = pair.to_charlie[0]
        echo = next(m for m in pair.to_charlie if m.payload == b"m")
        assert (ack.kind, ack.headers) == (MessageKind.ACK,
                                           {"acked_message_id": "dup-1"})
        assert echo.ack_run.links[0] == "dup-2"

    def test_quiet_receiver_acknowledges_standalone_after_the_hold(self):
        # Figure 5's pair: the pong carries the ping's acknowledgment; the
        # pinger has nothing to say after the pong, so the pong is
        # acknowledged standalone once it has waited out the hold — three
        # signatures for the exchange where Section 6.8 counted four.
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler)
        config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                              snapshot_interval=None)
        _, keypairs, keystore = build_trust(["pinger", "echo"])
        echo = AccountableVMM("echo", make_echo_image(), config, scheduler,
                              network, keypair=keypairs["echo"],
                              keystore=keystore)
        pinger = AccountableVMM("pinger", make_ping_sender_image("echo"),
                                config, scheduler, network,
                                keypair=keypairs["pinger"], keystore=keystore)
        echo.start(), pinger.start()
        pinger.inject_local_input("ping 0")
        assert pinger.ack_hold == RETRANSMIT_INTERVAL / 4
        scheduler.run_until(pinger.ack_hold)
        (pong_at,) = (at for at, m in network.deliveries
                      if m.destination == "pinger")
        assert (echo.stats.acks_piggybacked, echo.stats.acks_standalone) == (1, 0)
        assert pinger.stats.acks_received == 1 and pinger.stats.acks_sent == 0
        scheduler.run_until(1.0)
        (ack_at,) = (at for at, m in network.deliveries
                     if m.kind is MessageKind.ACK)
        assert pong_at + pinger.ack_hold < ack_at < pong_at + 1.1 * pinger.ack_hold
        assert (pinger.stats.acks_piggybacked, pinger.stats.acks_standalone,
                pinger.stats.acks_sent) == (0, 1, 1)
        assert pinger.stats.signatures_generated \
            + echo.stats.signatures_generated == 3
        for monitor in (pinger, echo):
            assert monitor.channel.retransmissions == 0
            assert monitor.channel.unacknowledged == []
            assert monitor.stats.suspected_peers == []


class TestNoSig:
    def test_avmm_nosig_runs_clean_through_the_same_path(self):
        pair = Pair(Configuration.AVMM_NOSIG)
        pair.bounce()
        for monitor, peer in ((pair.alpha, "beta"), (pair.beta, "alpha")):
            assert monitor.stats.signatures_generated == 0
            assert monitor.stats.signatures_verified == 0
            # (the one run alpha refuses acknowledges the forged seed packet)
            assert monitor.stats.acks_rejected == (monitor is pair.alpha)
            assert monitor.stats.suspected_peers == []
            assert monitor.stats.acks_received > 0
            recvs = [e for e in monitor.log if e.entry_type is EntryType.RECV
                     and e.content["message_id"] != SEED_ID]
            assert recvs and all(e.content["sender_signature"] == ""
                                 and e.content["sender_sequence"] > 0
                                 for e in recvs)
            # Structural authenticators are still collected, one per
            # envelope that carried one — every acknowledgment of the volley
            # rode the next echo — and the peer's log matches them.
            assert monitor.stats.acks_piggybacked == monitor.stats.acks_sent > 0
            collected = monitor.authenticators_from(peer)
            assert len(collected) == len(recvs)
            report = SyntacticChecker(pair.keystore).check(
                monitor.get_log_segment())
            assert report.ok, report.problems
        auditor = Auditor("auditor", pair.keystore, pair.image)
        result = auditor.audit(pair.beta)
        assert result.verdict is Verdict.PASS, result.summary()
