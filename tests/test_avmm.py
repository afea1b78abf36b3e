"""Tests for the AVMM: configuration, clock optimiser, recorder, monitor, replayer."""

import pytest

from repro.avmm.clockopt import ClockReadOptimizer
from repro.avmm.config import ALL_CONFIGURATIONS, AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.avmm.recorder import ExecutionRecorder
from repro.avmm.replayer import DeterministicReplayer
from repro.crypto.keys import build_trust
from repro.log.entries import EntryType
from repro.log.tamper_evident import TamperEvidentLog
from repro.network.simnet import SimulatedNetwork
from repro.sim.scheduler import Scheduler
from repro.vm.events import KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.execution import ExecutionTimestamp
from repro.vm.image import VMImage
from repro.workloads.echo import EchoGuest, make_echo_image


class TestConfig:
    def test_five_configurations(self):
        assert len(ALL_CONFIGURATIONS) == 5

    def test_bare_hw_has_everything_off(self):
        config = AvmmConfig.for_configuration(Configuration.BARE_HW)
        assert not config.virtualized
        assert not config.record_replay_info
        assert not config.tamper_evident
        assert not config.signs_packets

    def test_vmware_rec_records_but_is_not_accountable(self):
        config = AvmmConfig.for_configuration(Configuration.VMWARE_REC)
        assert config.record_replay_info and not config.tamper_evident

    def test_avmm_nosig_is_accountable_without_signatures(self):
        config = AvmmConfig.for_configuration(Configuration.AVMM_NOSIG)
        assert config.record_replay_info and config.tamper_evident
        assert not config.signs_packets

    def test_avmm_rsa768_signs(self):
        config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768)
        assert config.signs_packets and config.signature_scheme == "rsa768"

    def test_overrides(self):
        config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                              snapshot_interval=1.0)
        assert config.snapshot_interval == 1.0


class TestClockOptimizer:
    def test_disabled_is_identity(self):
        optimizer = ClockReadOptimizer(enabled=False)
        assert optimizer.observe(1.0) == 1.0
        assert optimizer.observe(1.000001) == 1.000001

    def test_spaced_reads_not_delayed(self):
        optimizer = ClockReadOptimizer()
        assert optimizer.observe(1.0) == 1.0
        assert optimizer.observe(1.1) == 1.1
        assert optimizer.stats.reads_delayed == 0

    def test_consecutive_reads_delayed_exponentially(self):
        optimizer = ClockReadOptimizer()
        values = [optimizer.observe(1.0 + i * 1e-6) for i in range(6)]
        # Returned values must be strictly increasing and pull ahead of the
        # raw clock quickly.
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] - (1.0 + 5e-6) >= 50e-6
        assert optimizer.stats.reads_delayed >= 4

    def test_delay_capped(self):
        optimizer = ClockReadOptimizer()
        previous = 0.0
        for i in range(40):
            value = optimizer.observe(i * 1e-6)
            step = value - previous
            previous = value
        assert step <= 5e-3 + 1e-6 + 1e-9

    def test_busy_wait_terminates_quickly(self):
        optimizer = ClockReadOptimizer()
        target = 0.002  # 2 ms busy-wait
        now = 0.0
        reads = 0
        while now < target and reads < 10_000:
            reads += 1
            now = optimizer.observe(reads * 2e-6)
        assert reads < 20  # without the optimiser this would be ~1000 reads


class TestRecorder:
    def test_disabled_recorder_writes_only_snapshots(self):
        log = TamperEvidentLog("m")
        recorder = ExecutionRecorder(log, enabled=False)
        recorder.record_clock_read(ExecutionTimestamp(1, 0), 1.0)
        recorder.record_guest_event(ExecutionTimestamp(2, 0), TimerInterrupt(1))
        assert len(log) == 0
        recorder.record_snapshot(1, b"\x00" * 32, ExecutionTimestamp(3, 0))
        assert len(log) == 1

    def test_entry_types_by_event(self):
        log = TamperEvidentLog("m")
        recorder = ExecutionRecorder(log)
        recorder.record_clock_read(ExecutionTimestamp(1, 0), 1.0)
        recorder.record_guest_event(ExecutionTimestamp(2, 1), TimerInterrupt(1))
        recorder.record_guest_event(ExecutionTimestamp(3, 2),
                                    PacketDelivery(source="a", payload=b"x",
                                                   message_id="m1"))
        recorder.record_guest_event(ExecutionTimestamp(4, 3),
                                    KeyboardInput(command="fire"))
        recorder.record_packet_out(ExecutionTimestamp(5, 3), "b", b"\x00" * 32, 4, "m2")
        types = [e.entry_type for e in log]
        assert types == [EntryType.TIMETRACKER, EntryType.TIMETRACKER,
                         EntryType.MACLAYER, EntryType.NONDET, EntryType.MACLAYER]
        assert recorder.stats.clock_reads == 1
        assert recorder.stats.packets_in == 1
        assert recorder.stats.packets_out == 1
        assert recorder.stats.keyboard_inputs == 1
        assert recorder.stats.bytes_written > 0


def build_echo_pair(configuration=Configuration.AVMM_RSA768, snapshot_interval=None):
    """Two machines running echo / ping guests under one configuration."""
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(configuration,
                                          snapshot_interval=snapshot_interval)
    ca, keypairs, keystore = build_trust(["alpha", "beta"],
                                         scheme=config.signature_scheme)
    alpha = AccountableVMM("alpha", make_echo_image(), config, scheduler, network,
                           keypair=keypairs["alpha"], keystore=keystore)
    beta = AccountableVMM("beta", make_echo_image(), config, scheduler, network,
                          keypair=keypairs["beta"], keystore=keystore)
    return scheduler, network, keystore, alpha, beta


class TestMonitor:
    def test_stop_halts_the_snapshot_process(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair(
            snapshot_interval=1.0)
        alpha.start()
        scheduler.run_until(2.5)
        assert alpha.snapshots.count == 2
        alpha.stop()
        scheduler.run_until(5.5)
        assert alpha.snapshots.count == 2

    def test_double_start_rejected(self):
        _, _, _, alpha, _ = build_echo_pair()
        alpha.start()
        with pytest.raises(Exception):
            alpha.start()

    @pytest.mark.slow
    def test_message_exchange_logs_send_recv_ack(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair()
        alpha.start()
        beta.start()
        # Deliver a packet to beta's guest that looks like it came from alpha,
        # so the echo reply travels over the network back to alpha.
        beta.deliver_event(PacketDelivery(source="alpha", payload=b"ping",
                                          message_id="ping-1"))
        scheduler.run_until(4.0)
        assert any(e.entry_type is EntryType.SEND for e in beta.log)
        assert any(e.entry_type is EntryType.RECV for e in alpha.log)
        assert any(e.entry_type is EntryType.ACK for e in alpha.log)
        assert beta.stats.signatures_generated > 0
        # alpha collected an authenticator from beta's data message
        assert beta.identity in alpha.received_authenticators

    def test_signatures_generated_counts_what_is_signed(self, monkeypatch):
        # One signature per signed envelope — a DATA message, whose signature
        # also acknowledges what is owed to its destination, or a standalone
        # ACK — and the counter sees them all (Section 6.8 counted four in a
        # ping round trip; the pong now carries the ping's acknowledgment).
        from repro.crypto.keys import KeyPair
        from repro.network.message import MessageKind
        signed_by = []
        sign = KeyPair.sign

        def counting_sign(keypair, message):
            signed_by.append(keypair.identity)
            return sign(keypair, message)

        monkeypatch.setattr(KeyPair, "sign", counting_sign)
        scheduler, network, keystore, alpha, beta = build_echo_pair()
        alpha.start()
        beta.start()
        beta.deliver_event(PacketDelivery(source="alpha", payload=b"ping",
                                          message_id="ping-1"))
        scheduler.run_until(0.05)
        for monitor in (alpha, beta):
            stats = monitor.stats
            acks_in = sum(1 for _, m in network.deliveries
                          if m.destination == monitor.identity
                          and m.kind is MessageKind.ACK)
            assert stats.messages_sent > 2 and stats.acks_sent > 2
            # every echo rides the next one; at most the last is still owed
            assert stats.acks_piggybacked == stats.acks_sent \
                >= stats.messages_received - 1
            assert stats.signatures_generated \
                == stats.messages_sent + stats.acks_standalone \
                == signed_by.count(monitor.identity)
            # ... and one verification per signed envelope that came in.
            assert stats.signatures_verified \
                == stats.messages_received + acks_in
            assert stats.acks_rejected == 0
            # holding an acknowledgment never causes a retransmission
            assert monitor.channel.retransmissions == 0
            assert stats.suspected_peers == []

    def test_duplicate_delivery_not_replayed_to_guest(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair()
        alpha.start()
        beta.start()
        # A silent endpoint so the echo replies do not bounce back and forth.
        network.register("charlie", lambda m: None)
        from repro.network.message import NetworkMessage
        message = NetworkMessage(source="charlie", destination="alpha", payload=b"hello",
                                 message_id="dup-1")
        alpha.on_network_message(message)
        alpha.on_network_message(message)  # retransmission of the same message
        scheduler.run_until(1.0)
        recvs = [e for e in alpha.log if e.entry_type is EntryType.RECV
                 and e.content["message_id"] == "dup-1"]
        assert len(recvs) == 1
        assert alpha.guest.packets_echoed == 1

    def test_bare_hw_keeps_no_log(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair(Configuration.BARE_HW)
        alpha.start()
        beta.start()
        beta.deliver_event(PacketDelivery(source="alpha", payload=b"x",
                                          message_id="m1"))
        assert len(beta.log) == 0
        assert beta.stats.messages_sent == 1
        assert beta.stats.signatures_generated == 0

    def test_vmware_rec_records_replay_info_without_tamper_evidence(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair(Configuration.VMWARE_REC)
        beta.start()
        beta.deliver_event(PacketDelivery(source="alpha", payload=b"x", message_id="m1"))
        types = {e.entry_type for e in beta.log}
        assert EntryType.MACLAYER in types
        assert EntryType.SEND not in types

    def test_snapshots_taken_periodically(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair(
            snapshot_interval=1.0)
        alpha.start()
        scheduler.run_until(3.5)
        assert alpha.snapshots.count == 3
        snapshot_entries = [e for e in alpha.log if e.entry_type is EntryType.SNAPSHOT]
        assert len(snapshot_entries) == 3

    def test_inject_local_input_recorded(self):
        _, _, _, alpha, _ = build_echo_pair()
        alpha.start()
        alpha.inject_local_input("fire", device="mouse")
        nondet = [e for e in alpha.log if e.entry_type is EntryType.NONDET]
        assert len(nondet) == 1
        assert nondet[0].content["data"]["command"] == "fire"


class TestReplayer:
    @staticmethod
    def _run_exchange(scheduler, alpha, beta, packets=3, horizon=0.1):
        """Kick off echo traffic so beta's log contains network-delivered packets."""
        for i in range(packets):
            alpha.deliver_event(PacketDelivery(source="beta", payload=f"p{i}".encode(),
                                               message_id=f"seed-{i}"))
        scheduler.run_until(horizon)

    def test_honest_echo_replays_cleanly(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair()
        alpha.start()
        beta.start()
        self._run_exchange(scheduler, alpha, beta)
        report = DeterministicReplayer(make_echo_image()).replay(beta.get_log_segment())
        assert report.divergence is None
        assert report.events_injected > 0
        assert report.outputs_checked >= 3

    def test_wrong_reference_image_diverges(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair()
        alpha.start()
        beta.start()
        self._run_exchange(scheduler, alpha, beta, packets=1)

        class DifferentEcho(EchoGuest):
            def on_event(self, api, event):
                if isinstance(event, PacketDelivery):
                    api.send_packet(event.source, b"not-an-echo")
                    self.packets_echoed += 1

        wrong_image = VMImage(name="wrong", guest_factory=DifferentEcho)
        report = DeterministicReplayer(wrong_image).replay(beta.get_log_segment())
        assert report.diverged
        assert "differs" in report.divergence.reason or "execution point" in report.divergence.reason

    def test_tampered_payload_detected_by_replay(self):
        scheduler, network, keystore, alpha, beta = build_echo_pair()
        alpha.start()
        beta.start()
        self._run_exchange(scheduler, alpha, beta, packets=1)
        # Bob rewrites the payload hash of his SEND entry (and recomputes the
        # chain): replay now disagrees with the recorded output.
        send_entries = [e for e in beta.log if e.entry_type is EntryType.MACLAYER
                        and e.content.get("direction") == "out"]
        entry = send_entries[0]
        tampered = dict(entry.content)
        tampered["payload_hash"] = "00" * 32
        beta.log.tamper_replace_entry(entry.sequence, tampered, recompute_chain=True)
        report = DeterministicReplayer(make_echo_image()).replay(beta.get_log_segment())
        assert report.diverged
