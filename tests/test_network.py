"""Tests for the network substrate: envelopes, simulated network, reliable channel."""

import pytest

from repro.errors import ChannelError, DeliveryError
from repro.log.authenticator import AckRun
from repro.network.channel import ReliableChannel
from repro.network.message import NetworkMessage
from repro.network.simnet import BANDWIDTH_BPS, LinkSpec, SimulatedNetwork
from repro.service.fleet import build_fleet
from repro.sim.scheduler import Scheduler


def drain(scheduler):
    """Run events until the queue is empty."""
    while scheduler.step():
        pass


def make_network():
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    return scheduler, network


class TestNetworkMessage:
    def test_message_ids_unique(self):
        a = NetworkMessage(source="a", destination="b", payload=b"x")
        b = NetworkMessage(source="a", destination="b", payload=b"x")
        assert a.message_id != b.message_id

    def test_payload_hash(self):
        message = NetworkMessage(source="a", destination="b", payload=b"x")
        assert len(message.payload_hash()) == 32

    def test_wire_size_grows_with_signature_and_authenticator(self):
        bare = NetworkMessage(source="a", destination="b", payload=b"x" * 50)
        unsigned = NetworkMessage(source="a", destination="b", payload=b"x" * 50,
                                  authenticator={"chain_hash": "00" * 32,
                                                 "sequence": 3, "signature": ""})
        signed = NetworkMessage(source="a", destination="b", payload=b"x" * 50,
                                authenticator={"chain_hash": "00" * 32,
                                               "sequence": 3,
                                               "signature": "5a" * 96})
        assert unsigned.wire_size() > bare.wire_size()
        # The authenticator's signature is the only one an envelope carries,
        # and it travels as raw bytes: 96 of them for an RSA-768 key.
        assert signed.wire_size() == unsigned.wire_size() + 96
        assert signed.wire_size(encapsulate_tcp=True) > signed.wire_size()

    def test_authenticator_is_sized_from_field_lengths(self):
        # Hashes count 32 bytes, integers 8, other strings their length —
        # whatever characters the hex fields hold (nothing scans them).
        auth = {"machine": "web-server", "sequence": 7, "entry_type": "send",
                "chain_hash": "ab" * 32, "previous_hash": "00" * 32,
                "content_hash": "zz" * 32, "signature": "5a" * 96}
        bare = NetworkMessage(source="a", destination="b", payload=b"",
                              message_id="m")
        carrying = NetworkMessage(source="a", destination="b", payload=b"",
                                  message_id="m", authenticator=auth)
        assert carrying.wire_size() - bare.wire_size() == \
            sum(len(key) for key in auth) + len("web-server") + 8 \
            + len("send") + 3 * 32 + 96

    def test_ack_run_is_counted_as_raw_bytes(self):
        bare = NetworkMessage(source="a", destination="b", payload=b"",
                              message_id="m")
        run = AckRun(first_sequence=7, start_hash=b"\x11" * 32, links=(
            "m0000000042", ("nondet", b"\x22" * 32), "m0000000043"))
        carrying = NetworkMessage(source="a", destination="b", payload=b"",
                                  message_id="m", ack_run=run)
        # sequence + h_{a-1} + count, a tag byte per link, then the message
        # id or a type byte and the content hash: 34 B for an opaque link.
        assert run.wire_size() == 8 + 32 + 2 + (1 + 11) + (1 + 1 + 32) + (1 + 11)
        assert carrying.wire_size() - bare.wire_size() == run.wire_size()


class TestSimulatedNetwork:
    def test_delivery_with_latency(self):
        scheduler, network = make_network()
        received = []
        network.register("bob", received.append)
        network.send(NetworkMessage(source="alice", destination="bob", payload=b"hi"))
        assert received == []  # not delivered synchronously
        drain(scheduler)
        assert len(received) == 1
        assert scheduler.clock.now > 0

    def test_unknown_destination_raises(self):
        _, network = make_network()
        with pytest.raises(DeliveryError):
            network.send(NetworkMessage(source="a", destination="ghost", payload=b""))

    def test_partition_drops_messages(self):
        scheduler, network = make_network()
        received = []
        network.register("bob", received.append)
        network.cut_links |= {("alice", "bob"), ("bob", "alice")}
        assert network.send(NetworkMessage(source="alice", destination="bob",
                                           payload=b"x")) is False
        drain(scheduler)
        assert received == []
        network.cut_links.clear()
        assert network.send(NetworkMessage(source="alice", destination="bob",
                                           payload=b"x")) is True
        drain(scheduler)
        assert len(received) == 1

    def test_lossy_link_drops_some(self):
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler, default_link=LinkSpec(loss_rate=1.0))
        received = []
        network.register("bob", received.append)
        assert not network.send(NetworkMessage(source="alice", destination="bob",
                                               payload=b"x"))
        drain(scheduler)
        assert received == []

    def test_stats_accounting(self):
        scheduler, network = make_network()
        network.register("bob", lambda m: None)
        network.register("alice", lambda m: None)
        network.send(NetworkMessage(source="alice", destination="bob", payload=b"x" * 100))
        drain(scheduler)
        alice = network.stats_for("alice")
        bob = network.stats_for("bob")
        assert alice.messages_sent == 1 and bob.messages_received == 1
        assert alice.bytes_sent > 100
        assert alice.sent_kbps(1.0) > 0

    def test_transmission_delay_is_the_testbeds_bandwidth(self):
        assert LinkSpec().transmission_delay(1000) == 1000 * 8 / BANDWIDTH_BPS

    def test_delivery_log(self):
        scheduler, network = make_network()
        network.register("bob", lambda m: None)
        network.send(NetworkMessage(source="alice", destination="bob", payload=b"x"))
        drain(scheduler)
        assert len(network.deliveries) == 1
        time, message = network.deliveries[0]
        assert message.destination == "bob"


class TestReliableChannel:
    def test_retransmits_until_acknowledged(self):
        scheduler, network = make_network()
        received = []
        network.register("bob", received.append)
        channel = ReliableChannel(network, "alice", retransmit_interval=0.1,
                                  max_retransmits=3)
        network.register("alice", lambda m: None)
        message = NetworkMessage(source="alice", destination="bob", payload=b"x")
        channel.send(message)
        scheduler.run_until(0.25)
        assert len(received) >= 2  # original + at least one retransmission
        assert channel.retransmissions >= 1
        assert channel.acknowledge(message.message_id)
        count = len(received)
        scheduler.run_until(5.0)
        assert len(received) == count  # no more retransmissions after the ack

    def test_gives_up_after_max_retransmits(self):
        scheduler, network = make_network()
        gave_up = []
        network.register("bob", lambda m: None)
        channel = ReliableChannel(network, "alice", retransmit_interval=0.1,
                                  max_retransmits=2, on_give_up=gave_up.append)
        message = NetworkMessage(source="alice", destination="bob", payload=b"x")
        channel.send(message)
        scheduler.run_until(5.0)
        assert [m.message_id for m in gave_up] == [message.message_id]
        assert channel.gave_up_on == [message.message_id]
        assert channel.unacknowledged == []

    def test_ack_of_unknown_message(self):
        _, network = make_network()
        channel = ReliableChannel(network, "alice")
        assert channel.acknowledge("nope") is False

    def test_rejects_foreign_source(self):
        _, network = make_network()
        channel = ReliableChannel(network, "alice")
        with pytest.raises(ChannelError):
            channel.send(NetworkMessage(source="bob", destination="alice", payload=b""))

    def test_no_ack_expected_messages_not_tracked(self):
        scheduler, network = make_network()
        network.register("bob", lambda m: None)
        channel = ReliableChannel(network, "alice")
        channel.send(NetworkMessage(source="alice", destination="bob", payload=b"x"),
                     expect_ack=False)
        assert channel.unacknowledged == []


class TestPerNetworkMessageIds:
    def test_independent_networks_allocate_independently(self):
        first = SimulatedNetwork(Scheduler())
        second = SimulatedNetwork(Scheduler())
        assert [first.allocate_message_id() for _ in range(3)] == \
            ["m0000000001", "m0000000002", "m0000000003"]
        # A fresh network starts from 1 regardless of traffic elsewhere.
        assert second.allocate_message_id() == "m0000000001"

    def test_same_seed_fleets_identical_without_global_reset(self):
        # Two same-seed recordings in one process must produce identical
        # chains with nothing reset in between — the ids that land in
        # RECV/ACK entries come from each recording's own network, not a
        # process-global counter.
        heads = []
        for _ in range(2):
            fleet = build_fleet(num_machines=2, duration=1.0,
                                snapshot_interval=0.5)
            heads.append({machine: fleet.monitors[machine].log.head_hash
                          for machine in fleet.machines})
        assert heads[0] == heads[1]
