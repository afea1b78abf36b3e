"""Tests for the secondary workloads (echo, key-value store, sql-bench client)."""

import json


from repro.vm.events import KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.machine import VirtualMachine
from vm_tools import FixedNondeterminismSource
from repro.workloads.echo import EchoGuest, PingSenderGuest, make_echo_image, make_ping_sender_image
from repro.workloads.kvstore import KvServerGuest, make_kvserver_image
from repro.workloads.sqlbench import SqlBenchClientGuest, SqlBenchSettings, make_sqlbench_image


def boot(image):
    vm = VirtualMachine(image, nondet_source=FixedNondeterminismSource(default=1.0))
    vm.start()
    return vm


class TestEcho:
    def test_echoes_payload_back_to_source(self):
        vm = boot(make_echo_image())
        outputs = vm.deliver_event(PacketDelivery(source="a", payload=b"hello",
                                                  message_id="m1"))
        packets = [o for o in outputs if hasattr(o, "payload")]
        assert packets[0].payload == b"hello"
        assert packets[0].destination == "a"
        assert vm.guest.packets_echoed == 1

    def test_state_roundtrip(self):
        guest = EchoGuest()
        guest.packets_echoed = 5
        other = EchoGuest()
        other.set_state(guest.get_state())
        assert other.packets_echoed == 5

    def test_ping_sender_sends_on_command(self):
        vm = boot(make_ping_sender_image("echo"))
        outputs = vm.deliver_event(KeyboardInput(command="ping 1"))
        packets = [o for o in outputs if hasattr(o, "payload")]
        assert packets[0].destination == "echo"
        assert vm.guest.pings_sent == 1
        vm.deliver_event(PacketDelivery(source="echo", payload=packets[0].payload,
                                        message_id="r1"))
        assert vm.guest.replies_received == 1

    def test_ping_sender_state_roundtrip(self):
        guest = PingSenderGuest("echo")
        guest.pings_sent = 3
        other = PingSenderGuest("other")
        other.set_state(guest.get_state())
        assert other.target == "echo" and other.pings_sent == 3


def query_packet(query, source="client"):
    return PacketDelivery(source=source,
                          payload=json.dumps(query, sort_keys=True).encode("utf-8"),
                          message_id=f"q{query.get('request_id', 0)}")


class TestKvServer:
    def test_insert_select_update_delete(self):
        vm = boot(make_kvserver_image())
        def run(query):
            outputs = vm.deliver_event(query_packet(query))
            reply = [o for o in outputs if hasattr(o, "payload")][0]
            return json.loads(reply.payload.decode("utf-8"))["result"]

        assert run({"request_id": 1, "op": "insert", "table": "t", "key": "k",
                    "value": 42}) == {"inserted": 1}
        assert run({"request_id": 2, "op": "select", "table": "t", "key": "k"}) == {"row": 42}
        assert run({"request_id": 3, "op": "update", "table": "t", "key": "k",
                    "value": 43}) == {"updated": 1}
        assert run({"request_id": 4, "op": "count", "table": "t"}) == {"count": 1}
        assert run({"request_id": 5, "op": "delete", "table": "t", "key": "k"}) == {"deleted": 1}
        assert run({"request_id": 6, "op": "select", "table": "t", "key": "k"}) == {"row": None}

    def test_unknown_op_reported(self):
        guest = KvServerGuest()
        assert "error" in guest.execute({"op": "drop-table"})

    def test_checkpoint_writes_disk(self):
        vm = boot(make_kvserver_image())
        for i in range(KvServerGuest.CHECKPOINT_EVERY_TICKS):
            vm.deliver_event(TimerInterrupt(i + 1))
        assert vm.disk.writes >= 1

    def test_state_roundtrip(self):
        guest = KvServerGuest()
        guest.execute({"op": "insert", "table": "t", "key": "a", "value": 1})
        other = KvServerGuest()
        other.set_state(guest.get_state())
        assert other.execute({"op": "select", "table": "t", "key": "a"}) == {"row": 1}


class TestSqlBench:
    def test_query_sequence_cycles_through_phases(self):
        client = SqlBenchClientGuest(SqlBenchSettings(server="db", rows_per_phase=2))
        ops = [client.next_query()["op"] for _ in range(8)]
        assert ops == ["insert", "insert", "select", "select",
                       "update", "update", "delete", "delete"]

    def test_sequence_is_deterministic(self):
        a = SqlBenchClientGuest(SqlBenchSettings(server="db"))
        b = SqlBenchClientGuest(SqlBenchSettings(server="db"))
        assert [a.next_query() for _ in range(20)] == [b.next_query() for _ in range(20)]

    def test_tick_sends_operations(self):
        settings = SqlBenchSettings(server="db", operations_per_tick=3)
        vm = boot(make_sqlbench_image(settings))
        outputs = vm.deliver_event(TimerInterrupt(1))
        packets = [o for o in outputs if hasattr(o, "payload")]
        assert len(packets) == 3
        assert all(p.destination == "db" for p in packets)

    def test_counts_responses(self):
        vm = boot(make_sqlbench_image(SqlBenchSettings(server="db")))
        vm.deliver_event(PacketDelivery(source="db", payload=b"{}", message_id="r1"))
        assert vm.guest.responses == 1

    def test_state_roundtrip(self):
        client = SqlBenchClientGuest(SqlBenchSettings(server="db"))
        client.next_query()
        other = SqlBenchClientGuest(SqlBenchSettings(server="db"))
        other.set_state(client.get_state())
        assert other.sequence == client.sequence
