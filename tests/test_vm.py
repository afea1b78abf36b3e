"""Tests for the virtual machine substrate: devices, machine, images, snapshots."""

import pytest

from repro.avmm.recorder import ExecutionRecorder
from repro.errors import DeviceError, GuestError, SnapshotError, VMError
from repro.vm.devices import FrameCounter, VirtualDisk, VirtualNic, VirtualTimer
from repro.vm.events import (
    GuestEvent,
    KeyboardInput,
    PacketDelivery,
    TimerInterrupt,
)
from repro.vm.execution import ExecutionTimestamp
from repro.vm.guest import GuestProgram, PacketOutput
from repro.vm.image import VMImage
from repro.log.tamper_evident import TamperEvidentLog
from repro.vm.machine import VirtualMachine
from repro.vm.snapshot import SnapshotManager, paginate, serialize_state
from vm_tools import FixedNondeterminismSource


class CounterGuest(GuestProgram):
    """Small deterministic guest used throughout the VM tests."""

    name = "counter"

    def __init__(self, reply_to="peer"):
        self.reply_to = reply_to
        self.ticks = 0
        self.packets = 0
        self.commands = []
        self.clock_values = []

    def on_start(self, api):
        api.set_timer(0.5)
        self.clock_values.append(api.read_clock())

    def on_event(self, api, event):
        if isinstance(event, TimerInterrupt):
            self.ticks += 1
            self.clock_values.append(api.read_clock())
            api.render_frame(5)
        elif isinstance(event, PacketDelivery):
            self.packets += 1
            api.send_packet(self.reply_to, b"reply:" + event.payload)
        elif isinstance(event, KeyboardInput):
            self.commands.append(event.command)
            api.write_disk(1, event.command.encode())

    def get_state(self):
        return {"ticks": self.ticks, "packets": self.packets,
                "commands": list(self.commands), "clock_values": list(self.clock_values),
                "reply_to": self.reply_to}

    def set_state(self, state):
        self.ticks = state["ticks"]
        self.packets = state["packets"]
        self.commands = list(state["commands"])
        self.clock_values = list(state["clock_values"])
        self.reply_to = state["reply_to"]


def make_image(**kwargs):
    return VMImage(name="counter-image", guest_factory=CounterGuest,
                   disk_blocks={0: b"boot"}, **kwargs)


class TestExecutionTimestamp:
    def test_equality_is_by_value(self):
        assert ExecutionTimestamp(3, 3) == ExecutionTimestamp(3, 3)
        assert ExecutionTimestamp(1, 0) != ExecutionTimestamp(1, 1)

    def test_dict_roundtrip(self):
        ts = ExecutionTimestamp(5, 7)
        assert ExecutionTimestamp.from_dict(ts.to_dict()) == ts

    def test_zero(self):
        assert ExecutionTimestamp.ZERO.instruction_count == 0


class TestEvents:
    def test_an_event_kind_with_no_log_record_is_refused(self):
        class Unrecorded(GuestEvent):
            kind = "unrecorded"

        recorder = ExecutionRecorder(TamperEvidentLog("m"))
        with pytest.raises(VMError, match="unrecorded"):
            recorder.record_guest_event(ExecutionTimestamp(1, 0), Unrecorded())
        assert len(recorder.log) == 0


class TestDevices:
    def test_disk_write(self):
        disk = VirtualDisk({0: b"boot"})
        disk.write(5, b"data")
        assert disk.get_state() == {"0": b"boot".hex(), "5": b"data".hex()}
        assert disk.writes == 1

    def test_disk_rejects_bad_usage(self):
        disk = VirtualDisk()
        with pytest.raises(DeviceError):
            disk.write(-1, b"x")
        with pytest.raises(DeviceError):
            disk.write(0, b"x" * (VirtualDisk.BLOCK_SIZE + 1))

    def test_disk_state_roundtrip(self):
        disk = VirtualDisk({0: b"a", 3: b"b"})
        other = VirtualDisk()
        other.set_state(disk.get_state())
        assert other.get_state() == disk.get_state()

    def test_nic_transmit(self):
        nic = VirtualNic()
        packet = nic.transmit("bob", b"hello")
        assert (packet.destination, packet.payload) == ("bob", b"hello")

    def test_timer_request(self):
        timer = VirtualTimer()
        timer.request(0.25)
        assert timer.interval == 0.25
        with pytest.raises(DeviceError):
            timer.request(0.0)

    def test_frame_counter(self):
        counter = FrameCounter()
        first = counter.render(3)
        second = counter.render(3)
        assert (first.frame_number, second.frame_number) == (1, 2)
        counter.restore(7)
        assert counter.frames == 7
        assert counter.render().frame_number == 8


class TestVirtualMachine:
    def test_start_required_before_events(self):
        vm = VirtualMachine(make_image(), FixedNondeterminismSource())
        with pytest.raises(VMError):
            vm.deliver_event(TimerInterrupt(1))

    def test_double_start_rejected(self):
        vm = VirtualMachine(make_image(), FixedNondeterminismSource())
        vm.start()
        with pytest.raises(VMError):
            vm.start()

    def test_timer_request_visible_to_host(self):
        vm = VirtualMachine(make_image(), FixedNondeterminismSource())
        vm.start()
        assert vm.timer.interval == 0.5

    def test_instruction_count_increases(self):
        vm = VirtualMachine(make_image(), FixedNondeterminismSource())
        vm.start()
        before = vm.execution_timestamp
        vm.deliver_event(TimerInterrupt(1))
        after = vm.execution_timestamp
        assert after.instruction_count > before.instruction_count
        assert after.branch_count == before.branch_count + 1

    def test_outputs_collected_per_event(self):
        vm = VirtualMachine(make_image(), FixedNondeterminismSource())
        vm.start()
        outputs = vm.deliver_event(PacketDelivery(source="x", payload=b"ping",
                                                  message_id="m1"))
        packets = [o for o in outputs if isinstance(o, PacketOutput)]
        assert len(packets) == 1
        assert packets[0].payload == b"reply:ping"

    def test_clock_values_come_from_source(self):
        vm = VirtualMachine(make_image(),
                            nondet_source=FixedNondeterminismSource([1.5, 2.5]))
        vm.start()
        vm.deliver_event(TimerInterrupt(1))
        assert vm.guest.clock_values == [1.5, 2.5]

    def test_clock_hook_can_rewrite_values(self):
        vm = VirtualMachine(make_image(),
                            nondeterminism := FixedNondeterminismSource(default=1.0))
        vm.set_clock_read_hook(lambda ts, value: value + 10.0)
        vm.start()
        assert vm.guest.clock_values == [11.0]

    def test_guest_exception_wrapped(self):
        class FailingGuest(CounterGuest):
            def on_event(self, api, event):
                raise RuntimeError("boom")

        image = VMImage(name="fail", guest_factory=FailingGuest)
        vm = VirtualMachine(image, FixedNondeterminismSource())
        vm.start()
        with pytest.raises(GuestError):
            vm.deliver_event(TimerInterrupt(1))

    def test_determinism_same_inputs_same_state(self):
        def run():
            vm = VirtualMachine(make_image(),
                                nondet_source=FixedNondeterminismSource(default=3.0))
            vm.start()
            vm.deliver_event(TimerInterrupt(1))
            vm.deliver_event(PacketDelivery(source="x", payload=b"a", message_id="m1"))
            vm.deliver_event(KeyboardInput(command="jump"))
            return vm.get_full_state()

        assert run() == run()

    def test_full_state_roundtrip(self):
        vm = VirtualMachine(make_image(),
                            nondet_source=FixedNondeterminismSource(default=1.0))
        vm.start()
        vm.deliver_event(TimerInterrupt(1))
        vm.deliver_event(KeyboardInput(command="duck"))
        state = vm.get_full_state()

        other = VirtualMachine(make_image(),
                               nondet_source=FixedNondeterminismSource(default=1.0))
        other.set_full_state(state)
        assert other.get_full_state() == state
        assert other.execution_timestamp == vm.execution_timestamp

    def test_set_full_state_rejects_garbage(self):
        vm = VirtualMachine(make_image(), FixedNondeterminismSource())
        with pytest.raises(VMError):
            vm.set_full_state({"guest": {}})

    def test_image_produces_guest_program(self):
        image = VMImage(name="bad", guest_factory=lambda: object())
        with pytest.raises(VMError):
            VirtualMachine(image, FixedNondeterminismSource())


class TestVMImage:
    def test_image_hash_stable(self):
        assert make_image().image_hash() == make_image().image_hash()

    def test_image_hash_depends_on_disk(self):
        assert make_image().image_hash() != \
            VMImage(name="counter-image", guest_factory=CounterGuest,
                    disk_blocks={0: b"other"}).image_hash()

    def test_image_hash_depends_on_policy(self):
        assert make_image().image_hash() != \
            make_image(allow_software_installation=True).image_hash()

    def test_initial_disk_is_a_copy(self):
        image = make_image()
        disk = image.initial_disk()
        disk[0] = b"mutated"
        assert image.initial_disk()[0] == b"boot"

    def test_same_as(self):
        assert make_image().image_hash() == make_image().image_hash()


class TestSnapshots:
    def test_paginate_covers_data(self):
        data = b"x" * 10000
        pages = paginate(data)
        assert b"".join(pages) == data
        assert len(pages) == 3

    def test_paginate_empty(self):
        assert paginate(b"") == [b""]

    def test_take_and_reconstruct(self):
        manager = SnapshotManager()
        state = {"a": 1, "nested": {"b": [1, 2, 3]}}
        snapshot = manager.take(state, ExecutionTimestamp(10, 1))
        assert snapshot.verify_root()
        assert manager.get(snapshot.snapshot_id).state == state

    def test_incremental_only_stores_changed_pages(self):
        manager = SnapshotManager()
        base = {"key": "A" * 10000, "counter": 0}
        manager.take(base, ExecutionTimestamp(1, 0))
        base["counter"] = 1
        second = manager.take(base, ExecutionTimestamp(2, 0))
        incremental = manager.get_incremental(second.snapshot_id)
        assert incremental.base_snapshot_id == 1
        assert 0 < len(incremental.changed_pages) < len(second.pages)

    def test_transfer_cost_includes_memory_dump(self):
        manager = SnapshotManager()
        manager.take({"a": 1}, ExecutionTimestamp(1, 0))
        incremental = manager.get_incremental(1)
        assert manager.transfer_cost_bytes(1) == incremental.transfer_bytes \
            > incremental.incremental_bytes

    def test_missing_snapshot_rejected(self):
        manager = SnapshotManager()
        with pytest.raises(SnapshotError):
            manager.get(1)
        with pytest.raises(SnapshotError):
            manager.get_incremental(1)

    def test_serialize_state_is_canonical(self):
        assert serialize_state({"b": 1, "a": 2}) == serialize_state({"a": 2, "b": 1})
