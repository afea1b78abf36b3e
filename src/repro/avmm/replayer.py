"""Deterministic replay of a recorded log.

The replayer is the heart of the semantic check (Section 4.5): it instantiates
a fresh virtual machine from the *reference* image (or from a verified
snapshot), re-injects every recorded nondeterministic input at exactly the
recorded execution timestamp, and cross-checks

* the execution timestamps of every clock read and event injection,
* every packet the replayed guest emits against the recorded MAC-layer /
  SEND entries, and
* every snapshot hash recorded in the log against the replayed state.

*If there is any discrepancy whatsoever ... replay terminates and reports a
fault.*  The replayer therefore never guesses: the first mismatch produces a
:class:`Divergence` describing what was expected and what the reference
execution actually did.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto import hashing
from repro.errors import ReplayInputError
from repro.log.entries import EntryType, LogEntry
from repro.log.segments import LogSegment
from repro.vm.events import GuestEvent, KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.execution import ExecutionTimestamp
from repro.vm.guest import PacketOutput
from repro.vm.image import VMImage
from repro.vm.machine import NondeterminismSource, UpstreamResponse, VirtualMachine
from repro.vm.snapshot import IncrementalStateHasher


@dataclass(frozen=True)
class Divergence:
    """A single observed difference between the log and the replayed execution."""

    reason: str
    sequence: Optional[int] = None
    expected: Any = None
    actual: Any = None

    def describe(self) -> str:
        parts = [self.reason]
        if self.sequence is not None:
            parts.append(f"(log sequence {self.sequence})")
        if self.expected is not None or self.actual is not None:
            parts.append(f"expected={self.expected!r} actual={self.actual!r}")
        return " ".join(parts)


@dataclass
class ReplayReport:
    """Outcome of replaying one log segment."""

    machine: str
    entries_replayed: int = 0
    events_injected: int = 0
    clock_reads_served: int = 0
    upstream_calls_served: int = 0
    outputs_checked: int = 0
    snapshots_checked: int = 0
    instructions_executed: int = 0
    active_seconds: float = 0.0
    divergence: Optional[Divergence] = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    @property
    def ok(self) -> bool:
        return self.divergence is None


# Items in the replay schedule -------------------------------------------------

@dataclass
class _ClockItem:
    sequence: int
    expected_instructions: int
    value: float


@dataclass
class _InjectItem:
    sequence: int
    expected_instructions: int
    event: GuestEvent


@dataclass
class _UpstreamItem:
    sequence: int
    expected_instructions: int
    service: str
    request_hash: str
    body: bytes
    latency_cycles: int


@dataclass
class _OutputItem:
    sequence: int
    destination: str
    payload_hash: str
    payload_size: int


@dataclass
class _SnapshotItem:
    sequence: int
    snapshot_id: int
    state_root: str


class _ReplayClockSource(NondeterminismSource):
    """Serves recorded nondeterministic inputs and checks their timing.

    Clock reads and upstream-call responses are both re-served from the log
    in their recorded order; the first read or call that happens at a
    different execution point — or asks an upstream service a different
    question — than the recording is a divergence.
    """

    def __init__(self, items: List[_ClockItem],
                 upstream_items: Optional[List[_UpstreamItem]] = None) -> None:
        self._items = items
        self._index = 0
        self._upstream_items = upstream_items or []
        self._upstream_index = 0
        self.served = 0
        self.upstream_served = 0
        self.divergence: Optional[Divergence] = None

    def clock_read(self, timestamp: ExecutionTimestamp) -> float:
        if self._index >= len(self._items):
            if self.divergence is None:
                self.divergence = Divergence(
                    reason="guest performed a clock read that is not in the log",
                    actual=timestamp.instruction_count)
            return 0.0
        item = self._items[self._index]
        self._index += 1
        self.served += 1
        if item.expected_instructions != timestamp.instruction_count \
                and self.divergence is None:
            self.divergence = Divergence(
                reason="clock read occurred at a different execution point than recorded",
                sequence=item.sequence,
                expected=item.expected_instructions,
                actual=timestamp.instruction_count)
        return item.value

    def upstream_call(self, timestamp: ExecutionTimestamp, service: str,
                      request: bytes) -> UpstreamResponse:
        if self._upstream_index >= len(self._upstream_items):
            if self.divergence is None:
                self.divergence = Divergence(
                    reason="guest performed an upstream call that is not in the log",
                    actual=(service, timestamp.instruction_count))
            return UpstreamResponse(body=b"", latency_cycles=0)
        item = self._upstream_items[self._upstream_index]
        self._upstream_index += 1
        self.upstream_served += 1
        if item.expected_instructions != timestamp.instruction_count \
                and self.divergence is None:
            self.divergence = Divergence(
                reason="upstream call occurred at a different execution point "
                       "than recorded",
                sequence=item.sequence,
                expected=item.expected_instructions,
                actual=timestamp.instruction_count)
        actual_hash = hashing.hash_bytes(request).hex()
        if (item.service != service or item.request_hash != actual_hash) \
                and self.divergence is None:
            self.divergence = Divergence(
                reason="upstream request differs from the recorded one",
                sequence=item.sequence,
                expected=(item.service, item.request_hash),
                actual=(service, actual_hash))
        return UpstreamResponse(body=item.body,
                                latency_cycles=item.latency_cycles)

    @property
    def remaining(self) -> int:
        return len(self._items) - self._index

    @property
    def upstream_remaining(self) -> int:
        return len(self._upstream_items) - self._upstream_index


class DeterministicReplayer:
    """Replays a log segment against a reference image."""

    def __init__(self, reference_image: VMImage) -> None:
        self.reference_image = reference_image

    # -- public API -------------------------------------------------------------

    def replay(self, segment: LogSegment,
               initial_state: Optional[Dict[str, Any]] = None,
               in_flight: Sequence[LogEntry] = ()) -> ReplayReport:
        """Replay ``segment`` and cross-check it against the reference image.

        ``initial_state`` is the verified snapshot state at the beginning of
        the segment; when ``None`` the segment is assumed to start at the
        beginning of the execution and the reference image's initial state is
        used (Section 4.5, "Verifying the snapshot").  ``in_flight`` are RECV
        entries that precede the segment — a chunked audit passes the ones
        whose packet had not entered the AVM at the chunk boundary, so a
        MAC-layer injection just after it resolves exactly as it does in a
        whole-log replay.
        """
        report = ReplayReport(machine=segment.machine,
                              entries_replayed=len(segment.entries))
        try:
            clock_items, upstream_items, schedule, outputs, active_seconds = \
                self._build_schedule(segment, in_flight)
        except ReplayInputError as exc:
            # A log whose replay stream references messages that were never
            # logged is inconsistent by construction (Section 4.4, "Detecting
            # inconsistencies"): report it as a divergence rather than failing.
            report.divergence = Divergence(reason=str(exc))
            return report
        clock_source = _ReplayClockSource(clock_items, upstream_items)

        vm = VirtualMachine(self.reference_image, nondet_source=clock_source)
        output_cursor = 0
        # Replay-side hash-tree maintenance mirrors the recording side: at
        # each SNAPSHOT entry the replayed state is serialised, its pages
        # diffed, and the tree *repaired* at the changed pages only.
        state_hasher = IncrementalStateHasher()

        if initial_state is not None:
            # Deep-copy so replay cannot mutate the caller's snapshot (guests
            # restore nested structures by reference).
            vm.set_full_state(copy.deepcopy(initial_state))
            start_outputs: List[PacketOutput] = []
        else:
            start_outputs = [o for o in vm.start() if isinstance(o, PacketOutput)]

        report.active_seconds = active_seconds

        divergence = self._check_outputs(start_outputs, outputs, output_cursor, report)
        output_cursor += len(start_outputs)
        if divergence is not None:
            report.divergence = divergence
            return report

        for item in schedule:
            if isinstance(item, _SnapshotItem):
                divergence = self._check_snapshot(vm, item, state_hasher)
                if divergence is not None:
                    report.divergence = divergence
                    return report
                report.snapshots_checked += 1
                continue

            # Event injection: the execution timestamp must match the recording.
            if vm.instruction_count != item.expected_instructions:
                report.divergence = Divergence(
                    reason="event injected at a different execution point than recorded",
                    sequence=item.sequence,
                    expected=item.expected_instructions,
                    actual=vm.instruction_count)
                return report
            try:
                produced = vm.deliver_event(item.event)
            except Exception as exc:  # noqa: BLE001 - reference guest failed
                report.divergence = Divergence(
                    reason=f"reference execution failed while handling the event: {exc}",
                    sequence=item.sequence)
                return report
            report.events_injected += 1
            packet_outputs = [o for o in produced if isinstance(o, PacketOutput)]
            if packet_outputs:
                divergence = self._check_outputs(packet_outputs, outputs,
                                                 output_cursor, report)
                output_cursor += len(packet_outputs)
                if divergence is not None:
                    report.divergence = divergence
                    return report
            if clock_source.divergence is not None:
                report.divergence = clock_source.divergence
                return report

        # All inputs replayed: there must be no unmatched recorded outputs,
        # clock reads or upstream calls left over.
        report.clock_reads_served = clock_source.served
        report.upstream_calls_served = clock_source.upstream_served
        report.instructions_executed = vm.instruction_count
        if output_cursor < len(outputs):
            report.divergence = Divergence(
                reason="log records messages the reference execution never sent",
                sequence=outputs[output_cursor].sequence,
                expected=outputs[output_cursor].payload_hash)
            return report
        if clock_source.remaining > 0:
            report.divergence = Divergence(
                reason="log records clock reads the reference execution never performed")
            return report
        if clock_source.upstream_remaining > 0:
            report.divergence = Divergence(
                reason="log records upstream calls the reference execution "
                       "never performed")
            return report
        if clock_source.divergence is not None:
            report.divergence = clock_source.divergence
        return report

    # -- schedule construction ----------------------------------------------------

    def _build_schedule(self, segment: LogSegment,
                        in_flight: Sequence[LogEntry] = ()) -> Tuple[
            List[_ClockItem], List[_UpstreamItem], List[Any], List[_OutputItem],
            float]:
        """Split the log into served inputs, injections/snapshots and
        outputs, and count its active seconds.

        The one parser of replay inputs: an entry field that does not
        convert is a :class:`ReplayInputError` naming the entry.
        """
        clock_items: List[_ClockItem] = []
        upstream_items: List[_UpstreamItem] = []
        schedule: List[Any] = []
        outputs: List[_OutputItem] = []
        payloads: Dict[str, bytes] = {}
        buckets = set()
        recv, timetracker, maclayer, nondet, snapshot = (
            EntryType.RECV, EntryType.TIMETRACKER, EntryType.MACLAYER,
            EntryType.NONDET, EntryType.SNAPSHOT)
        entry = None
        try:
            for entry in chain(in_flight, segment.entries):
                if entry.entry_type is recv:
                    content = entry.content
                    payload_hex = content.get("payload")
                    if payload_hex is not None:
                        payloads[str(content["message_id"])] = \
                            bytes.fromhex(payload_hex)
            for entry in segment.entries:
                # Replay skips the periods the CPU was idle (Section 6.6):
                # "active" is the number of distinct one-second buckets
                # that hold at least one log entry.
                buckets.add(int(entry.timestamp))
                entry_type = entry.entry_type
                if entry_type is timetracker:
                    content = entry.content
                    kind = content.get("event_kind")
                    if kind == "clock_read":
                        clock_items.append(_ClockItem(
                            entry.sequence, int(content["execution_counter"]),
                            float(content["value"])))
                    elif kind == "timer_interrupt":
                        schedule.append(_InjectItem(
                            entry.sequence, int(content["execution_counter"]),
                            TimerInterrupt(int(content["tick_number"]))))
                elif entry_type is maclayer:
                    content = entry.content
                    if content.get("direction") == "in":
                        message_id = str(content["message_id"])
                        payload = payloads.get(message_id)
                        if payload is None:
                            raise ReplayInputError(
                                f"MAC-layer entry {entry.sequence} references "
                                f"message {message_id!r} with no matching "
                                f"RECV entry")
                        schedule.append(_InjectItem(
                            entry.sequence, int(content["execution_counter"]),
                            PacketDelivery(str(content["source"]), payload,
                                           message_id)))
                    else:
                        outputs.append(_OutputItem(
                            entry.sequence, str(content["destination"]),
                            str(content["payload_hash"]),
                            int(content["payload_size"])))
                elif entry_type is nondet:
                    content = entry.content
                    kind = content.get("event_kind")
                    if kind == "keyboard_input":
                        data = content.get("data", {})
                        schedule.append(_InjectItem(
                            entry.sequence, int(content["execution_counter"]),
                            KeyboardInput(str(data.get("command", "")),
                                          str(data.get("device", "keyboard")))))
                    elif kind == "upstream_call":
                        data = content.get("data", {})
                        upstream_items.append(_UpstreamItem(
                            entry.sequence, int(content["execution_counter"]),
                            str(data.get("service", "")),
                            str(data.get("request_hash", "")),
                            bytes.fromhex(str(data.get("body", ""))),
                            int(data.get("latency_cycles", 0))))
                elif entry_type is snapshot:
                    content = entry.content
                    schedule.append(_SnapshotItem(
                        entry.sequence, int(content["snapshot_id"]),
                        str(content["state_root"])))
        except (KeyError, ValueError, TypeError, OverflowError,
                AttributeError) as exc:
            raise ReplayInputError(
                f"entry {entry.sequence} ({entry.entry_type.wire_name}) "
                f"carries a replay input that does not parse: "
                f"{type(exc).__name__}: {exc}") from exc
        return (clock_items, upstream_items, schedule, outputs,
                float(len(buckets)))

    # -- checks ----------------------------------------------------------------------

    @staticmethod
    def _check_outputs(produced: List[PacketOutput], expected: List[_OutputItem],
                       cursor: int, report: ReplayReport) -> Optional[Divergence]:
        for offset, packet in enumerate(produced):
            index = cursor + offset
            if index >= len(expected):
                return Divergence(
                    reason="reference execution sent a message that is not in the log",
                    actual=packet.destination)
            item = expected[index]
            actual_hash = hashing.hash_bytes(packet.payload).hex()
            if item.destination != packet.destination or item.payload_hash != actual_hash:
                return Divergence(
                    reason="outgoing message differs from the recorded one",
                    sequence=item.sequence,
                    expected=(item.destination, item.payload_hash),
                    actual=(packet.destination, actual_hash))
            report.outputs_checked += 1
        return None

    @staticmethod
    def _check_snapshot(vm: VirtualMachine, item: _SnapshotItem,
                        state_hasher: IncrementalStateHasher) -> Optional[Divergence]:
        _, _, root_bytes = state_hasher.update(vm.get_full_state())
        root = root_bytes.hex()
        if root != item.state_root:
            return Divergence(
                reason="snapshot hash does not match the replayed state",
                sequence=item.sequence,
                expected=item.state_root,
                actual=root)
        return None
