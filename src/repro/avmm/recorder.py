"""Execution recorder.

The recorder is the part of the AVMM that writes the *replay* stream of the
tamper-evident log: nondeterministic inputs with their precise execution
timestamps (TimeTracker entries), MAC-layer records of packets entering and
leaving the AVM, and snapshot hashes.  The *message* stream (SEND / RECV /
ACK entries) is written by the monitor itself because it is tied to the
acknowledgment protocol.

The split mirrors Figure 4 of the paper, which breaks the log down into
TimeTracker entries (~59 %), MAC-layer entries (~14 %), other replay entries
and tamper-evident-logging entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.crypto import hashing
from repro.errors import VMError
from repro.log.entries import EntryType, nondet_content, snapshot_content
from repro.log.tamper_evident import TamperEvidentLog
from repro.vm.events import GuestEvent, KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.execution import ExecutionTimestamp
from repro.vm.machine import UpstreamResponse


@dataclass
class RecorderStats:
    """Counters the performance model and experiments read."""

    clock_reads: int = 0
    timer_interrupts: int = 0
    packets_in: int = 0
    packets_out: int = 0
    keyboard_inputs: int = 0
    upstream_calls: int = 0
    snapshots: int = 0
    entries_written: int = 0
    bytes_written: int = 0


class ExecutionRecorder:
    """Writes replay information into a tamper-evident log."""

    def __init__(self, log: TamperEvidentLog, enabled: bool = True) -> None:
        self.log = log
        self.enabled = enabled
        self.stats = RecorderStats()

    # -- helpers ---------------------------------------------------------------

    def _append(self, entry_type: EntryType, content: Dict[str, Any]) -> None:
        entry = self.log.append(entry_type, content)
        self.stats.entries_written += 1
        self.stats.bytes_written += entry.size_bytes()

    # -- nondeterministic inputs -----------------------------------------------

    def record_clock_read(self, execution: ExecutionTimestamp, value: float) -> None:
        """Record the value returned by a guest clock read."""
        if not self.enabled:
            return
        self.stats.clock_reads += 1
        self._append(EntryType.TIMETRACKER, {
            "event_kind": "clock_read",
            "execution_counter": execution.instruction_count,
            "branch_counter": execution.branch_count,
            "value": value,
        })

    def record_timer_interrupt(self, execution: ExecutionTimestamp,
                               tick_number: int) -> None:
        """Record the injection point of a timer interrupt."""
        if not self.enabled:
            return
        self.stats.timer_interrupts += 1
        self._append(EntryType.TIMETRACKER, {
            "event_kind": "timer_interrupt",
            "execution_counter": execution.instruction_count,
            "branch_counter": execution.branch_count,
            "tick_number": tick_number,
        })

    def record_keyboard_input(self, execution: ExecutionTimestamp,
                              event: KeyboardInput) -> None:
        """Record a local input event (keystroke / mouse command)."""
        if not self.enabled:
            return
        self.stats.keyboard_inputs += 1
        self._append(EntryType.NONDET, nondet_content(
            event_kind="keyboard_input",
            execution_counter=execution.instruction_count,
            data={"command": event.command, "device": event.device,
                  "branch_counter": execution.branch_count},
        ))

    def record_upstream_call(self, execution: ExecutionTimestamp, service: str,
                             request: bytes, response: UpstreamResponse) -> None:
        """Record the response an external backend returned to the guest.

        The request itself is deterministic guest output, so only its hash is
        logged (enough for replay to verify the reference guest asked the
        same question); the response body and its modelled latency are the
        nondeterministic input replay must re-serve.
        """
        if not self.enabled:
            return
        self.stats.upstream_calls += 1
        self._append(EntryType.NONDET, nondet_content(
            event_kind="upstream_call",
            execution_counter=execution.instruction_count,
            data={"service": service,
                  "request_hash": hashing.hash_bytes(request).hex(),
                  "body": response.body.hex(),
                  "latency_cycles": response.latency_cycles,
                  "branch_counter": execution.branch_count},
        ))

    def record_packet_in(self, execution: ExecutionTimestamp,
                         event: PacketDelivery) -> None:
        """Record that a packet was injected into the AVM at this point.

        The payload itself lives in the corresponding RECV entry; the
        MAC-layer entry cross-references it by message id so an auditor can
        detect packets that were dropped, forged or modified between the
        tamper-evident log and the AVM (Section 4.4, "Detecting
        inconsistencies").
        """
        if not self.enabled:
            return
        self.stats.packets_in += 1
        self._append(EntryType.MACLAYER, {
            "direction": "in",
            "message_id": event.message_id,
            "source": event.source,
            "payload_size": len(event.payload),
            "execution_counter": execution.instruction_count,
            "branch_counter": execution.branch_count,
        })

    def record_packet_out(self, execution: ExecutionTimestamp, destination: str,
                          payload_hash: bytes, payload_size: int,
                          message_id: str) -> None:
        """Record that the AVM emitted a packet at this point."""
        if not self.enabled:
            return
        self.stats.packets_out += 1
        self._append(EntryType.MACLAYER, {
            "direction": "out",
            "message_id": message_id,
            "destination": destination,
            "payload_hash": payload_hash.hex(),
            "payload_size": payload_size,
            "execution_counter": execution.instruction_count,
            "branch_counter": execution.branch_count,
        })

    def record_guest_event(self, execution: ExecutionTimestamp,
                           event: GuestEvent) -> None:
        """Dispatch on the event type and record it appropriately."""
        if isinstance(event, TimerInterrupt):
            self.record_timer_interrupt(execution, event.tick_number)
        elif isinstance(event, PacketDelivery):
            self.record_packet_in(execution, event)
        elif isinstance(event, KeyboardInput):
            self.record_keyboard_input(execution, event)
        else:
            raise VMError(f"no log record for a {event.kind!r} event")

    # -- snapshots ----------------------------------------------------------------

    def record_snapshot(self, snapshot_id: int, state_root: bytes,
                        execution: ExecutionTimestamp) -> None:
        """Record the hash-tree root of a snapshot (always logged, even when
        replay recording is disabled, because the snapshot chain is part of the
        tamper-evident stream)."""
        self.stats.snapshots += 1
        self._append(EntryType.SNAPSHOT, snapshot_content(
            snapshot_id=snapshot_id,
            state_root=state_root,
            execution_counter=execution.instruction_count,
        ))
