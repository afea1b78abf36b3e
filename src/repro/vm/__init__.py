"""Virtual machine substrate.

The paper's AVMM wraps VMware Workstation; the reproduction wraps this
package.  A *guest program* is a deterministic, event-driven state machine
(:class:`~repro.vm.guest.GuestProgram`).  The :class:`~repro.vm.machine.VirtualMachine`
executes it, counting abstract instructions and branches so that asynchronous
events can be injected at an exact point in the execution
(:class:`~repro.vm.execution.ExecutionTimestamp`), which is what makes
deterministic replay possible.

All nondeterministic inputs (clock reads, packet deliveries, timer interrupts,
key input) flow through an :class:`~repro.vm.machine.NondeterminismSource`
so the AVMM can either record them (live run) or re-inject them (replay).
"""

from repro.vm.events import (
    GuestEvent,
    KeyboardInput,
    PacketDelivery,
    TimerInterrupt,
)
from repro.vm.execution import ExecutionTimestamp
from repro.vm.guest import GuestProgram, MachineApi, Output, PacketOutput, FrameOutput
from repro.vm.image import VMImage
from repro.vm.machine import LiveNondeterminismSource, NondeterminismSource, VirtualMachine
from repro.vm.snapshot import (
    IncrementalSnapshot,
    IncrementalStateHasher,
    Snapshot,
    SnapshotManager,
    apply_delta,
)

__all__ = [
    "GuestEvent",
    "PacketDelivery",
    "TimerInterrupt",
    "KeyboardInput",
    "ExecutionTimestamp",
    "GuestProgram",
    "MachineApi",
    "Output",
    "PacketOutput",
    "FrameOutput",
    "VMImage",
    "VirtualMachine",
    "NondeterminismSource",
    "LiveNondeterminismSource",
    "Snapshot",
    "IncrementalSnapshot",
    "IncrementalStateHasher",
    "SnapshotManager",
    "apply_delta",
]
