"""The virtual machine.

:class:`VirtualMachine` executes a guest program from a :class:`VMImage`,
counting abstract instructions and branches, and routing every
nondeterministic input through a :class:`NondeterminismSource`.  During a live
run the source reads the host clock (and the AVMM wraps it to record every
value); during replay the source is backed by the recorded log, so the guest
observes exactly the same inputs and — being deterministic — produces exactly
the same outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import GuestError, VMError
from repro.vm.devices import FrameCounter, VirtualDisk, VirtualNic, VirtualTimer
from repro.vm.events import GuestEvent, PacketDelivery, TimerInterrupt
from repro.vm.execution import ExecutionTimestamp
from repro.vm.guest import DiskWriteOutput, MachineApi, Output
from repro.vm.image import VMImage

# Abstract instruction costs charged for each API operation.  The absolute
# values only matter for the performance model; what matters for replay is
# that they are identical during recording and replay.
_COST_CLOCK_READ = 5
_COST_SEND_PACKET = 20
_COST_RENDER_BASE = 50
_COST_DISK_OP = 10
_COST_EVENT_DELIVERY = 10
_COST_UPSTREAM_CALL = 30


@dataclass(frozen=True)
class UpstreamResponse:
    """What an external backend returned to an upstream call.

    ``latency_cycles`` is the backend's modelled service time expressed in
    abstract guest cycles.  It is charged to the instruction counter (and
    therefore recorded), so replay advances the execution timestamp exactly
    as the original run did even though the backend itself is gone.
    """

    body: bytes
    latency_cycles: int = 0


#: an external backend: (service, request) -> UpstreamResponse
UpstreamBackend = Callable[[str, bytes], UpstreamResponse]


class NondeterminismSource:
    """Where the VM gets answers for nondeterministic inputs."""

    def clock_read(self, timestamp: ExecutionTimestamp) -> float:
        """Value returned to the guest for a clock read at ``timestamp``."""
        raise NotImplementedError

    def upstream_call(self, timestamp: ExecutionTimestamp, service: str,
                      request: bytes) -> UpstreamResponse:
        """Response served to the guest for an upstream call at ``timestamp``."""
        raise VMError(
            f"no upstream backend available for service {service!r}")


class LiveNondeterminismSource(NondeterminismSource):
    """Live source: reads a host clock callable.

    Guest instructions take time even when the simulated scheduler has not
    advanced (e.g. a busy-wait loop inside a single event delivery), so the
    value returned is the host clock plus the time corresponding to the
    instructions the guest has executed so far.  Both components are monotone,
    so guest-visible time never goes backwards.
    """

    def __init__(self, host_clock: Callable[[], float],
                 instruction_seconds: float = 2.0e-8) -> None:
        self._host_clock = host_clock
        self._instruction_seconds = instruction_seconds
        self._upstream_backend: Optional[UpstreamBackend] = None

    def clock_read(self, timestamp: ExecutionTimestamp) -> float:
        return self._host_clock() + timestamp.instruction_count * self._instruction_seconds

    def attach_upstream_backend(self, backend: UpstreamBackend) -> None:
        """Route the guest's upstream calls to ``backend``."""
        self._upstream_backend = backend

    def upstream_call(self, timestamp: ExecutionTimestamp, service: str,
                      request: bytes) -> UpstreamResponse:
        if self._upstream_backend is None:
            raise VMError(
                f"no upstream backend attached for service {service!r}")
        return self._upstream_backend(service, request)


class FixedNondeterminismSource(NondeterminismSource):
    """Testing source that returns a constant or scripted sequence of values."""

    def __init__(self, values: Optional[List[float]] = None, default: float = 0.0,
                 upstream_responses: Optional[List[UpstreamResponse]] = None) -> None:
        self._values = list(values or [])
        self._default = default
        self._index = 0
        self._upstream = list(upstream_responses or [])
        self._upstream_index = 0

    def clock_read(self, timestamp: ExecutionTimestamp) -> float:
        if self._index < len(self._values):
            value = self._values[self._index]
            self._index += 1
            return value
        return self._default

    def upstream_call(self, timestamp: ExecutionTimestamp, service: str,
                      request: bytes) -> UpstreamResponse:
        if self._upstream_index < len(self._upstream):
            response = self._upstream[self._upstream_index]
            self._upstream_index += 1
            return response
        return UpstreamResponse(body=b"", latency_cycles=0)


class VirtualMachine:
    """Executes one guest program deterministically."""

    def __init__(self, image: VMImage,
                 nondet_source: Optional[NondeterminismSource] = None) -> None:
        self.image = image
        self.guest = image.instantiate()
        self.disk = VirtualDisk(image.initial_disk())
        self.nic = VirtualNic()
        self.timer = VirtualTimer()
        self.frame_counter = FrameCounter()
        self.nondet_source = nondet_source or FixedNondeterminismSource()
        self._instruction_count = 0
        self._branch_count = 0
        self._started = False
        self._output_buffer: List[Output] = []
        self._api = _Api(self)
        self._clock_read_hook: Optional[Callable[[ExecutionTimestamp, float], float]] = None
        self._upstream_call_hook: Optional[
            Callable[[ExecutionTimestamp, str, bytes, UpstreamResponse], None]] = None

    # -- execution ----------------------------------------------------------

    @property
    def execution_timestamp(self) -> ExecutionTimestamp:
        """The current point in the guest's execution."""
        return ExecutionTimestamp(self._instruction_count, self._branch_count)

    @property
    def instruction_count(self) -> int:
        """The instruction count of :attr:`execution_timestamp`, without
        building the timestamp."""
        return self._instruction_count

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> List[Output]:
        """Run the guest's start-up code; returns any outputs it produced."""
        if self._started:
            raise VMError("virtual machine already started")
        self._started = True
        self._output_buffer = []
        try:
            self.guest.on_start(self._api)
        except Exception as exc:  # noqa: BLE001 - guest code is untrusted
            raise GuestError(f"guest {self.guest.name!r} failed during start: {exc}") from exc
        return self._drain_outputs()

    def deliver_event(self, event: GuestEvent) -> List[Output]:
        """Deliver one asynchronous event and return the outputs it produced."""
        if not self._started:
            raise VMError("virtual machine has not been started")
        self._branch_count += 1
        self._instruction_count += _COST_EVENT_DELIVERY
        self._output_buffer = []
        if isinstance(event, PacketDelivery):
            self.nic.note_received(len(event.payload))
        try:
            self.guest.on_event(self._api, event)
        except Exception as exc:  # noqa: BLE001 - guest code is untrusted
            raise GuestError(
                f"guest {self.guest.name!r} failed handling {event.kind}: {exc}") from exc
        if isinstance(event, TimerInterrupt):
            self.timer.note_tick()
        return self._drain_outputs()

    def set_clock_read_hook(
            self, hook: Optional[Callable[[ExecutionTimestamp, float], float]]) -> None:
        """Install a hook invoked on every clock read.

        The hook receives the execution timestamp and the value the source
        produced and returns the value actually handed to the guest.  The AVMM
        uses it both to record clock reads and to implement the clock-read
        delay optimisation of Section 6.5.
        """
        self._clock_read_hook = hook

    def set_upstream_call_hook(
            self, hook: Optional[Callable[
                [ExecutionTimestamp, str, bytes, UpstreamResponse], None]]) -> None:
        """Install a hook invoked on every upstream call.

        The hook receives the execution timestamp, the service name, the
        request bytes and the response the source produced.  The AVMM uses it
        to record the response as a nondeterministic input.
        """
        self._upstream_call_hook = hook

    def _drain_outputs(self) -> List[Output]:
        outputs, self._output_buffer = self._output_buffer, []
        return outputs

    # -- state / snapshots ---------------------------------------------------

    def get_full_state(self) -> Dict[str, Any]:
        """The complete serialisable machine state (guest + devices + counters)."""
        return {
            "guest": self.guest.get_state(),
            "disk": self.disk.get_state(),
            "instruction_count": self._instruction_count,
            "branch_count": self._branch_count,
            "frames": self.frame_counter.frames,
            "timer_interval": self.timer.interval,
            "started": self._started,
        }

    def set_full_state(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`get_full_state`."""
        try:
            self.guest.set_state(state["guest"])
            self.disk.set_state(state["disk"])
            self._instruction_count = int(state["instruction_count"])
            self._branch_count = int(state["branch_count"])
            self._started = bool(state["started"])
            self.frame_counter.restore(int(state["frames"]))
            interval = state.get("timer_interval")
            self.timer.interval = float(interval) if interval is not None else None
        except (KeyError, TypeError, ValueError) as exc:
            raise VMError(f"malformed VM state: {exc}") from exc

    # -- internal API callbacks ----------------------------------------------

    def _do_clock_read(self) -> float:
        self._instruction_count += _COST_CLOCK_READ
        timestamp = self.execution_timestamp
        value = self.nondet_source.clock_read(timestamp)
        if self._clock_read_hook is not None:
            value = self._clock_read_hook(timestamp, value)
        return value

    def _do_send_packet(self, destination: str, payload: bytes) -> None:
        self._instruction_count += _COST_SEND_PACKET + len(payload) // 64
        packet = self.nic.transmit(destination, payload)
        self._output_buffer.append(packet)

    def _do_render_frame(self, scene_complexity: int) -> int:
        self._instruction_count += _COST_RENDER_BASE + max(0, scene_complexity)
        frame = self.frame_counter.render(scene_complexity)
        self._output_buffer.append(frame)
        return frame.frame_number

    def _do_write_disk(self, block: int, data: bytes) -> None:
        self._instruction_count += _COST_DISK_OP + len(data) // 256
        self.disk.write(block, data)
        self._output_buffer.append(DiskWriteOutput(block=block, data=bytes(data)))

    def _do_consume_cycles(self, cycles: int) -> None:
        if cycles < 0:
            raise GuestError(f"cannot consume a negative number of cycles: {cycles}")
        self._instruction_count += cycles

    def _do_upstream_call(self, service: str, request: bytes) -> bytes:
        # The call cost is charged *before* the timestamp is taken, so the
        # recorded execution counter pins the exact point at which the source
        # was consulted — replay re-queries at the same counter.
        self._instruction_count += _COST_UPSTREAM_CALL + len(request) // 64
        timestamp = self.execution_timestamp
        response = self.nondet_source.upstream_call(timestamp, service, request)
        if self._upstream_call_hook is not None:
            self._upstream_call_hook(timestamp, service, request, response)
        # The backend's modelled latency (recorded in the response) is charged
        # as guest cycles, so replay advances the counter identically without
        # the backend being present.
        self._instruction_count += response.latency_cycles + len(response.body) // 64
        return response.body

    def _do_set_timer(self, interval: float) -> None:
        self._instruction_count += 1
        self.timer.request(interval)


class _Api(MachineApi):
    """Concrete :class:`MachineApi` bound to one :class:`VirtualMachine`."""

    def __init__(self, vm: VirtualMachine) -> None:
        self._vm = vm

    def read_clock(self) -> float:
        return self._vm._do_clock_read()

    def send_packet(self, destination: str, payload: bytes) -> None:
        self._vm._do_send_packet(destination, payload)

    def render_frame(self, scene_complexity: int = 0) -> int:
        return self._vm._do_render_frame(scene_complexity)

    def write_disk(self, block: int, data: bytes) -> None:
        self._vm._do_write_disk(block, data)

    def consume_cycles(self, cycles: int) -> None:
        self._vm._do_consume_cycles(cycles)

    def set_timer(self, interval: float) -> None:
        self._vm._do_set_timer(interval)

    def upstream_call(self, service: str, request: bytes) -> bytes:
        return self._vm._do_upstream_call(service, request)
