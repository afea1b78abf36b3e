"""The accountable virtual machine monitor.

:class:`AccountableVMM` wraps one :class:`~repro.vm.machine.VirtualMachine`
and implements the machinery of Sections 4.3–4.4:

* every nondeterministic input (clock reads, timer interrupts, packet
  deliveries, local input) is recorded with its execution timestamp;
* every incoming and outgoing message is entered into the tamper-evident log;
  an outgoing message carries the authenticator of its SEND entry — that one
  signature *is* the sender's commitment to the message — and, through an
  ack run, acknowledges every RECV entry still owed to that peer; only a
  RECV that waited :attr:`AccountableVMM.ack_hold` for such a message gets
  a standalone acknowledgment (docs/message-protocol.md);
* the AVM state is snapshotted periodically, and the hash-tree root of each
  snapshot is logged;
* the monitor keeps the authenticators it has received from its peers so the
  machine's owner can later audit those peers (Section 4.6).

The same class also runs the degraded configurations of the evaluation
(``bare-hw``, ``vmware-norec``, ``vmware-rec``): the corresponding
:class:`~repro.avmm.config.AvmmConfig` switches the tamper-evident and
recording features off, which lets every experiment use identical wiring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.avmm.clockopt import ClockReadOptimizer
from repro.avmm.config import AvmmConfig
from repro.avmm.recorder import ExecutionRecorder
from repro.crypto import hashing
from repro.crypto.keys import KeyPair, KeyStore
from repro.errors import LogFormatError, VMError
from repro.log.authenticator import (MAX_ACK_RUN_LINKS, AckRun, Authenticator,
                                     build_run, chain_run,
                                     committed_authenticator, send_commitment)
from repro.log.codec import get_codec, require_format_version
from repro.log.entries import (EntryType, LogEntry, ack_content,
                               encode_recv_content, send_content)
from repro.log.segments import LogSegment
from repro.log.storage import authenticators_to_bytes
from repro.log.tamper_evident import TamperEvidentLog
from repro.metrics.perfmodel import PerfModel
from repro.network.channel import ReliableChannel
from repro.network.message import MessageKind, NetworkMessage
from repro.network.shipment import PartKind, ShipmentPart, encode_shipment
from repro.network.simnet import SimulatedNetwork
from repro.sim.clock import HostClock
from repro.sim.process import Process
from repro.sim.scheduler import ScheduledEvent, Scheduler
from repro.vm.events import GuestEvent, KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.guest import FrameOutput, Output, PacketOutput
from repro.vm.image import VMImage
from repro.vm.machine import (LiveNondeterminismSource, UpstreamBackend,
                              UpstreamResponse, VirtualMachine)
from repro.vm.snapshot import SnapshotManager

_monitor_ids = itertools.count(1)


@dataclass
class MonitorStats:
    """Work counters the metrics layer and experiments read."""

    messages_sent: int = 0
    messages_received: int = 0
    #: messages acknowledged / own messages a peer acknowledged
    acks_sent: int = 0
    acks_received: int = 0
    #: of ``acks_sent``, those that rode a DATA message under its signature
    acks_piggybacked: int = 0
    #: standalone ACK envelopes sent, each under a signature of its own
    acks_standalone: int = 0
    #: acknowledgments refused whole (run or signed entry did not check out)
    acks_rejected: int = 0
    signatures_generated: int = 0
    signatures_verified: int = 0
    guest_events_delivered: int = 0
    frames_rendered: int = 0
    daemon_cpu_seconds: float = 0.0
    vmm_cpu_seconds: float = 0.0
    suspected_peers: List[str] = field(default_factory=list)


class AccountableVMM:
    """One machine: host hardware + (A)VMM + guest image."""

    def __init__(self, identity: str, image: VMImage, config: AvmmConfig,
                 scheduler: Scheduler, network: Optional[SimulatedNetwork] = None,
                 keypair: Optional[KeyPair] = None,
                 keystore: Optional[KeyStore] = None,
                 clock_offset: float = 0.0, clock_drift: float = 0.0) -> None:
        self.identity = identity
        self.image = image
        self.config = config
        self.scheduler = scheduler
        self.network = network
        self.keypair = keypair
        self.keystore = keystore
        self.perf = PerfModel.for_config(config)
        self.stats = MonitorStats()

        self.host_clock = HostClock(scheduler.clock, offset=clock_offset,
                                    drift=clock_drift)
        self.vm = VirtualMachine(image, LiveNondeterminismSource(self.host_clock.read))
        self.vm.set_clock_read_hook(self._on_clock_read)
        self.vm.set_upstream_call_hook(self._on_upstream_call)

        log_keypair = keypair if config.signs_packets else None
        # A bound method, not a lambda: the log must survive pickling on the
        # process-pool audit path (PR 2's picklable-clock guarantee).
        self.log = TamperEvidentLog(identity, keypair=log_keypair,
                                    clock=scheduler.clock.read)
        self.recorder = ExecutionRecorder(self.log, enabled=config.record_replay_info)
        self.snapshots = SnapshotManager()
        self.clock_optimizer = ClockReadOptimizer(enabled=config.clock_read_optimization)

        self.channel: Optional[ReliableChannel] = None
        if network is not None:
            self.channel = ReliableChannel(
                network, identity,
                retransmit_interval=config.retransmit_interval,
                max_retransmits=config.max_retransmits,
                on_give_up=self._on_give_up)
            network.register(identity, self.on_network_message,
                             uses_tcp=config.tamper_evident)

        #: authenticators received from peers, keyed by peer identity
        self.received_authenticators: Dict[str, List[Authenticator]] = {}
        #: messages received, by id (payload needed to forward challenges etc.)
        self._seen_message_ids: set[str] = set()
        #: RECV entry sequence for each message id (to re-ack retransmissions)
        self._recv_entry_for: Dict[str, int] = {}
        #: per peer and message in flight to it: the hash of the RECV
        #: content the peer's acknowledgment must commit to
        self._expected_receipts: Dict[str, Dict[str, bytes]] = {}
        #: the same for the last MAX_ACK_RUN_LINKS messages each peer has
        #: acknowledged: a late run naming them still chains, and clears
        #: nothing twice
        self._cleared_receipts: Dict[str, Dict[str, bytes]] = {}
        #: RECV entries not yet acknowledged, per peer (sequence -> message
        #: id, oldest first), and the hold timer running for each such peer
        self._owed: Dict[str, Dict[int, str]] = {}
        self._ack_timers: Dict[str, ScheduledEvent] = {}
        self._timer_process: Optional[Process] = None
        self._snapshot_process: Optional[Process] = None
        self._timer_ticks = 0
        self._running = False

        #: archive shipping state (attach_archive_shipper)
        self._archive_destination: Optional[str] = None
        self._archive_format_version = 1
        self._shipped_through = 0
        self._shipped_auth_counts: Dict[str, int] = {}
        #: snapshot ids not shipped yet, in order — the one just taken, and
        #: those of dropped shipments: the archive's delta chain tolerates
        #: no holes
        self._pending_snapshot_ships: List[int] = []
        #: False until the archive holds a snapshot to base deltas on; the
        #: first shipment after (re)attaching is forced to be a keyframe
        self._snapshot_ship_anchored = False

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Boot the guest and start timer/snapshot processes."""
        if self._running:
            raise VMError(f"monitor {self.identity!r} already started")
        self._running = True
        outputs = self.vm.start()
        self._charge_event_delivery()
        self._handle_outputs(outputs)
        if self.vm.timer.interval is not None:
            self._timer_process = Process(self.scheduler, self.vm.timer.interval,
                                          on_tick=self._timer_tick,
                                          name=f"{self.identity}.timer")
            self._timer_process.start(delay=self.vm.timer.interval)
        if self.config.snapshot_interval:
            self._snapshot_process = Process(self.scheduler, self.config.snapshot_interval,
                                             on_tick=self.take_snapshot,
                                             name=f"{self.identity}.snapshot")
            self._snapshot_process.start(delay=self.config.snapshot_interval)

    def stop(self) -> None:
        """Stop background processes (the log and VM state remain accessible)."""
        self._running = False
        if self._timer_process is not None:
            self._timer_process.stop()
        if self._snapshot_process is not None:
            self._snapshot_process.stop()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------ clock reads

    def _on_clock_read(self, execution, value: float) -> float:
        value = self.clock_optimizer.observe(value)
        if self.config.record_replay_info:
            self.recorder.record_clock_read(execution, value)
        return value

    # ------------------------------------------------------------------ upstream calls

    def attach_upstream_backend(self, backend: UpstreamBackend) -> None:
        """Route the guest's upstream calls to an external backend model.

        The backend's responses (body + modelled latency) are nondeterministic
        inputs: the recording hook logs each one with its execution timestamp,
        so an auditor can replay the guest without the backend and still feed
        it exactly what it saw (Section 4.5 applied to a service guest).
        """
        source = self.vm.nondet_source
        if not isinstance(source, LiveNondeterminismSource):
            raise VMError(
                f"monitor {self.identity!r} has no live nondeterminism source "
                f"to attach an upstream backend to")
        source.attach_upstream_backend(backend)

    def _on_upstream_call(self, execution, service: str, request: bytes,
                          response: UpstreamResponse) -> None:
        if self.config.record_replay_info:
            self.recorder.record_upstream_call(execution, service, request,
                                               response)

    # ------------------------------------------------------------------ timer

    def _timer_tick(self) -> None:
        self._timer_ticks += 1
        event = TimerInterrupt(tick_number=self._timer_ticks)
        self.deliver_event(event)

    # ------------------------------------------------------------------ local input

    def inject_local_input(self, command: str, device: str = "keyboard") -> None:
        """Deliver a local (keyboard/mouse) input to the guest.

        Local inputs are recorded as nondeterministic events but cannot be
        authenticated without trusted input hardware (Section 7.2) — this is
        the surface the hypothetical re-engineered aimbot exploits.
        """
        self.deliver_event(KeyboardInput(command=command, device=device))

    # ------------------------------------------------------------------ event delivery

    def deliver_event(self, event: GuestEvent) -> List[Output]:
        """Record and deliver one asynchronous event to the guest."""
        if self.config.record_replay_info:
            self.recorder.record_guest_event(self.vm.execution_timestamp, event)
        before = self.vm.instruction_count
        outputs = self.vm.deliver_event(event)
        compute_seconds = self.perf.guest_cpu_for_instructions(
            self.vm.instruction_count - before)
        self.stats.guest_events_delivered += 1
        self._charge_event_delivery()
        self._handle_outputs(outputs, compute_seconds)
        return outputs

    def _charge_event_delivery(self) -> None:
        self.stats.vmm_cpu_seconds += self.perf.vmm_cpu_for_event()

    # ------------------------------------------------------------------ outputs

    def _handle_outputs(self, outputs: List[Output],
                        compute_seconds: float = 0.0) -> None:
        """Emit guest outputs; ``compute_seconds`` is the modelled execution
        time of the event handler that produced them, so a packet leaves the
        machine only after the guest has "finished computing" it — that is
        how guest work (cache hits vs. handler runs, upstream latency)
        becomes visible in round-trip times."""
        for output in outputs:
            if isinstance(output, PacketOutput):
                self._send_guest_packet(output, compute_seconds)
            elif isinstance(output, FrameOutput):
                self.stats.frames_rendered = output.frame_number

    def _allocate_message_id(self) -> str:
        """Message id for an outgoing envelope.

        Ids end up inside signed log entries, so they must be reproducible:
        the network instance allocates them (per-instance counter), keeping
        same-seed recordings byte-identical regardless of what else ran in
        the process.  Without a network the envelope falls back to the
        process-global counter in :mod:`repro.network.message`.
        """
        if self.network is None:
            return ""
        return self.network.allocate_message_id()

    def _send_guest_packet(self, packet: PacketOutput,
                           compute_seconds: float = 0.0) -> None:
        """Log, authenticate and transmit a packet the guest produced."""
        message = NetworkMessage(source=self.identity, destination=packet.destination,
                                 payload=packet.payload, kind=MessageKind.DATA,
                                 message_id=self._allocate_message_id())
        payload_hash = message.payload_hash()

        if self.config.tamper_evident:
            entry = self.log.append(EntryType.SEND, send_content(
                destination=packet.destination, payload_hash=payload_hash,
                payload_size=len(packet.payload), message_id=message.message_id))
            authenticator = self._authenticate(entry)
            message.authenticator = authenticator.to_dict()
            self._charge_daemon_for_entry(
                entry.size_bytes(), signed=1 if authenticator.signature else 0)
            # The signature the message needs anyway also acknowledges,
            # through the run, everything owed to its destination.
            message.ack_run = self._acknowledge(packet.destination, entry)
            if self.channel is not None:
                self._expected_receipts.setdefault(packet.destination, {})[
                    message.message_id] = hashing.hash_bytes(
                        encode_recv_content(
                            self.identity, packet.payload, message.message_id,
                            message.kind.value, authenticator))
        if self.config.record_replay_info:
            self.recorder.record_packet_out(
                self.vm.execution_timestamp, packet.destination, payload_hash,
                len(packet.payload), message.message_id)
        self.stats.messages_sent += 1
        self._transmit(message, self.perf.outgoing_packet_delay(
            len(packet.payload)) + compute_seconds, self.config.tamper_evident)

    def _authenticate(self, entry: LogEntry) -> Authenticator:
        """Issue the authenticator for ``entry`` — the one signature a message
        or standalone acknowledgment costs (none under ``avmm-nosig``, whose
        log has no key)."""
        authenticator = self.log.authenticator_for(entry)
        if authenticator.signature:
            self.stats.signatures_generated += 1
        return authenticator

    def _transmit(self, message: NetworkMessage, delay: float,
                  expect_ack: bool) -> None:
        if self.channel is None:
            return
        if delay > 0:
            self.scheduler.schedule_after(
                delay, lambda: self.channel.send(message, expect_ack=expect_ack),
                label=f"{self.identity}.tx:{message.message_id}")
        else:
            self.channel.send(message, expect_ack=expect_ack)

    # ------------------------------------------------------------------ receiving

    def on_network_message(self, message: NetworkMessage) -> None:
        """Delivery callback registered with the simulated network."""
        if message.kind is MessageKind.ACK:
            self._handle_ack(message)
            return
        if message.kind is MessageKind.DATA:
            self._handle_data(message)

    def _handle_data(self, message: NetworkMessage) -> None:
        peer = message.source
        duplicate = message.message_id in self._seen_message_ids
        self._seen_message_ids.add(message.message_id)
        self.stats.messages_received += 1

        if duplicate:
            # A retransmission means our acknowledgment may have been lost:
            # re-acknowledge at once, without logging or delivering it a
            # second time.
            sequence = self._recv_entry_for.get(message.message_id)
            if sequence is not None:
                self._owed.get(peer, {}).pop(sequence, None)  # not twice
                self._acknowledge(peer, owed={sequence: message.message_id})
            return

        if self.config.tamper_evident:
            authenticator = self._peer_authenticator(message)
            # The commitment is logged whether or not it verifies — the
            # syntactic check re-runs this very check from the logged fields
            # (recv_commitment) and flags a bad one (Section 4.3) — but only
            # a verified one is kept as evidence.
            committed = authenticator is not None and self._file_if_committed(
                send_commitment(
                    self.identity, peer, message.message_id,
                    message.payload_hash(), len(message.payload),
                    authenticator.sequence, authenticator.previous_hash,
                    authenticator.signature))
            entry = self.log.append(EntryType.RECV, encode_recv_content(
                peer, message.payload, message.message_id, message.kind.value,
                authenticator))
            self._charge_daemon_for_entry(entry.size_bytes())
            self._recv_entry_for[message.message_id] = entry.sequence
            self._owe(peer, entry.sequence, message.message_id)
            if message.ack_run is not None:
                # The verification above covers the run too, if it chains
                # to the entry that was signed: all of it, or nothing.
                self._acknowledged(peer, chain_run(
                    message.ack_run, authenticator, self._receipt_of(peer))
                    if committed else None)

        event = PacketDelivery(source=peer, payload=message.payload,
                               message_id=message.message_id)
        delay = self.perf.incoming_packet_delay(len(message.payload))
        if delay > 0:
            self.scheduler.schedule_after(delay, lambda: self.deliver_event(event),
                                          label=f"{self.identity}.rx:{message.message_id}")
        else:
            self.deliver_event(event)

    # ------------------------------------------------------------------ acknowledging

    @property
    def ack_hold(self) -> float:
        """How long a RECV waits for a DATA message to ride before it is
        acknowledged standalone: a quarter of the retransmission interval,
        so holding never causes one (docs/message-protocol.md)."""
        return self.config.retransmit_interval / 4

    def _owe(self, peer: str, sequence: int, message_id: str) -> None:
        """Note a RECV entry the next signed envelope to ``peer`` acknowledges."""
        owed = self._owed.get(peer)  # may be empty: a duplicate re-acked it
        if owed and sequence - next(iter(owed)) > MAX_ACK_RUN_LINKS:
            self._acknowledge(peer)  # early, rather than outgrow a run
        self._owed.setdefault(peer, {})[sequence] = message_id
        if peer not in self._ack_timers:
            self._ack_timers[peer] = self.scheduler.schedule_after(
                self.ack_hold, lambda: self._acknowledge(peer),
                label=f"{self.identity}.ack-hold:{peer}")

    def _acknowledge(self, peer: str, carrier: Optional[LogEntry] = None,
                     owed: Optional[Dict[int, str]] = None) -> Optional[AckRun]:
        """Acknowledge ``owed`` (default: all that is owed to ``peer``): on
        ``carrier``, the SEND entry just signed for a message to ``peer``,
        by the run returned for it; else by a standalone ACK signed at the
        last owed RECV.  The run is the log from the oldest owed RECV up to
        the signed entry."""
        if owed is None:
            timer = self._ack_timers.pop(peer, None)
            if timer is not None:
                timer.cancel()
            owed = self._owed.pop(peer, {})
        if not owed:
            return None
        first, last = next(iter(owed)), next(reversed(owed))
        if carrier is not None and carrier.sequence - first > MAX_ACK_RUN_LINKS:
            self._acknowledge(peer, owed=owed)  # too far back to ride
            return None
        signed = carrier or self.log.entry_at(last)
        run = build_run([self.log.entry_at(sequence) for sequence
                         in range(first, signed.sequence)], owed)
        signatures = 0
        if carrier is None:
            authenticator = self._authenticate(signed)
            signatures = 1 if authenticator.signature else 0
            self._transmit(NetworkMessage(
                source=self.identity, destination=peer, payload=b"",
                kind=MessageKind.ACK, message_id=self._allocate_message_id(),
                authenticator=authenticator.to_dict(), ack_run=run,
                headers={"acked_message_id": owed[last]}),
                self.perf.ack_generation_delay(), expect_ack=False)
            self.stats.acks_standalone += 1
        else:
            self.stats.acks_piggybacked += len(owed)
        self.stats.acks_sent += len(owed)
        for sequence, message_id in owed.items():
            entry = self.log.append(EntryType.ACK, ack_content(
                peer=peer, message_id=message_id, direction="sent",
                acked_sequence=sequence))
            self._charge_daemon_for_entry(entry.size_bytes(), signed=signatures)
            signatures = 0
        return run

    def _handle_ack(self, message: NetworkMessage) -> None:
        peer = message.source
        acked_id = str(message.headers.get("acked_message_id", ""))
        expected = self._expected_receipts.get(peer, {}).get(acked_id)
        if expected is None:
            return  # nothing in flight under that id: acknowledges nothing
        authenticator = self._peer_authenticator(message)
        # The signed entry must be RECV(m) as an honest peer logs it for
        # what we sent, and the run, if any, has to chain to it.  Otherwise
        # nothing is acknowledged: the messages stay in flight and the peer
        # ends up suspected.
        acked = chain_run(message.ack_run, authenticator,
                          self._receipt_of(peer)) if authenticator else None
        if acked is not None and self._file_if_committed(committed_authenticator(
                peer, authenticator.sequence, authenticator.previous_hash,
                authenticator.signature, EntryType.RECV, expected)):
            acked.append(acked_id)
        else:
            acked = None
        self._acknowledged(peer, acked)

    def _receipt_of(self, peer: str) -> Callable[[str], Optional[bytes]]:
        """RECV content hashes an ack run from ``peer`` may name, by message
        id: what is in flight to it, and what it acknowledged lately (the
        run of a retransmitted carrier is late, not forged)."""
        in_flight = self._expected_receipts.get(peer, {})
        cleared = self._cleared_receipts.get(peer, {})
        return lambda message_id: in_flight.get(message_id) \
            or cleared.get(message_id)

    def _acknowledged(self, peer: str, message_ids: Optional[List[str]]) -> None:
        """``peer`` verifiably logged RECV of each: stop retransmitting —
        or (``None``) its acknowledgment had to be refused whole."""
        if message_ids is None:
            self.stats.acks_rejected += 1
            return
        cleared = self._cleared_receipts.setdefault(peer, {})
        for message_id in message_ids:
            receipt = self._expected_receipts[peer].pop(message_id, None)
            if receipt is None:
                continue  # acknowledged before, or twice in one run
            cleared[message_id] = receipt
            if len(cleared) > MAX_ACK_RUN_LINKS:
                del cleared[next(iter(cleared))]
            self.stats.acks_received += 1
            entry = self.log.append(EntryType.ACK, ack_content(
                peer=peer, message_id=message_id, direction="received",
                acked_sequence=0))
            self._charge_daemon_for_entry(entry.size_bytes())
            if self.channel is not None:
                self.channel.acknowledge(message_id)

    @staticmethod
    def _peer_authenticator(message: NetworkMessage) -> Optional[Authenticator]:
        """Parse the attached authenticator, once; ``None`` when there is
        none, it is malformed, or anyone but the envelope's source issued it."""
        if not message.authenticator:
            return None
        try:
            authenticator = Authenticator.from_dict(message.authenticator)
        except LogFormatError:
            return None
        return authenticator if authenticator.machine == message.source else None

    def _file_if_committed(self, commitment: Authenticator) -> bool:
        """Verify a peer's rebuilt commitment and keep it as evidence;
        returns whether it stands.  Unsigned traffic (``avmm-nosig``) and
        peers without a certificate cannot be checked and are filed as is."""
        peer = commitment.machine
        if commitment.signature and self.keystore is not None \
                and self.keystore.has_identity(peer):
            self.stats.signatures_verified += 1
            if not commitment.verify(self.keystore):
                return False
        self.received_authenticators.setdefault(peer, []).append(commitment)
        return True

    def _on_give_up(self, message: NetworkMessage) -> None:
        """A peer failed to acknowledge after repeated retransmissions."""
        self._expected_receipts.get(message.destination, {}).pop(
            message.message_id, None)
        if message.destination not in self.stats.suspected_peers:
            self.stats.suspected_peers.append(message.destination)

    # ------------------------------------------------------------------ daemon accounting

    def _charge_daemon_for_entry(self, entry_bytes: int, signed: int = 0) -> None:
        self.stats.daemon_cpu_seconds += self.perf.daemon_cpu_for_log(entry_bytes)
        self.stats.daemon_cpu_seconds += self.perf.daemon_cpu_for_signatures(signed, 0)
        self.stats.vmm_cpu_seconds += self.perf.vmm_cpu_for_recording(1, entry_bytes)

    # ------------------------------------------------------------------ snapshots

    def take_snapshot(self) -> int:
        """Take an incremental snapshot now; returns the snapshot id.

        The whole VM state is serialised and its pages diffed against the
        previous snapshot's; the hash tree is repaired at the changed pages
        only, and the performance-model charge scales with the changed
        bytes (Section 4.4).
        """
        snapshot = self.snapshots.take(self.vm.get_full_state(),
                                       self.vm.execution_timestamp)
        delta = self.snapshots.get_incremental(snapshot.snapshot_id)
        self.stats.vmm_cpu_seconds += self.perf.vmm_cpu_for_snapshot(
            delta.incremental_bytes, delta.page_count)
        self.recorder.record_snapshot(snapshot.snapshot_id, snapshot.state_root,
                                      snapshot.execution)
        self._ship(snapshot.snapshot_id)
        return snapshot.snapshot_id

    # ------------------------------------------------------------------ archive shipping

    def attach_archive_shipper(self, destination: str,
                               format_version: int = 1) -> None:
        """Stream sealed log state to an archive service (Section 4.2 durably).

        After every snapshot the segment it seals — the entries since the
        previous seal, ending with the SNAPSHOT entry — is encoded with the
        wire codec selected by ``format_version`` (see
        :mod:`repro.log.codec`; the ingest service sniffs the codec magic,
        so mixed-format fleets interoperate) and sent to ``destination``
        (an :class:`~repro.service.ingest.AuditIngestService` endpoint) as
        one ``ARCHIVE_SHIPMENT`` (:mod:`repro.network.shipment`), together
        with the snapshot's page file, so the archive can later start
        replays at the boundary, and the authenticators collected from
        peers, filed under their issuer.
        Shipping is fire-and-forget over the ordinary simulated network;
        the archive verifies the hash chain on arrival, so a lost or
        tampered shipment is detected, never silently archived.
        """
        self._archive_destination = destination
        self._archive_format_version = require_format_version(
            format_version, what="log codec")
        # A (re)attached archive holds none of our snapshots yet: the next
        # snapshot shipped must carry full state, or its delta would
        # reference a base the archive never saw (attach-mid-run case).
        self._snapshot_ship_anchored = False

    @property
    def shipped_through(self) -> int:
        """Sequence number of the last log entry shipped to the archive."""
        return self._shipped_through

    @property
    def archive_shipping_complete(self) -> bool:
        """True when everything shippable has been accepted by the network.

        Covers both the log (entries up to the head) and the authenticators
        collected from peers — a dropped authenticator batch leaves this
        ``False`` until a re-ship succeeds.
        """
        if self._archive_destination is None or not self.config.tamper_evident:
            return True
        if self._shipped_through < len(self.log):
            return False
        if self._pending_snapshot_ships:
            return False
        for peer, collected in self.received_authenticators.items():
            if self._shipped_auth_counts.get(peer, 0) < len(collected):
                return False
        return True

    def ship_archive_tail(self) -> bool:
        """Ship the unsealed tail of the log (entries after the last seal) at
        the end of a run, so that the archive holds the *whole* log — and
        whatever a lossy link dropped earlier.  Returns ``True`` if anything
        was shipped (pending peer authenticators and snapshots count too).
        """
        return self._ship(None)

    def _ship(self, snapshot_id: Optional[int]) -> bool:
        """Send everything the archive does not hold yet as one shipment: the
        queued snapshot page files (keyframes ship every page, the rest only
        their changed pages — Section 4.4: *to save space, snapshots are
        incremental* — and the first one a (re)attached archive sees is
        forced to be a keyframe: a delta is useless without its base), the
        log since the last shipment as one segment sealed by ``snapshot_id``,
        and the authenticators newly collected from each peer.  One message
        is one unit of loss: dropped at send time (loss, partition), no
        cursor moves, and the next seal or tail ships the same state plus
        what was logged since — the archive requires contiguity and a
        hole-free delta chain, so it only ever lags.
        """
        if self._archive_destination is None or self.network is None \
                or not self.config.tamper_evident:
            return False
        if snapshot_id is not None:
            self._pending_snapshot_ships.append(snapshot_id)
        parts = [ShipmentPart(PartKind.SNAPSHOT, self.snapshots.ship_payload(
            pending, force_keyframe=not (self._snapshot_ship_anchored or index)))
            for index, pending in enumerate(self._pending_snapshot_ships)]
        last = len(self.log)
        if last > self._shipped_through:
            segment = self.log.segment(self._shipped_through + 1, last)
            parts.append(ShipmentPart(
                PartKind.SEGMENT,
                get_codec(self._archive_format_version).encode_segment(segment),
                sealed_by_snapshot=snapshot_id))
        collected = {peer: len(auths) for peer, auths
                     in sorted(self.received_authenticators.items())}
        for peer, count in collected.items():
            already = self._shipped_auth_counts.get(peer, 0)
            if count > already:
                parts.append(ShipmentPart(
                    PartKind.AUTHENTICATORS, authenticators_to_bytes(
                        self.received_authenticators[peer][already:]),
                    subject=peer))
        if not parts:
            return False
        payload = encode_shipment(parts)
        if not self.network.send(NetworkMessage(
                source=self.identity, destination=self._archive_destination,
                payload=payload, message_id=self._allocate_message_id(),
                kind=MessageKind.ARCHIVE_SHIPMENT)):
            return False
        self._snapshot_ship_anchored |= bool(self._pending_snapshot_ships)
        self._pending_snapshot_ships.clear()
        self._shipped_through = last
        self._shipped_auth_counts.update(collected)
        return True

    # ------------------------------------------------------------------ audit serving

    def get_log_segment(self, first_sequence: Optional[int] = None,
                        last_sequence: Optional[int] = None) -> LogSegment:
        """Return a log segment for an auditor (the whole log by default)."""
        if first_sequence is None and last_sequence is None:
            return self.log.full_segment()
        first = first_sequence if first_sequence is not None else 1
        last = last_sequence if last_sequence is not None else len(self.log)
        return self.log.segment(first, last)

    def get_snapshot_segments(self) -> List[LogSegment]:
        """Snapshot-delimited segments for spot checking."""
        return self.log.segments_between_snapshots()

    def authenticators_from(self, peer: str) -> List[Authenticator]:
        """Authenticators this machine has collected from ``peer``."""
        return list(self.received_authenticators.get(peer, []))

    # ------------------------------------------------------------------ convenience

    @property
    def guest(self):
        """The guest program running inside the AVM."""
        return self.vm.guest

    def describe(self) -> Dict[str, Any]:
        """Summary used in experiment reports."""
        return {
            "identity": self.identity,
            "configuration": self.config.configuration.label,
            "image": self.image.name,
            "log_entries": len(self.log),
            "log_bytes": self.log.size_bytes(),
            "snapshots": self.snapshots.count,
            "messages_sent": self.stats.messages_sent,
            "messages_received": self.stats.messages_received,
            "signatures_generated": self.stats.signatures_generated,
            "acks_sent": self.stats.acks_sent,
            "acks_piggybacked": self.stats.acks_piggybacked,
            "acks_standalone": self.stats.acks_standalone,
        }

