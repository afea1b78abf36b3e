"""Calibrated per-operation cost model.

The model charges time for each mechanism the AVMM exercises.  The constants
are calibrated so that, when driven by the work counts our simulated AVMM
actually produces, the headline numbers land near the paper's measurements on
its 2.8 GHz Core i7 testbed:

* bare-hardware ping RTT ≈ 0.19 ms, rising to ≈ 0.5 ms with virtualisation,
  ≈ 0.6 ms with recording, > 2 ms with the logging daemon and ≈ 5 ms with
  768-bit RSA signatures (Figure 5; the pong carries the ping's ack);
* frame rate ≈ 158 fps bare, dropping ~11 % when recording is enabled and
  ~13 % for the full AVMM (Figure 7);
* the logging daemon keeps one hyperthread below 8 % utilisation (Figure 6).

Only the *relative* shapes are claims of the reproduction; the constants can
be re-calibrated without touching any mechanism code.
"""

from __future__ import annotations

from repro.crypto.signatures import SchemeCosts, get_scheme


# Per-operation costs, in seconds unless noted.

# Virtualisation: cost added to each guest event delivery / device exit.
VIRTUALIZATION_EVENT_OVERHEAD = 8.0e-5
# Extra cost per packet traversal of the VMM's virtual NIC.
VIRTUALIZATION_PACKET_OVERHEAD = 1.6e-4
# Recording for deterministic replay: CPU charged per log entry / byte,
# plus a smaller latency charge on the packet path.
RECORDING_PER_ENTRY = 3.8e-4
RECORDING_PER_BYTE = 6.0e-9
RECORDING_PACKET_LATENCY = 5.0e-5
# Hop through the kernel pipe to the logging daemon (per packet, each way).
DAEMON_IPC_DELAY = 5.0e-4
# Guest work: CPU seconds to render one frame on bare hardware.
FRAME_CPU_SECONDS = 1.0 / 158.0
# CPU seconds per abstract guest instruction (work the guest charges).
INSTRUCTION_SECONDS = 2.0e-8
# Logging daemon cost per byte appended to the tamper-evident log.
DAEMON_LOG_PER_BYTE = 1.5e-9
# Replay executes slightly slower than the original run (Section 6.11:
# auditing falls behind by about four seconds per minute of play).
REPLAY_SLOWDOWN_FACTOR = 1.067
# Audit-tool throughputs, calibrated from Section 6.6 (34.7 s to compress,
# 13.2 s to decompress and 6.9 s to syntactically check a ~300 MB log).
COMPRESS_BYTES_PER_SECOND = 8.6e6
DECOMPRESS_BYTES_PER_SECOND = 22.6e6
SYNTACTIC_CHECK_BYTES_PER_SECOND = 43.0e6
# Incremental snapshots (Section 4.4): per-snapshot fixed cost (stopping
# the AVM, updating tree bookkeeping) plus serialisation+hashing of the
# *dirty* bytes and an O(log n) tree-repair charge per dirty page —
# snapshot cost scales with what changed, not with the state size.
SNAPSHOT_FIXED_SECONDS = 2.0e-4
SNAPSHOT_DIRTY_BYTES_PER_SECOND = 400.0e6
SNAPSHOT_TREE_UPDATE_SECONDS = 2.0e-7


class PerfModel:
    """Maps configuration flags + work counts to time charges."""

    def __init__(self, params: SchemeCosts, *, virtualized: bool,
                 recording: bool, tamper_evident: bool, signs_packets: bool) -> None:
        self.params = params
        self.virtualized = virtualized
        self.recording = recording
        self.tamper_evident = tamper_evident
        self.signs_packets = signs_packets

    # -- construction -----------------------------------------------------------

    @staticmethod
    def for_flags(*, virtualized: bool, recording: bool, tamper_evident: bool,
                  signature_scheme: str = "nosig") -> "PerfModel":
        """Build a model from raw feature flags (no dependency on AvmmConfig)."""
        params = get_scheme(signature_scheme).costs()
        signs = tamper_evident and signature_scheme != "nosig"
        return PerfModel(params, virtualized=virtualized, recording=recording,
                         tamper_evident=tamper_evident, signs_packets=signs)

    @staticmethod
    def for_config(config) -> "PerfModel":
        """Build a model from any object exposing the AvmmConfig attributes."""
        return PerfModel.for_flags(
            virtualized=config.virtualized,
            recording=config.record_replay_info,
            tamper_evident=config.tamper_evident,
            signature_scheme=config.signature_scheme,
        )

    # -- latency charges ---------------------------------------------------------

    def outgoing_packet_delay(self, payload_size: int = 0) -> float:
        """Latency added to a packet leaving the guest before it hits the
        wire: one signature, which also covers the acknowledgments it carries."""
        delay = 0.0
        if self.virtualized:
            delay += VIRTUALIZATION_PACKET_OVERHEAD
        if self.recording:
            delay += RECORDING_PACKET_LATENCY
            delay += RECORDING_PER_BYTE * payload_size
        if self.tamper_evident:
            delay += DAEMON_IPC_DELAY
            if self.signs_packets:
                delay += self.params.sign_seconds
        return delay

    def incoming_packet_delay(self, payload_size: int = 0) -> float:
        """Latency added to a packet between arrival and injection into the
        guest: one verification, ack run included."""
        delay = 0.0
        if self.virtualized:
            delay += VIRTUALIZATION_PACKET_OVERHEAD
        if self.recording:
            delay += RECORDING_PACKET_LATENCY
            delay += RECORDING_PER_BYTE * payload_size
        if self.tamper_evident:
            delay += DAEMON_IPC_DELAY
            if self.signs_packets:
                delay += self.params.verify_seconds
        return delay

    def ack_generation_delay(self) -> float:
        """Latency to produce a *standalone* acknowledgment (includes signing
        it); one that rides a data message costs that message nothing."""
        if not self.tamper_evident:
            return 0.0
        delay = DAEMON_IPC_DELAY * 0.5
        if self.signs_packets:
            delay += self.params.sign_seconds
        return delay

    # -- CPU charges ---------------------------------------------------------------

    def vmm_cpu_for_event(self) -> float:
        """Game-thread CPU consumed by the VMM per guest event delivery."""
        return VIRTUALIZATION_EVENT_OVERHEAD if self.virtualized else 0.0

    def vmm_cpu_for_recording(self, entries: int, entry_bytes: int) -> float:
        """Game-thread CPU consumed by replay recording."""
        if not self.recording:
            return 0.0
        return entries * RECORDING_PER_ENTRY + entry_bytes * RECORDING_PER_BYTE

    def daemon_cpu_for_log(self, log_bytes: int) -> float:
        """Daemon-thread CPU spent appending to the tamper-evident log."""
        if not self.tamper_evident:
            return 0.0
        return log_bytes * DAEMON_LOG_PER_BYTE

    def daemon_cpu_for_signatures(self, signed: int, verified: int) -> float:
        """Daemon-thread CPU spent on cryptography."""
        if not self.signs_packets:
            return 0.0
        return signed * self.params.sign_seconds + verified * self.params.verify_seconds

    def vmm_cpu_for_snapshot(self, dirty_bytes: int, page_count: int = 0) -> float:
        """VMM CPU for one incremental snapshot (Section 4.4).

        Charged per dirty byte plus a logarithmic hash-tree repair term, so
        the modelled cost of snapshotting a large, mostly-idle AVM is near
        the fixed floor — the regime Figure 9's spot-check transfer numbers
        assume.
        """
        if not self.virtualized:
            return 0.0
        cost = SNAPSHOT_FIXED_SECONDS
        cost += dirty_bytes / SNAPSHOT_DIRTY_BYTES_PER_SECOND
        if page_count > 1:
            depth = max(1, page_count.bit_length())
            dirty_pages = max(1, dirty_bytes // 4096)
            cost += dirty_pages * depth * SNAPSHOT_TREE_UPDATE_SECONDS
        return cost

    # -- guest work -------------------------------------------------------------------

    def guest_cpu_for_instructions(self, instructions: int) -> float:
        """CPU time corresponding to abstract guest instructions."""
        return instructions * INSTRUCTION_SECONDS
