"""Frame-rate model (Figures 7 and 8).

Counterstrike's rendering engine is single-threaded, so the achieved frame
rate is determined by how much of one hyperthread's time is left for rendering
after the VMM, the recording machinery and (when co-located) the logging
daemon have taken their share.  The model charges those costs from the actual
work counters the monitor accumulated and converts the remaining budget into
frames per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.perfmodel import CostParameters, PerfModel


@dataclass(frozen=True)
class FrameRateSample:
    """Result of a frame-rate computation for one machine."""

    machine: str
    duration_seconds: float
    game_thread_overhead_seconds: float
    daemon_seconds: float
    audit_seconds: float
    frames_per_second: float


class FrameRateModel:
    """Computes achieved frame rates from monitor work counters."""

    #: fraction of rendering throughput lost per concurrent online audit even
    #: when the audit runs on an otherwise idle core (hypertwin and memory
    #: contention); Section 6.11 measures 137 -> 104 fps for two audits.
    AUDIT_INTERFERENCE = 0.12
    #: number of concurrent audits the machine's idle cores can absorb before
    #: game performance starts degrading proportionally (Section 6.11 expects
    #: 1/a degradation for large a).
    IDLE_CORES = 3

    def __init__(self, params: Optional[CostParameters] = None) -> None:
        self.params = params or CostParameters()

    def compute(self, monitor, duration_seconds: float, *,
                pinned_same_thread: bool = False,
                concurrent_audits: int = 0,
                audit_slowdown: float = 0.0) -> FrameRateSample:
        """Frame rate for ``monitor`` over a run of ``duration_seconds``.

        ``pinned_same_thread`` reproduces the Section 6.10 ablation where the
        daemon shares the game's hyperthread.  ``concurrent_audits`` is the
        number of other players being audited online on this machine
        (Figure 8), and ``audit_slowdown`` the artificial slow-down applied so
        the auditor keeps up (Section 6.11).
        """
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        perf = PerfModel.for_config(monitor.config)
        stats = monitor.stats
        recorder = monitor.recorder.stats

        # stats.vmm_cpu_seconds already accumulates the virtualisation cost of
        # every event delivery plus the recording cost of the tamper-evident
        # (message) entries; add the recording cost of the replay entries the
        # recorder wrote (TimeTracker, MAC layer, NONDET).
        game_overhead = stats.vmm_cpu_seconds
        game_overhead += perf.vmm_cpu_for_recording(recorder.entries_written,
                                                    recorder.bytes_written)
        daemon_seconds = stats.daemon_cpu_seconds
        if pinned_same_thread:
            game_overhead += daemon_seconds

        available_fraction = max(0.0, 1.0 - game_overhead / duration_seconds)
        available_fraction *= max(0.0, 1.0 - audit_slowdown)
        if concurrent_audits > 0:
            absorbed = min(concurrent_audits, self.IDLE_CORES)
            available_fraction *= (1.0 - self.AUDIT_INTERFERENCE) ** absorbed
            extra = concurrent_audits - absorbed
            if extra > 0:
                # Audits beyond the idle cores compete directly with the game.
                available_fraction /= (1.0 + extra)

        fps = available_fraction / self.params.frame_cpu_seconds
        return FrameRateSample(
            machine=monitor.identity,
            duration_seconds=duration_seconds,
            game_thread_overhead_seconds=game_overhead,
            daemon_seconds=daemon_seconds,
            audit_seconds=0.0,
            frames_per_second=fps,
        )
