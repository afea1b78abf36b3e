"""Section 6.5 — log growth with the frame-rate cap, and the clock-read
delay optimisation.

With its default frame-rate cap Counterstrike busy-waits on the system clock
between frames; every read is a nondeterministic input the AVMM must log,
inflating log growth by a factor of ~18.  The optimisation delays the n-th
consecutive clock read by 2^(n-2) * 50 us (capped at 5 ms), which collapses
the busy-wait to a handful of reads at a ~3 % cost in uncapped frame rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.session import GameSession, GameSessionSettings


@dataclass
class FrameCapVariant:
    """One (cap, optimisation) combination."""

    label: str
    frame_cap_fps: Optional[float]
    clock_read_optimization: bool
    log_mb_per_minute: float = 0.0
    clock_reads: int = 0
    frames_rendered: int = 0


@dataclass
class FrameCapResult:
    """Log growth with/without the cap and with/without the optimisation."""

    duration: float
    variants: Dict[str, FrameCapVariant]

    @property
    def cap_growth_factor(self) -> float:
        """How much faster the log grows when the cap is enabled (no optimisation)."""
        uncapped = self.variants["uncapped"].log_mb_per_minute
        capped = self.variants["capped"].log_mb_per_minute
        return capped / uncapped if uncapped > 0 else 0.0

    @property
    def optimized_growth_factor(self) -> float:
        """Capped-with-optimisation growth relative to uncapped."""
        uncapped = self.variants["uncapped"].log_mb_per_minute
        optimized = self.variants["capped+opt"].log_mb_per_minute
        return optimized / uncapped if uncapped > 0 else 0.0


#: the frame-rate cap the paper's game enforces by reading the clock
FRAME_CAP_FPS = 60.0


def run_frame_cap(duration: float = 10.0) -> FrameCapResult:
    """Compare log growth across the three variants, on one player."""
    machine = "player1"
    variants = {
        "uncapped": FrameCapVariant("uncapped", None, False),
        "capped": FrameCapVariant(f"capped ({FRAME_CAP_FPS:.0f} fps)", FRAME_CAP_FPS, False),
        "capped+opt": FrameCapVariant("capped + clock optimisation", FRAME_CAP_FPS, True),
    }
    for variant in variants.values():
        settings = GameSessionSettings(
            configuration=Configuration.AVMM_RSA768,
            num_players=1, duration=duration, snapshot_interval=None,
            frame_cap_fps=variant.frame_cap_fps,
            clock_read_optimization=variant.clock_read_optimization,
            log_sample_interval=duration / 4.0)
        session = GameSession(settings)
        session.run()
        monitor = session.monitors[machine]
        variant.log_mb_per_minute = \
            session.log_growth[machine].growth_rate_mb_per_minute()
        variant.clock_reads = monitor.recorder.stats.clock_reads
        variant.frames_rendered = monitor.stats.frames_rendered
    return FrameCapResult(duration=duration, variants=variants)


def main(duration: float = 10.0) -> FrameCapResult:
    """Print the Section 6.5 comparison."""
    result = run_frame_cap(duration=duration)
    rows = [(v.label, f"{v.log_mb_per_minute:.2f}", v.clock_reads, v.frames_rendered)
            for v in result.variants.values()]
    print("Section 6.5: log growth with the frame-rate cap")
    print(format_table(["variant", "log MB/minute", "clock reads", "frames"], rows))
    print(f"\ncap inflates log growth by {result.cap_growth_factor:.1f}x; "
          f"with the optimisation it is {result.optimized_growth_factor:.2f}x the "
          f"uncapped growth")
    return result


if __name__ == "__main__":
    main()
