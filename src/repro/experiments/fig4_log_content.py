"""Figure 4 — average log growth by content, and the compressed size.

The paper breaks the AVMM log down into TimeTracker entries (~59 %), MAC-layer
entries (~14 %), other replay information (~27 % of the replay stream) and the
tamper-evident-logging entries, and reports that bzip2 plus a VMM-specific
compressor reduces average growth to ~2.47 MB/min.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.session import GameSession, GameSessionSettings
from repro.metrics.logstats import LogContentBreakdown, log_content_breakdown


@dataclass
class LogContentResult:
    """Per-category growth rates for the server machine."""

    breakdown: LogContentBreakdown
    mb_per_minute_by_category: Dict[str, float]
    total_mb_per_minute: float
    compressed_mb_per_minute: float
    replay_fraction: float
    tamper_evident_fraction: float


def run_log_content(duration: float = 120.0) -> LogContentResult:
    """Measure the content breakdown of the AVMM log."""
    machine = "player1"
    settings = GameSessionSettings(
        configuration=Configuration.AVMM_RSA768, duration=duration, snapshot_interval=None)
    session = GameSession(settings)
    session.run()
    breakdown = log_content_breakdown(session.monitors[machine].log, duration,
                                      machine=machine)
    by_category = {category: breakdown.mb_per_minute(category)
                   for category in breakdown.bytes_by_category}
    replay = (breakdown.fraction("timetracker") + breakdown.fraction("maclayer")
              + breakdown.fraction("other_replay"))
    return LogContentResult(
        breakdown=breakdown,
        mb_per_minute_by_category=by_category,
        total_mb_per_minute=breakdown.mb_per_minute(),
        compressed_mb_per_minute=breakdown.compressed_mb_per_minute(),
        replay_fraction=replay,
        tamper_evident_fraction=breakdown.fraction("tamper_evident"),
    )


def main(duration: float = 120.0) -> LogContentResult:
    """Print the Figure 4 breakdown."""
    result = run_log_content(duration=duration)
    rows = [(category, f"{rate:.3f}", f"{result.breakdown.fraction(category) * 100:.1f}%")
            for category, rate in sorted(result.mb_per_minute_by_category.items())]
    rows.append(("total", f"{result.total_mb_per_minute:.3f}", "100.0%"))
    rows.append(("total after compression", f"{result.compressed_mb_per_minute:.3f}", ""))
    print("Figure 4: average log growth by content (server machine)")
    print(format_table(["category", "MB/minute", "fraction"], rows))
    print(f"\nreplay information: {result.replay_fraction * 100:.1f}% of the log, "
          f"tamper-evident logging: {result.tamper_evident_fraction * 100:.1f}%")
    return result


if __name__ == "__main__":
    main()
