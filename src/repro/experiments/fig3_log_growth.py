"""Figure 3 — growth of the AVMM log (and an equivalent VMware log) over time.

The paper plays Counterstrike for ~35 minutes and plots log size against time:
the log grows slowly while players join, then steadily (~8 MB/min) during
play, and the AVMM log is consistently larger than the plain VMware
record/replay log because of the tamper-evident entries.  The reproduction
runs the same workload under ``avmm-rsa768`` and ``vmware-rec`` and reports
both series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.session import GameSession, GameSessionSettings


@dataclass
class LogGrowthResult:
    """Log-size series for the server machine under both configurations."""

    duration: float
    avmm_series: List[Tuple[float, float]]          # (minutes, MB)
    vmware_series: List[Tuple[float, float]]
    avmm_mb_per_minute: float
    vmware_mb_per_minute: float


def run_log_growth(duration: float = 120.0) -> LogGrowthResult:
    """Measure log growth under avmm-rsa768 and under plain VMware recording."""
    series: Dict[Configuration, List[Tuple[float, float]]] = {}
    rates: Dict[Configuration, float] = {}
    for configuration in (Configuration.AVMM_RSA768, Configuration.VMWARE_REC):
        settings = GameSessionSettings(
            configuration=configuration, duration=duration, snapshot_interval=None)
        session = GameSession(settings)
        session.run()
        growth = session.log_growth["server"]
        series[configuration] = growth.as_rows()
        # The paper measures steady-state growth after the join phase.
        rates[configuration] = growth.growth_rate_mb_per_minute(start_time=duration * 0.2)
    return LogGrowthResult(
        duration=duration,
        avmm_series=series[Configuration.AVMM_RSA768],
        vmware_series=series[Configuration.VMWARE_REC],
        avmm_mb_per_minute=rates[Configuration.AVMM_RSA768],
        vmware_mb_per_minute=rates[Configuration.VMWARE_REC],
    )


def main(duration: float = 120.0) -> LogGrowthResult:
    """Print the Figure 3 series."""
    result = run_log_growth(duration=duration)
    rows = []
    for (minutes, avmm_mb), (_, vmware_mb) in zip(result.avmm_series, result.vmware_series):
        rows.append((f"{minutes:.1f}", f"{avmm_mb:.2f}", f"{vmware_mb:.2f}"))
    print("Figure 3: log size over time (server machine)")
    print(format_table(["minutes", "AVMM log (MB)", "equivalent VMware log (MB)"], rows))
    print(f"\nsteady-state growth: AVMM {result.avmm_mb_per_minute:.2f} MB/min, "
          f"VMware {result.vmware_mb_per_minute:.2f} MB/min")
    return result


if __name__ == "__main__":
    main()
