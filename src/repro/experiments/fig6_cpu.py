"""Figure 6 — average CPU utilisation per hyperthread.

The paper pins the logging daemon to hyperthread 0 and shows that (a) the
daemon keeps that hyperthread below 8 % even in the full ``avmm-rsa768``
configuration and (b) because the game's rendering engine is single-threaded,
the average utilisation over the eight hyperthreads is ~12.5 % in every
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.session import GameSession, GameSessionSettings
from repro.metrics.cpu import CpuModel, CpuUtilization


@dataclass
class CpuResult:
    """Per-configuration CPU utilisation for the server machine."""

    duration: float
    utilizations: Dict[Configuration, CpuUtilization]


def run_cpu(duration: float = 60.0) -> CpuResult:
    """Measure CPU utilisation under every configuration."""
    model = CpuModel()
    utilizations: Dict[Configuration, CpuUtilization] = {}
    for configuration in Configuration:
        settings = GameSessionSettings(configuration=configuration, duration=duration,
                                       snapshot_interval=None)
        session = GameSession(settings)
        session.run()
        utilizations[configuration] = model.compute(session.monitors["server"], duration)
    return CpuResult(duration=duration, utilizations=utilizations)


def main(duration: float = 60.0) -> CpuResult:
    """Print the Figure 6 utilisations."""
    result = run_cpu(duration=duration)
    rows = []
    for configuration, utilization in result.utilizations.items():
        rows.append((configuration.label,
                     f"{utilization.average * 100:.1f}%",
                     f"{utilization.daemon_ht_utilization * 100:.1f}%"))
    print("Figure 6: average CPU utilisation (server machine, 8 hyperthreads)")
    print(format_table(["configuration", "average (entire CPU)", "daemon HT 0"], rows))
    return result


if __name__ == "__main__":
    main()
