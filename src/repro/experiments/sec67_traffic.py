"""Section 6.7 — network traffic overhead.

Counterstrike clients send tiny packets (50–60 bytes, ~26 packets/s), so the
AVMM's fixed per-packet overhead — a signature on every packet, the ack run
it carries, plus TCP encapsulation — increases the raw IP-level traffic of
the machine hosting the game roughly tenfold (22 kbps -> 215.5 kbps in the
paper) while remaining far below broadband capacity in absolute terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.session import GameSession, GameSessionSettings


@dataclass
class TrafficResult:
    """Average outbound traffic per configuration, in kbps."""

    duration: float
    kbps_by_configuration: Dict[Configuration, float]
    packets_per_second: Dict[Configuration, float]

    @property
    def overhead_factor(self) -> float:
        """avmm-rsa768 traffic relative to bare hardware."""
        bare = self.kbps_by_configuration.get(Configuration.BARE_HW, 0.0)
        avmm = self.kbps_by_configuration.get(Configuration.AVMM_RSA768, 0.0)
        return avmm / bare if bare > 0 else 0.0


def run_traffic(duration: float = 60.0) -> TrafficResult:
    """Measure the server machine's outbound traffic on bare hardware and
    under the full AVMM."""
    kbps: Dict[Configuration, float] = {}
    pps: Dict[Configuration, float] = {}
    for configuration in (Configuration.BARE_HW, Configuration.AVMM_RSA768):
        settings = GameSessionSettings(configuration=configuration, duration=duration,
                                       snapshot_interval=None)
        session = GameSession(settings)
        session.run()
        stats = session.network.stats_for("server")
        kbps[configuration] = stats.sent_kbps(duration)
        pps[configuration] = stats.messages_sent / duration
    return TrafficResult(duration=duration, kbps_by_configuration=kbps,
                         packets_per_second=pps)


def main(duration: float = 60.0) -> TrafficResult:
    """Print the Section 6.7 traffic comparison."""
    result = run_traffic(duration=duration)
    rows = [(configuration.label, f"{kbps:.1f}",
             f"{result.packets_per_second[configuration]:.1f}")
            for configuration, kbps in result.kbps_by_configuration.items()]
    print("Section 6.7: raw outbound traffic of the machine hosting the game")
    print(format_table(["configuration", "kbps", "packets/s"], rows))
    print(f"\naccountability increases traffic {result.overhead_factor:.1f}x "
          f"(small packets + per-packet signatures and acknowledgments)")
    return result


if __name__ == "__main__":
    main()
