"""Figure 7 — frame rate under the five configurations.

The paper removes Counterstrike's frame-rate cap so the achieved frame rate
can serve as a CPU-overhead metric: ~158 fps on bare hardware, with the
biggest single drop (~11 %) coming from enabling recording and a total drop of
~13 % for the full AVMM (137 fps).  Section 6.10 additionally measures the
cost of pinning the daemon onto the game's hyperthread (-11 fps) — included
here as the pinned sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.session import GameSession, GameSessionSettings
from repro.metrics.framerate import FrameRateSample


@dataclass
class FrameRateResult:
    """Frame rates per configuration and per player machine."""

    duration: float
    samples: Dict[Configuration, Dict[str, FrameRateSample]]
    #: the first player under avmm-rsa768, daemon pinned with the game
    pinned_sample: FrameRateSample

    def average_fps(self, configuration: Configuration) -> float:
        machines = self.samples[configuration]
        return sum(s.frames_per_second for s in machines.values()) / len(machines)

    def relative_drop(self, configuration: Configuration) -> float:
        """Frame-rate drop relative to bare hardware."""
        bare = self.average_fps(Configuration.BARE_HW)
        if bare <= 0:
            return 0.0
        return 1.0 - self.average_fps(configuration) / bare


def run_frame_rate(duration: float = 60.0) -> FrameRateResult:
    """Measure frame rates under every configuration, and the Section 6.10
    ablation: the daemon pinned to the game's hyperthread."""
    samples: Dict[Configuration, Dict[str, FrameRateSample]] = {}
    for configuration in Configuration:
        settings = GameSessionSettings(configuration=configuration, duration=duration,
                                       snapshot_interval=None)
        session = GameSession(settings)
        session.run()
        samples[configuration] = {player: session.frame_rate(player)
                                  for player in session.player_ids}
        if configuration is Configuration.AVMM_RSA768:
            pinned = session.frame_rate(session.player_ids[0], pinned_same_thread=True)
    return FrameRateResult(duration=duration, samples=samples, pinned_sample=pinned)


def main(duration: float = 60.0) -> FrameRateResult:
    """Print the Figure 7 frame rates."""
    result = run_frame_rate(duration=duration)
    rows = []
    for configuration, machines in result.samples.items():
        fps = [f"{s.frames_per_second:.0f}" for s in machines.values()]
        rows.append((configuration.label, f"{result.average_fps(configuration):.0f}",
                     f"{result.relative_drop(configuration) * 100:.1f}%", ", ".join(fps)))
    print("Figure 7: average frame rate per configuration")
    print(format_table(["configuration", "avg fps", "drop vs bare-hw", "per machine"], rows))
    delta = result.average_fps(Configuration.AVMM_RSA768) \
        - result.pinned_sample.frames_per_second
    print(f"\nablation (Section 6.10): daemon pinned to the game's hyperthread "
          f"costs {delta:.0f} fps")
    return result


if __name__ == "__main__":
    main()
