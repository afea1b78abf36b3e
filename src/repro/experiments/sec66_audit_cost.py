"""Section 6.6 — the cost of the syntactic and semantic checks.

For a ~37-minute game log the paper measures 34.7 s to compress the log,
13.2 s to decompress it, 6.9 s for the syntactic check and 1,977 s for the
semantic check (replay takes about as long as the recorded game play, because
it repeats all the computation but skips idle periods).  The experiment audits
the server machine of a game session and reports the same four numbers plus
the recorded play time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.avmm.config import Configuration
from repro.experiments.harness import GameSession, GameSessionSettings, format_table
from repro.log.codec import modelled_compressed_log_bytes


@dataclass
class AuditCostResult:
    """The Section 6.6 cost split."""

    recorded_seconds: float
    active_seconds: float
    compression_seconds: float
    decompression_seconds: float
    syntactic_seconds: float
    semantic_seconds: float
    log_bytes: int
    compressed_bytes: int
    audit_passed: bool

    @property
    def total_seconds(self) -> float:
        return (self.compression_seconds + self.decompression_seconds
                + self.syntactic_seconds + self.semantic_seconds)

    @property
    def semantic_fraction_of_recording(self) -> float:
        """Replay time relative to the recorded (active) play time."""
        if self.active_seconds <= 0:
            return 0.0
        return self.semantic_seconds / self.active_seconds


def run_audit_cost(duration: float = 60.0, num_players: int = 3,
                   seed: int = 42, machine: str = "server") -> AuditCostResult:
    """Record a game and measure the cost of auditing the server machine."""
    settings = GameSessionSettings(configuration=Configuration.AVMM_RSA768,
                                   num_players=num_players, duration=duration,
                                   seed=seed, snapshot_interval=None)
    session = GameSession(settings)
    session.run()
    result = session.audit(machine, auditor_identity="player1")
    audited_log = session.monitors[machine].get_log_segment()
    active = result.replay_report.active_seconds if result.replay_report else 0.0
    return AuditCostResult(
        recorded_seconds=duration,
        active_seconds=active,
        compression_seconds=result.cost.compression_seconds,
        decompression_seconds=result.cost.decompression_seconds,
        syntactic_seconds=result.cost.syntactic_seconds,
        semantic_seconds=result.cost.semantic_seconds,
        log_bytes=result.cost.log_bytes_downloaded,
        compressed_bytes=modelled_compressed_log_bytes(audited_log),
        audit_passed=result.ok,
    )


def main(duration: float = 60.0) -> AuditCostResult:
    """Print the Section 6.6 cost split."""
    result = run_audit_cost(duration=duration)
    rows = [
        ("recorded game time", f"{result.recorded_seconds:.1f} s"),
        ("active (non-idle) time", f"{result.active_seconds:.1f} s"),
        ("compress the log", f"{result.compression_seconds:.2f} s"),
        ("decompress the log", f"{result.decompression_seconds:.2f} s"),
        ("syntactic check", f"{result.syntactic_seconds:.2f} s"),
        ("semantic check (replay)", f"{result.semantic_seconds:.1f} s"),
        ("total audit time", f"{result.total_seconds:.1f} s"),
        ("log size", f"{result.log_bytes / 1e6:.1f} MB"),
        ("compressed log size", f"{result.compressed_bytes / 1e6:.1f} MB"),
        ("audit verdict", "pass" if result.audit_passed else "FAIL"),
    ]
    print("Section 6.6: cost of auditing the server machine")
    print(format_table(["step", "value"], rows))
    print(f"\nsemantic check takes {result.semantic_fraction_of_recording:.2f}x the "
          f"recorded active play time")
    return result


if __name__ == "__main__":
    main()
