"""Figure 8 — frame rate with zero, one or two online audits per machine.

Players can audit each other *during* the game (Section 6.11).  Each
concurrent audit consumes CPU on the auditing player's machine; because the
machine has idle cores the drop is sub-linear (137 -> ~120 -> ~104 fps in the
paper).  The experiment also runs real :class:`~repro.audit.online.OnlineAuditor`
sessions to confirm that a cheat is detected while the game is still running,
and reports how far the audit lags behind the recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.audit.online import OnlineAuditor
from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.cheats.implementations import UnlimitedAmmoCheat
from repro.game.session import GameSession, GameSessionSettings


@dataclass
class OnlineAuditResult:
    """Frame rates under concurrent audits, plus online-detection outcomes."""

    duration: float
    fps_by_audit_count: Dict[int, float]
    detection_time: Optional[float] = None
    cheat_name: Optional[str] = None
    audit_passes: int = 0
    audit_lag_entries: int = 0


#: simulated seconds between two online audit passes
AUDIT_INTERVAL = 10.0


def run_online_audit(duration: float = 40.0) -> OnlineAuditResult:
    """Measure the frame-rate cost of online auditing and detection latency."""
    cheat = UnlimitedAmmoCheat()
    settings = GameSessionSettings(
        configuration=Configuration.AVMM_RSA768, duration=duration,
        snapshot_interval=duration / 2.0, cheats={"player1": cheat})
    session = GameSession(settings)

    # Player 2 audits player 1 online, while the game runs.
    target = "player1"
    peers = [monitor for name, monitor in session.monitors.items()
             if name != target]
    online = OnlineAuditor(session.make_auditor("player2", target),
                           session.monitors[target], session.scheduler,
                           peers, interval=AUDIT_INTERVAL)
    online.start(delay=AUDIT_INTERVAL)
    session.run()
    online.stop()

    # Frame rate of an auditing machine with 0 / 1 / 2 concurrent audits.
    observer = session.player_ids[-1]
    fps = {count: session.frame_rate(observer, concurrent_audits=count,
                                     audit_slowdown=0.0 if count == 0 else 0.05)
           .frames_per_second
           for count in (0, 1, 2)}

    return OnlineAuditResult(
        duration=duration,
        fps_by_audit_count=fps,
        detection_time=online.detection_time,
        cheat_name=cheat.spec_name,
        audit_passes=len(online.records),
        audit_lag_entries=online.lag_entries,
    )


def main(duration: float = 40.0) -> OnlineAuditResult:
    """Print the Figure 8 frame rates and the online-detection outcome."""
    result = run_online_audit(duration=duration)
    rows = [(f"{count} audits", f"{fps:.0f}")
            for count, fps in sorted(result.fps_by_audit_count.items())]
    print("Figure 8: frame rate with concurrent online audits")
    print(format_table(["online audits per machine", "fps"], rows))
    when = (f"{result.detection_time:.1f} s into the game"
            if result.detection_time is not None else "NOT DETECTED")
    print(f"\nonline detection of {result.cheat_name}: {when} "
          f"({result.audit_passes} audit passes, lag {result.audit_lag_entries} entries)")
    return result


if __name__ == "__main__":
    main()
