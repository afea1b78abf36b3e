"""Online auditing: catch a cheater while the game is still running.

Section 6.11: instead of waiting for the game to end, a player audits an
opponent's log incrementally during the game.  Here player2 audits player1
(who runs an aimbot image) every few seconds of simulated time and detects
the cheat mid-game.

Run with:  python examples/online_auditing.py
"""

from repro.audit.online import OnlineAuditor
from repro.avmm.config import Configuration
from repro.game.cheats import AimbotCheat
from repro.game.session import GameSession, GameSessionSettings
from repro.metrics.framerate import FrameRateModel


def main() -> None:
    cheater = "player1"
    settings = GameSessionSettings(
        configuration=Configuration.AVMM_RSA768,
        num_players=3,
        duration=24.0,
        snapshot_interval=8.0,
        cheats={cheater: AimbotCheat()},
        seed=7,
    )
    session = GameSession(settings)

    online = OnlineAuditor(session.make_auditor("player2", cheater),
                           session.monitors[cheater], session.scheduler,
                           interval=6.0)
    online.start()
    print("playing while player2 audits player1 online every 6 seconds...")
    session.run()
    online.stop()

    for record in online.records:
        print(f"  t={record.time:5.1f} s: audited {record.entries_audited} entries "
              f"-> {record.verdict.value}")
    if online.detection_time is not None:
        print(f"\naimbot detected {online.detection_time:.1f} s into the game "
              f"(the game ran for {settings.duration:.0f} s)")
    else:
        print("\ncheat not detected (increase the duration or audit frequency)")

    # What does concurrent auditing cost the auditing player? (Figure 8)
    model = FrameRateModel()
    for audits in (0, 1, 2):
        sample = model.compute(session.monitors["player2"], settings.duration,
                               concurrent_audits=audits,
                               audit_slowdown=0.05 if audits else 0.0)
        print(f"frame rate with {audits} concurrent online audits: "
              f"{sample.frames_per_second:.0f} fps")


if __name__ == "__main__":
    main()
