"""Cheat detection in a multi-player game (the paper's headline application).

Three players and a game server each run inside an AVM.  One player installs
a cheat (an image that differs from the agreed-upon reference image).  After
the game, every player is audited: the honest players pass, the cheater's
replay diverges, and the resulting evidence convinces the other players
independently.

Run with:  python examples/cheat_detection.py
"""

from repro.audit.multiparty import distribute_evidence
from repro.audit.verdict import Verdict
from repro.avmm.config import Configuration
from repro.game.cheats import UnlimitedAmmoCheat
from repro.game.session import GameSession, GameSessionSettings


def main() -> None:
    cheater = "player1"
    settings = GameSessionSettings(
        configuration=Configuration.AVMM_RSA768,
        num_players=3,
        duration=15.0,                 # seconds of simulated game play
        snapshot_interval=5.0,
        cheats={cheater: UnlimitedAmmoCheat()},
        seed=2026,
    )
    print("playing a 3-player game (player1 has the unlimited-ammo cheat installed)...")
    session = GameSession(settings)
    session.run()

    for player in session.player_ids:
        monitor = session.monitors[player]
        print(f"  {player}: {len(monitor.log)} log entries, "
              f"{monitor.stats.frames_rendered} frames rendered")

    print("\nauditing every player...")
    results = session.audit_all()
    for player, result in results.items():
        print(f"  {result.summary()}")

    assert results[cheater].verdict is Verdict.FAIL
    assert all(results[p].verdict is Verdict.PASS
               for p in session.player_ids if p != cheater)

    # The accusing player sends the evidence to everyone else; each verifies it
    # independently with their own copy of the reference image (Section 4.6).
    evidence = results[cheater].evidence
    verifiers = [(identity, session.keystore)
                 for identity in session.identities if identity != cheater]
    verdicts = distribute_evidence(evidence, verifiers,
                                   session.reference_images[cheater])
    print("\nindependent verification of the evidence:")
    for identity, confirmed in verdicts.items():
        print(f"  {identity}: {'confirms the cheat' if confirmed else 'NOT confirmed'}")


if __name__ == "__main__":
    main()
