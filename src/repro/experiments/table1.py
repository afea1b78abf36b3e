"""Table 1 — detectability of Counterstrike cheats, plus the Section 6.3
functionality check.

The table itself aggregates the 26-entry cheat catalogue.  The functionality
check plays short games in which one player uses a pre-installed cheat image
and verifies that the audits of the honest players succeed while the audit of
the cheater fails with a replay divergence — exactly the outcome the paper
reports for the four non-OpenGL cheats it tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.audit.verdict import Verdict
from repro.avmm.config import Configuration
from repro.experiments.harness import format_table
from repro.game.cheats.base import Cheat
from repro.game.cheats.catalog import CHEAT_CATALOG, CatalogSummary, catalog_summary
from repro.game.cheats.implementations import implemented_cheats
from repro.game.session import GameSession, GameSessionSettings


@dataclass
class FunctionalCheckResult:
    """Outcome of one cheated game (Section 6.3)."""

    cheat_name: str
    cheater: str
    cheater_detected: bool
    honest_players_passed: bool
    divergence_reason: str = ""


@dataclass
class Table1Result:
    """Everything the Table 1 experiment produces."""

    summary: CatalogSummary
    functional_checks: List[FunctionalCheckResult] = field(default_factory=list)


def run_functional_check(cheat: Cheat, duration: float = 10.0,
                         num_players: int = 3, seed: int = 7) -> FunctionalCheckResult:
    """Play one game with a single cheater and audit every player."""
    cheater = "player1"
    settings = GameSessionSettings(
        configuration=Configuration.AVMM_RSA768,
        num_players=num_players,
        duration=duration,
        seed=seed,
        snapshot_interval=duration / 2.0,
        cheats={cheater: cheat},
    )
    session = GameSession(settings)
    session.run()
    results = session.audit_all()

    cheater_result = results[cheater]
    honest_ok = all(result.verdict is Verdict.PASS
                    for player, result in results.items() if player != cheater)
    return FunctionalCheckResult(
        cheat_name=cheat.spec_name,
        cheater=cheater,
        cheater_detected=cheater_result.verdict is Verdict.FAIL,
        honest_players_passed=honest_ok,
        divergence_reason=cheater_result.reason,
    )


def run_table1(run_functional: bool = True, functional_duration: float = 10.0,
               functional_cheats: Optional[List[Cheat]] = None) -> Table1Result:
    """Reproduce Table 1 and the Section 6.3 functionality check."""
    result = Table1Result(summary=catalog_summary())
    if not run_functional:
        return result
    cheats = functional_cheats
    if cheats is None:
        # Like the paper, run the cheats that do not depend on the rendering
        # pipeline (OpenGL) end to end.
        opengl_specs = {spec.name for spec in CHEAT_CATALOG if spec.requires_opengl}
        cheats = [cheat for cheat in implemented_cheats()
                  if cheat.spec_name not in opengl_specs]
    for cheat in cheats:
        result.functional_checks.append(
            run_functional_check(cheat, duration=functional_duration))
    return result


def main(duration: float = 10.0) -> Table1Result:
    """Print Table 1 and the functionality-check outcomes."""
    result = run_table1(functional_duration=duration)
    print("Table 1: Detectability of Counterstrike cheats")
    print(format_table(["", "count"], result.summary.as_rows()))
    if result.functional_checks:
        print("\nFunctionality check (Section 6.3): one cheater per game")
        rows = [(r.cheat_name, "detected" if r.cheater_detected else "MISSED",
                 "pass" if r.honest_players_passed else "FALSE POSITIVE")
                for r in result.functional_checks]
        print(format_table(["cheat", "cheater audit", "honest audits"], rows))
    return result


if __name__ == "__main__":
    main()
