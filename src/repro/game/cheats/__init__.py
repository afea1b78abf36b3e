"""The cheat catalogue (Section 5 / Table 1).

Every cheat the paper examined falls into one (or both) of two classes:

* **Class 1** — the cheat must be installed along with the game (a module,
  patch or companion program inside the AVM).  Replaying the cheater's log on
  the *reference* image inevitably diverges, so the cheat is detected in this
  implementation; a sufficiently determined cheater could re-engineer it to
  run outside the AVM.
* **Class 2** — the cheat makes the machine's network-visible behaviour
  inconsistent with *any* correct execution (firing with an empty magazine,
  teleporting, surviving lethal damage).  Detection is implementation-
  independent.

:data:`~repro.game.cheats.catalog.CHEAT_CATALOG` lists all 26 cheats with
their classification; the concrete implementations in
:mod:`repro.game.cheats.implementations` actually patch the client image so
the functional experiments (Section 6.3) can run real cheated games and audit
them.
"""

from repro.game.cheats.base import Cheat, CheatClass, CheatSpec
from repro.game.cheats.catalog import CHEAT_CATALOG, catalog_summary
from repro.game.cheats.implementations import (
    AimbotCheat,
    NoRecoilCheat,
    SpeedHackCheat,
    TeleportCheat,
    TriggerBotCheat,
    UnlimitedAmmoCheat,
    UnlimitedHealthCheat,
    implemented_cheats,
)

__all__ = [
    "Cheat",
    "CheatClass",
    "CheatSpec",
    "CHEAT_CATALOG",
    "catalog_summary",
    "AimbotCheat",
    "UnlimitedAmmoCheat",
    "UnlimitedHealthCheat",
    "TeleportCheat",
    "SpeedHackCheat",
    "NoRecoilCheat",
    "TriggerBotCheat",
    "implemented_cheats",
]
