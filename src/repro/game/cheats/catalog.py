"""The 26-cheat catalogue behind Table 1.

The paper downloaded 26 real Counterstrike cheats from popular discussion
forums and classified them: all 26 must be installed inside the game VM to be
effective (class 1, detectable in that implementation), and at least 4 of them
additionally make the machine's network-visible behaviour inconsistent with
any correct execution (class 2, detectable in any implementation).

The catalogue below mirrors that population with the cheat types those forums
actually distribute.  Entries that have a runnable implementation in this
repository reference it by name; the functional check (Section 6.3) runs the
non-OpenGL subset end to end, as the paper did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.game.cheats.base import CheatClass, CheatSpec

_C1 = CheatClass.INSTALLED_IN_AVM
_C2 = CheatClass.NETWORK_VISIBLE

CHEAT_CATALOG: List[CheatSpec] = [
    CheatSpec("aimbot", "snaps the crosshair onto the nearest opponent", _C1,
              implementation="AimbotCheat"),
    CheatSpec("silent-aimbot", "aims server-side without moving the view", _C1),
    CheatSpec("triggerbot", "fires automatically when an opponent is under the crosshair",
              _C1, implementation="TriggerBotCheat"),
    CheatSpec("wallhack", "renders opaque surfaces transparent", _C1,
              requires_opengl=True, implementation="WallhackCheat"),
    CheatSpec("asus-driver-wallhack", "transparent textures via a modified graphics driver",
              _C1, requires_opengl=True),
    CheatSpec("esp-overlay", "draws opponent positions, health and weapons on screen",
              _C1, requires_opengl=True),
    CheatSpec("radar-hack", "shows all players on the radar regardless of visibility", _C1),
    CheatSpec("sound-esp", "plays a tone when an opponent is nearby", _C1),
    CheatSpec("no-smoke", "removes smoke-grenade effects", _C1, requires_opengl=True),
    CheatSpec("no-flash", "removes flashbang blinding", _C1, requires_opengl=True),
    CheatSpec("crosshair-overlay", "adds a permanent sniper crosshair", _C1,
              requires_opengl=True),
    CheatSpec("unlimited-ammo", "rewrites the ammunition counter in memory",
              _C1 | _C2, implementation="UnlimitedAmmoCheat"),
    CheatSpec("unlimited-health", "rewrites the health value in memory (god mode)",
              _C1 | _C2, implementation="UnlimitedHealthCheat"),
    CheatSpec("teleport", "rewrites the position variables to jump across the map",
              _C1 | _C2, implementation="TeleportCheat"),
    CheatSpec("rapid-fire", "fires faster than the weapon's rate of fire allows",
              _C1 | _C2, implementation="NoRecoilCheat"),
    CheatSpec("speedhack", "accelerates the client clock to move faster", _C1,
              implementation="SpeedHackCheat"),
    CheatSpec("no-recoil", "removes weapon recoil compensation", _C1,
              implementation="NoRecoilCheat"),
    CheatSpec("no-spread", "removes bullet spread for perfect accuracy", _C1),
    CheatSpec("bunnyhop-script", "scripted jump timing for faster movement", _C1),
    CheatSpec("auto-pistol", "turns semi-automatic pistols into automatic ones", _C1),
    CheatSpec("spinbot", "spins the view to make headshots against the player difficult",
              _C1),
    CheatSpec("anti-flash-skins", "bright player skins visible in the dark", _C1,
              requires_opengl=True),
    CheatSpec("lambert-fullbright", "removes lighting so players never hide in shadow",
              _C1, requires_opengl=True),
    CheatSpec("hitbox-expander", "enlarges opponent hitboxes client-side", _C1),
    CheatSpec("knife-range-extender", "extends melee range in memory", _C1),
    CheatSpec("config-exploit-scripts", "scripted config abuse (turn/jump binds)", _C1),
]


@dataclass(frozen=True)
class CatalogSummary:
    """The aggregated numbers Table 1 reports."""

    total: int
    detectable: int
    detectable_this_implementation_only: int
    detectable_any_implementation: int
    not_detectable: int

    def as_rows(self) -> List[tuple]:
        return [
            ("Total number of cheats examined", self.total),
            ("Cheats detectable with AVMs", self.detectable),
            ("... in this specific implementation of the cheat",
             self.detectable_this_implementation_only),
            ("... no matter how the cheat is implemented",
             self.detectable_any_implementation),
            ("Cheats not detectable with AVMs", self.not_detectable),
        ]


def catalog_summary(catalog: Optional[List[CheatSpec]] = None) -> CatalogSummary:
    """Aggregate the catalogue into the Table 1 rows."""
    specs = catalog if catalog is not None else CHEAT_CATALOG
    detectable = [s for s in specs if s.detectable]
    any_impl = [s for s in specs if s.detectable_in_any_implementation]
    this_impl_only = [s for s in specs if s.detectable_in_this_implementation_only]
    return CatalogSummary(
        total=len(specs),
        detectable=len(detectable),
        detectable_this_implementation_only=len(this_impl_only),
        detectable_any_implementation=len(any_impl),
        not_detectable=len(specs) - len(detectable),
    )
