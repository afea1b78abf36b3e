"""Concrete cheat implementations.

Each cheat subclasses the reference :class:`~repro.game.client.GameClientGuest`
and overrides one of its hook methods, then wraps the result in a *modified*
VM image — the in-simulation equivalent of installing a hacked module or
patched driver alongside the game.  The modified image's program digest
differs from the reference image's, and its behaviour diverges during replay,
so every one of these is detected by an audit (Section 6.3).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.game.cheats.base import Cheat, CheatClass
from repro.game.client import ClientSettings, GameClientGuest
from repro.game.images import _OFFICIAL_DISK
from repro.game.protocol import aim_command, fire_command
from repro.vm.image import VMImage


def _cheat_image(settings: ClientSettings, guest_class, cheat_name: str) -> VMImage:
    """Package a patched client class as an installed-cheat VM image."""
    disk = dict(_OFFICIAL_DISK)
    disk[100] = f"cheat-module:{cheat_name}".encode("utf-8")
    return VMImage(
        name=f"cs-client-{cheat_name}-{settings.player_id}",
        guest_factory=lambda: guest_class(settings),
        disk_blocks=disk,
        allow_software_installation=False,
        metadata={"role": "client", "player": settings.player_id, "cheat": cheat_name},
    )


# ---------------------------------------------------------------------------
# Aimbot: perfect target acquisition from forged aim input (Section 5.3).
# ---------------------------------------------------------------------------

class _AimbotClient(GameClientGuest):

    def hook_transform_commands(self, commands: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Before every fire command, snap the aim onto the nearest opponent."""
        me = self._my_state()
        players = self.last_snapshot.get("players", {})
        if me is None or not players:
            return commands
        transformed: List[Dict[str, Any]] = []
        for command in commands:
            if command.get("action") == "fire":
                target = self._nearest_opponent(me, players)
                if target is not None:
                    angle = math.atan2(target["y"] - me["y"], target["x"] - me["x"])
                    transformed.append(aim_command(angle % (2.0 * math.pi)))
            transformed.append(command)
        return transformed

    @staticmethod
    def _nearest_opponent(me: Dict[str, Any], players: Dict[str, Any]):
        best = None
        best_distance = None
        for pid, other in sorted(players.items()):
            if pid == me["player_id"] or not other.get("alive", True):
                continue
            distance = math.hypot(other["x"] - me["x"], other["y"] - me["y"])
            if best_distance is None or distance < best_distance:
                best, best_distance = other, distance
        return best


class AimbotCheat(Cheat):
    spec_name = "aimbot"
    cheat_class = CheatClass.INSTALLED_IN_AVM

    def patch_image(self, settings: ClientSettings) -> VMImage:
        return _cheat_image(settings, _AimbotClient, "aimbot")


# ---------------------------------------------------------------------------
# Unlimited ammunition: fires with an empty magazine (class 1 AND class 2).
# ---------------------------------------------------------------------------

class _UnlimitedAmmoClient(GameClientGuest):

    def hook_allow_fire(self) -> bool:
        return True

    def hook_after_fire(self) -> None:
        # The cheat periodically rewrites the ammunition counter in memory, so
        # it never decreases.
        self.local_ammo = max(self.local_ammo, 1)


class UnlimitedAmmoCheat(Cheat):
    spec_name = "unlimited-ammo"
    cheat_class = CheatClass.INSTALLED_IN_AVM | CheatClass.NETWORK_VISIBLE

    def patch_image(self, settings: ClientSettings) -> VMImage:
        return _cheat_image(settings, _UnlimitedAmmoClient, "unlimited-ammo")


# ---------------------------------------------------------------------------
# Unlimited health / god mode.
# ---------------------------------------------------------------------------

class _UnlimitedHealthClient(GameClientGuest):

    def _on_packet(self, api, event) -> None:  # noqa: D401 - see base class
        super()._on_packet(api, event)
        me = self._my_state()
        if me is not None:
            # Overwrite the in-memory health value so the local game never
            # registers the player as dead.
            me["health"] = 100
            me["alive"] = True


class UnlimitedHealthCheat(Cheat):
    spec_name = "unlimited-health"
    cheat_class = CheatClass.INSTALLED_IN_AVM | CheatClass.NETWORK_VISIBLE

    def patch_image(self, settings: ClientSettings) -> VMImage:
        return _cheat_image(settings, _UnlimitedHealthClient, "unlimited-health")


# ---------------------------------------------------------------------------
# Teleportation: rewrites the position variable.
# ---------------------------------------------------------------------------

class _TeleportClient(GameClientGuest):

    def hook_transform_commands(self, commands: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        transformed = []
        for command in commands:
            if command.get("action") == "move":
                # Jump ten times farther than a legal move allows.
                command = dict(command)
                command["dx"] = command["dx"] * 10.0
                command["dy"] = command["dy"] * 10.0
            transformed.append(command)
        return transformed


class TeleportCheat(Cheat):
    spec_name = "teleport"
    cheat_class = CheatClass.INSTALLED_IN_AVM | CheatClass.NETWORK_VISIBLE

    def patch_image(self, settings: ClientSettings) -> VMImage:
        return _cheat_image(settings, _TeleportClient, "teleport")


# ---------------------------------------------------------------------------
# Speed hack.
# ---------------------------------------------------------------------------

class _SpeedHackClient(GameClientGuest):

    def hook_move_scale(self) -> float:
        return 3.0


class SpeedHackCheat(Cheat):
    spec_name = "speedhack"
    cheat_class = CheatClass.INSTALLED_IN_AVM

    def patch_image(self, settings: ClientSettings) -> VMImage:
        return _cheat_image(settings, _SpeedHackClient, "speedhack")


# ---------------------------------------------------------------------------
# No-recoil / rapid fire: fires on every tick regardless of player input.
# ---------------------------------------------------------------------------

class _NoRecoilClient(GameClientGuest):

    def hook_transform_commands(self, commands: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        # Strip the recoil-compensation jitter the real client would add and
        # duplicate every fire command (rapid fire).
        transformed = []
        for command in commands:
            transformed.append(command)
            if command.get("action") == "fire":
                transformed.append(fire_command())
        return transformed


class NoRecoilCheat(Cheat):
    spec_name = "no-recoil"
    cheat_class = CheatClass.INSTALLED_IN_AVM | CheatClass.NETWORK_VISIBLE

    def patch_image(self, settings: ClientSettings) -> VMImage:
        return _cheat_image(settings, _NoRecoilClient, "no-recoil")


# ---------------------------------------------------------------------------
# Trigger bot: fires automatically whenever an opponent becomes visible.
# ---------------------------------------------------------------------------

class _TriggerBotClient(GameClientGuest):

    def _on_tick(self, api) -> None:  # noqa: D401 - see base class
        if self.hook_visible_players() and self.hook_allow_fire():
            self.hook_after_fire()
            self.shots_sent += 1
            self.pending_commands.append(fire_command())
        super()._on_tick(api)


class TriggerBotCheat(Cheat):
    spec_name = "triggerbot"
    cheat_class = CheatClass.INSTALLED_IN_AVM

    def patch_image(self, settings: ClientSettings) -> VMImage:
        return _cheat_image(settings, _TriggerBotClient, "triggerbot")


def implemented_cheats() -> List[Cheat]:
    """All cheats with a runnable implementation, in catalogue order."""
    return [
        AimbotCheat(),
        UnlimitedAmmoCheat(),
        UnlimitedHealthCheat(),
        TeleportCheat(),
        SpeedHackCheat(),
        NoRecoilCheat(),
        TriggerBotCheat(),
    ]
