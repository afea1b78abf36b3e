"""Deterministic game rules.

The engine implements the authoritative rules the server applies: movement,
hit-scan shooting with line-of-sight against walls, damage, ammunition,
respawns and visibility.  Everything is a pure function of the current state
and the command, so the same command stream always produces the same world —
the property replay relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.game.state import DEFAULT_WEAPON, GameState, MAX_HEALTH, MOVE_SPEED, PlayerState, Wall

RESPAWN_DELAY_TICKS = 32
RELOAD_AMOUNT = DEFAULT_WEAPON.magazine


@dataclass(frozen=True)
class ShotResult:
    """Outcome of one shot."""

    shooter: str
    hit: Optional[str]
    killed: bool
    blocked_by_wall: bool
    out_of_ammo: bool


class GameEngine:
    """Applies commands to a :class:`GameState`."""

    def __init__(self, state: GameState) -> None:
        self.state = state
        self._respawn_at: Dict[str, int] = {}

    # -- commands ---------------------------------------------------------------

    def join(self, player_id: str) -> PlayerState:
        """Add a player to the game."""
        return self.state.add_player(player_id)

    def move(self, player_id: str, dx: float, dy: float) -> Tuple[float, float]:
        """Move a player by a unit direction, scaled by the move speed."""
        player = self._require_player(player_id)
        if not player.alive:
            return (player.x, player.y)
        norm = math.hypot(dx, dy)
        if norm == 0:
            return (player.x, player.y)
        new_x = player.x + (dx / norm) * MOVE_SPEED
        new_y = player.y + (dy / norm) * MOVE_SPEED
        new_x, new_y = self.state.game_map.clamp(new_x, new_y)
        if not self._inside_wall(new_x, new_y):
            player.x, player.y = new_x, new_y
        return (player.x, player.y)

    def aim(self, player_id: str, facing: float) -> float:
        """Turn a player to face the given angle (radians)."""
        player = self._require_player(player_id)
        player.facing = facing % (2.0 * math.pi)
        return player.facing

    def shoot(self, player_id: str) -> ShotResult:
        """Fire the player's weapon along its facing direction."""
        shooter = self._require_player(player_id)
        if not shooter.alive:
            return ShotResult(player_id, None, False, False, False)
        if shooter.ammo <= 0:
            return ShotResult(player_id, None, False, False, out_of_ammo=True)
        shooter.ammo -= 1
        shooter.shots_fired += 1

        target = self._hitscan(shooter)
        if target is None:
            return ShotResult(player_id, None, False, False, False)
        if isinstance(target, Wall):
            return ShotResult(player_id, None, False, blocked_by_wall=True,
                              out_of_ammo=False)
        target.health -= shooter.weapon.damage
        killed = False
        if target.health <= 0 and target.alive:
            target.alive = False
            target.health = 0
            target.deaths += 1
            shooter.kills += 1
            killed = True
            self._respawn_at[target.player_id] = self.state.tick + RESPAWN_DELAY_TICKS
        return ShotResult(player_id, target.player_id, killed, False, False)

    def reload(self, player_id: str) -> int:
        """Refill the player's magazine; returns the new ammo count."""
        player = self._require_player(player_id)
        player.ammo = RELOAD_AMOUNT
        return player.ammo

    def advance_tick(self) -> List[str]:
        """Advance the world one tick; returns ids of players who respawned."""
        self.state.tick += 1
        respawned = []
        for player_id, when in sorted(self._respawn_at.items()):
            if self.state.tick >= when:
                player = self.state.players[player_id]
                # a small per-player offset spreads the respawn points
                spawn = self.state.game_map.spawn_for(
                    player.deaths + sum(player_id.encode("utf-8")) % 8)
                player.x, player.y = spawn
                player.health = MAX_HEALTH
                player.ammo = RELOAD_AMOUNT
                player.alive = True
                respawned.append(player_id)
        for player_id in respawned:
            del self._respawn_at[player_id]
        return respawned

    # -- internals -------------------------------------------------------------------

    def _require_player(self, player_id: str) -> PlayerState:
        player = self.state.players.get(player_id)
        if player is None:
            raise KeyError(f"unknown player {player_id!r}")
        return player

    def _inside_wall(self, x: float, y: float) -> bool:
        return any(wall.contains(x, y) for wall in self.state.game_map.walls)

    def _hitscan(self, shooter: PlayerState):
        """Trace the shot; returns the hit player, a wall, or ``None``."""
        hit_radius = 20.0
        step = 10.0
        distance = step
        while distance <= shooter.weapon.range:
            x = shooter.x + math.cos(shooter.facing) * distance
            y = shooter.y + math.sin(shooter.facing) * distance
            if self._inside_wall(x, y):
                return next(w for w in self.state.game_map.walls if w.contains(x, y))
            for other in self.state.players.values():
                if other.player_id == shooter.player_id or not other.alive:
                    continue
                if math.hypot(other.x - x, other.y - y) <= hit_radius:
                    return other
            distance += step
        return None
