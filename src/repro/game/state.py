"""Game state: players, weapons, the map and the world.

Everything here is plain, serialisable and deterministic — the state is part
of what gets snapshotted and replayed, so no randomness or wall-clock access
is allowed; all decisions are functions of the state and the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Weapon:
    """A hit-scan weapon."""

    name: str = "rifle"
    damage: int = 25
    magazine: int = 30
    range: float = 600.0

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "damage": self.damage,
                "magazine": self.magazine, "range": self.range}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Weapon":
        return Weapon(name=str(data["name"]), damage=int(data["damage"]),
                      magazine=int(data["magazine"]), range=float(data["range"]))


DEFAULT_WEAPON = Weapon()
MAX_HEALTH = 100
MOVE_SPEED = 5.0  # distance units per move command


@dataclass
class PlayerState:
    """One player's authoritative state."""

    player_id: str
    x: float = 0.0
    y: float = 0.0
    facing: float = 0.0            # radians
    health: int = MAX_HEALTH
    ammo: int = DEFAULT_WEAPON.magazine
    alive: bool = True
    kills: int = 0
    deaths: int = 0
    shots_fired: int = 0
    weapon: Weapon = field(default_factory=lambda: DEFAULT_WEAPON)

    def to_dict(self) -> Dict[str, Any]:
        # Floats are stored verbatim: JSON round-trips them exactly, and any
        # rounding here would make snapshots lossy and break replay-from-snapshot.
        return {
            "player_id": self.player_id,
            "x": self.x,
            "y": self.y,
            "facing": self.facing,
            "health": self.health,
            "ammo": self.ammo,
            "alive": self.alive,
            "kills": self.kills,
            "deaths": self.deaths,
            "shots_fired": self.shots_fired,
            "weapon": self.weapon.to_dict(),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "PlayerState":
        return PlayerState(
            player_id=str(data["player_id"]),
            x=float(data["x"]), y=float(data["y"]), facing=float(data["facing"]),
            health=int(data["health"]), ammo=int(data["ammo"]),
            alive=bool(data["alive"]), kills=int(data["kills"]),
            deaths=int(data["deaths"]), shots_fired=int(data["shots_fired"]),
            weapon=Weapon.from_dict(data["weapon"]),
        )


@dataclass(frozen=True)
class Wall:
    """An axis-aligned opaque rectangle (blocks shots and sight)."""

    x0: float
    y0: float
    x1: float
    y1: float

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def to_dict(self) -> Dict[str, float]:
        return {"x0": self.x0, "y0": self.y0, "x1": self.x1, "y1": self.y1}

    @staticmethod
    def from_dict(data: Dict[str, float]) -> "Wall":
        return Wall(x0=float(data["x0"]), y0=float(data["y0"]),
                    x1=float(data["x1"]), y1=float(data["y1"]))


@dataclass(frozen=True)
class GameMap:
    """The arena: dimensions, walls and spawn points."""

    width: float = 1000.0
    height: float = 1000.0
    walls: Tuple[Wall, ...] = ()
    spawn_points: Tuple[Tuple[float, float], ...] = (
        (100.0, 100.0), (900.0, 100.0), (100.0, 900.0), (900.0, 900.0),
        (500.0, 500.0), (500.0, 100.0), (100.0, 500.0), (900.0, 500.0),
    )

    def clamp(self, x: float, y: float) -> Tuple[float, float]:
        """Keep a position inside the arena."""
        return (min(max(x, 0.0), self.width), min(max(y, 0.0), self.height))

    def spawn_for(self, index: int) -> Tuple[float, float]:
        return self.spawn_points[index % len(self.spawn_points)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "width": self.width,
            "height": self.height,
            "walls": [w.to_dict() for w in self.walls],
            "spawn_points": [list(p) for p in self.spawn_points],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "GameMap":
        return GameMap(
            width=float(data["width"]), height=float(data["height"]),
            walls=tuple(Wall.from_dict(w) for w in data["walls"]),
            spawn_points=tuple((float(p[0]), float(p[1])) for p in data["spawn_points"]),
        )

    @staticmethod
    def default_arena() -> "GameMap":
        """The standard map used by the experiments: a few cover walls."""
        return GameMap(walls=(
            Wall(300.0, 300.0, 400.0, 700.0),
            Wall(600.0, 100.0, 700.0, 400.0),
            Wall(550.0, 600.0, 850.0, 650.0),
        ))


@dataclass
class GameState:
    """Authoritative world state kept by the server."""

    game_map: GameMap = field(default_factory=GameMap.default_arena)
    players: Dict[str, PlayerState] = field(default_factory=dict)
    tick: int = 0
    round_number: int = 1

    def add_player(self, player_id: str) -> PlayerState:
        """Add a player at the next spawn point (idempotent)."""
        if player_id in self.players:
            return self.players[player_id]
        spawn = self.game_map.spawn_for(len(self.players))
        player = PlayerState(player_id=player_id, x=spawn[0], y=spawn[1])
        self.players[player_id] = player
        return player

    def to_dict(self) -> Dict[str, Any]:
        return {
            "game_map": self.game_map.to_dict(),
            "players": {pid: p.to_dict() for pid, p in sorted(self.players.items())},
            "tick": self.tick,
            "round_number": self.round_number,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "GameState":
        state = GameState(
            game_map=GameMap.from_dict(data["game_map"]),
            tick=int(data["tick"]),
            round_number=int(data["round_number"]),
        )
        state.players = {pid: PlayerState.from_dict(p)
                         for pid, p in data["players"].items()}
        return state
