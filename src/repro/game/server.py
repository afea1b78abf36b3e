"""The game server guest program.

The server keeps the authoritative :class:`~repro.game.state.GameState`,
applies the command packets it receives from clients in arrival order, and
broadcasts a world snapshot to every connected client every few ticks.  It is
a deterministic guest: identical packet/timer sequences produce identical
state and identical outgoing snapshots.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.game import protocol
from repro.game.engine import GameEngine
from repro.game.state import GameMap, GameState
from repro.vm.events import GuestEvent, KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.guest import GuestProgram, MachineApi


class GameServerGuest(GuestProgram):
    """Authoritative Counterstrike-like server."""

    name = "cs-server"

    #: ticks between outgoing state snapshots (20 snapshots/s at 64 tick/s)
    SNAPSHOT_EVERY_TICKS = 3
    #: simulated seconds between server ticks
    TICK_INTERVAL = 1.0 / 64.0
    #: abstract cycles of game logic per tick
    CYCLES_PER_TICK = 400

    def __init__(self, game_map: Optional[GameMap] = None) -> None:
        self.state = GameState(game_map=game_map or GameMap.default_arena())
        self.engine = GameEngine(self.state)
        self.clients: List[str] = []
        self._pending_commands: List[Dict[str, Any]] = []
        self._started_at: float = 0.0

    # -- guest interface -----------------------------------------------------------

    def on_start(self, api: MachineApi) -> None:
        self._started_at = api.read_clock()
        api.set_timer(self.TICK_INTERVAL)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        if isinstance(event, TimerInterrupt):
            self._on_tick(api)
        elif isinstance(event, PacketDelivery):
            self._on_packet(api, event)
        elif isinstance(event, KeyboardInput):
            # A dedicated server has no local input; ignore it deterministically.
            api.consume_cycles(1)

    # -- state (snapshots) ------------------------------------------------------------

    def get_state(self) -> Dict[str, Any]:
        return {
            "game": self.state.to_dict(),
            "clients": list(self.clients),
            "pending_commands": list(self._pending_commands),
            "started_at": self._started_at,
            "respawn_at": dict(self.engine._respawn_at),  # noqa: SLF001 - own engine
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        self.state = GameState.from_dict(state["game"])
        self.engine = GameEngine(self.state)
        self.engine._respawn_at = {k: int(v) for k, v  # noqa: SLF001 - own engine
                                   in state.get("respawn_at", {}).items()}
        self.clients = list(state["clients"])
        self._pending_commands = list(state["pending_commands"])
        self._started_at = float(state["started_at"])

    # -- internals -----------------------------------------------------------------------

    def _on_tick(self, api: MachineApi) -> None:
        api.consume_cycles(self.CYCLES_PER_TICK)
        self._apply_pending_commands()
        self.engine.advance_tick()
        if self.state.tick % self.SNAPSHOT_EVERY_TICKS == 0 and self.clients:
            now = api.read_clock()
            players = {pid: protocol.compact_player(p.to_dict())
                       for pid, p in sorted(self.state.players.items())}
            update = protocol.delta_packet(players, self.state.tick)
            for client in self.clients:
                api.send_packet(client, update)
            api.consume_cycles(50 * len(self.clients) + int(now) % 2)

    def _on_packet(self, api: MachineApi, event: PacketDelivery) -> None:
        api.consume_cycles(40)
        packet = protocol.decode_packet(event.payload)
        if packet["type"] == protocol.PACKET_JOIN:
            player = str(packet["player"])
            self.engine.join(player)
            if event.source not in self.clients:
                self.clients.append(event.source)
            # Confirm the join with an immediate snapshot to the new client.
            api.send_packet(event.source,
                            protocol.snapshot_packet(self.state.to_dict(),
                                                     self.state.tick))
        elif packet["type"] == protocol.PACKET_COMMANDS:
            self._pending_commands.append(packet)

    def _apply_pending_commands(self) -> None:
        for packet in self._pending_commands:
            player = str(packet["player"])
            if player not in self.state.players:
                continue
            for command in packet.get("commands", []):
                self._apply_command(player, command)
        self._pending_commands = []

    def _apply_command(self, player: str, command: Dict[str, Any]) -> None:
        action = command.get("action")
        if action == "move":
            self.engine.move(player, float(command.get("dx", 0.0)),
                             float(command.get("dy", 0.0)))
        elif action == "aim":
            self.engine.aim(player, float(command.get("angle", 0.0)))
        elif action == "fire":
            self.engine.shoot(player)
        elif action == "reload":
            self.engine.reload(player)
