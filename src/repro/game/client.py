"""The game client guest program.

The client is what each player runs inside their AVM.  It consumes local
keyboard/mouse input (delivered as :class:`~repro.vm.events.KeyboardInput`
events the AVMM records), renders frames, keeps a local view of the world from
server snapshots, and sends command packets to the server at a fixed rate —
like Counterstrike, the packets are small and frequent (Section 6.7).

The methods prefixed ``hook_`` are the surfaces the cheat implementations
override (:mod:`repro.game.cheats`): target acquisition, visibility, local
ammunition tracking, movement speed.  The unmodified client is the *reference
image*; any image with a different hook implementation produces a different
execution and therefore fails replay when audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.game import protocol
from repro.game.state import DEFAULT_WEAPON
from repro.vm.events import GuestEvent, KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.guest import GuestProgram, MachineApi


#: simulated seconds between client ticks
TICK_INTERVAL = 1.0 / 64.0
#: send a command packet every this many ticks (~26 packets/s at 64 Hz)
UPDATE_EVERY_TICKS = 2
#: frames rendered per tick when the frame-rate cap is off
FRAMES_PER_TICK = 2
#: abstract cycles burned per busy-wait loop iteration (small enough that
#: consecutive clock reads fall within the optimiser's 5 us window)
BUSY_WAIT_CYCLES = 200


@dataclass(frozen=True)
class ClientSettings:
    """Static configuration of a game client (part of the image identity)."""

    player_id: str
    server: str
    #: frame-rate cap; ``None`` renders as fast as possible (the paper's
    #: measurement configuration), a number reproduces the busy-wait behaviour
    #: of Section 6.5
    frame_cap_fps: Optional[float] = None


class GameClientGuest(GuestProgram):
    """Counterstrike-like game client."""

    name = "cs-client"

    def __init__(self, settings: ClientSettings) -> None:
        self.settings = settings
        self.tick = 0
        self.joined = False
        self.local_ammo = DEFAULT_WEAPON.magazine
        self.last_snapshot: Dict[str, Any] = {}
        self.last_snapshot_tick = -1
        self.pending_commands: List[Dict[str, Any]] = []
        self.frames_rendered = 0
        self.shots_sent = 0
        self.last_frame_time = 0.0

    # -- guest interface --------------------------------------------------------------

    def on_start(self, api: MachineApi) -> None:
        self.last_frame_time = api.read_clock()
        api.send_packet(self.settings.server, protocol.join_packet(self.settings.player_id))
        api.set_timer(TICK_INTERVAL)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        if isinstance(event, TimerInterrupt):
            self._on_tick(api)
        elif isinstance(event, KeyboardInput):
            self._on_keyboard(api, event)
        elif isinstance(event, PacketDelivery):
            self._on_packet(api, event)

    def config_fingerprint(self) -> Dict[str, Any]:
        return {
            "player_id": self.settings.player_id,
            "server": self.settings.server,
            "tick_interval": TICK_INTERVAL,
            "update_every_ticks": UPDATE_EVERY_TICKS,
            "frames_per_tick": FRAMES_PER_TICK,
            "frame_cap_fps": self.settings.frame_cap_fps,
        }

    # -- state (snapshots) ---------------------------------------------------------------

    def get_state(self) -> Dict[str, Any]:
        return {
            "tick": self.tick,
            "joined": self.joined,
            "local_ammo": self.local_ammo,
            "last_snapshot": self.last_snapshot,
            "last_snapshot_tick": self.last_snapshot_tick,
            "pending_commands": list(self.pending_commands),
            "frames_rendered": self.frames_rendered,
            "shots_sent": self.shots_sent,
            "last_frame_time": self.last_frame_time,
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        self.tick = int(state["tick"])
        self.joined = bool(state["joined"])
        self.local_ammo = int(state["local_ammo"])
        self.last_snapshot = dict(state["last_snapshot"])
        self.last_snapshot_tick = int(state["last_snapshot_tick"])
        self.pending_commands = list(state["pending_commands"])
        self.frames_rendered = int(state["frames_rendered"])
        self.shots_sent = int(state["shots_sent"])
        self.last_frame_time = float(state["last_frame_time"])

    # -- cheat hook surface ----------------------------------------------------------------

    def hook_transform_commands(self, commands: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Last chance to rewrite the command list before it is sent (aimbots)."""
        return commands

    def hook_visible_players(self) -> List[str]:
        """Players this client renders (wallhacks override this to see everyone)."""
        me = self._my_state()
        if me is None:
            return []
        players = self.last_snapshot.get("players", {})
        walls = self.last_snapshot.get("game_map", {}).get("walls", [])
        visible = []
        for pid, other in players.items():
            if pid == self.settings.player_id or not other.get("alive", True):
                continue
            if not _line_blocked(me["x"], me["y"], other["x"], other["y"], walls):
                visible.append(pid)
        return sorted(visible)

    def hook_allow_fire(self) -> bool:
        """Whether firing is currently allowed (local ammunition check)."""
        return self.local_ammo > 0

    def hook_after_fire(self) -> None:
        """Local bookkeeping after a fire command (ammo decrement)."""
        self.local_ammo -= 1

    def hook_move_scale(self) -> float:
        """Multiplier applied to movement commands (speed hacks override)."""
        return 1.0

    # -- internals -------------------------------------------------------------------------

    def _my_state(self) -> Optional[Dict[str, Any]]:
        return self.last_snapshot.get("players", {}).get(self.settings.player_id)

    def _on_keyboard(self, api: MachineApi, event: KeyboardInput) -> None:
        api.consume_cycles(10)
        command = protocol.parse_keyboard_command(event.command)
        if command is None:
            return
        if command["action"] == "fire":
            if not self.hook_allow_fire():
                return  # out of ammo: a correct client never sends the shot
            self.hook_after_fire()
            self.shots_sent += 1
        elif command["action"] == "reload":
            self.local_ammo = DEFAULT_WEAPON.magazine
        elif command["action"] == "move":
            scale = self.hook_move_scale()
            command = protocol.move_command(command["dx"] * scale, command["dy"] * scale)
        self.pending_commands.append(command)

    def _on_packet(self, api: MachineApi, event: PacketDelivery) -> None:
        api.consume_cycles(60)
        packet = protocol.decode_packet(event.payload)
        if packet["type"] == protocol.PACKET_SNAPSHOT:
            self.last_snapshot = packet["state"]
            self.last_snapshot_tick = int(packet["tick"])
            self.joined = True
        elif packet["type"] == protocol.PACKET_DELTA:
            players = self.last_snapshot.setdefault("players", {})
            for pid, update in packet["players"].items():
                players[pid] = {**players.get(pid, {}), **update}
            self.last_snapshot_tick = int(packet["tick"])
        if packet["type"] in (protocol.PACKET_SNAPSHOT, protocol.PACKET_DELTA):
            me = self._my_state()
            if me is not None:
                # The server is authoritative for ammunition after respawns.
                self.local_ammo = max(self.local_ammo, 0)
                if not me.get("alive", True):
                    self.local_ammo = DEFAULT_WEAPON.magazine

    def _on_tick(self, api: MachineApi) -> None:
        self.tick += 1
        api.consume_cycles(150)
        if self.tick % UPDATE_EVERY_TICKS == 0 and self.pending_commands:
            commands = self.hook_transform_commands(self.pending_commands)
            packet = protocol.commands_packet(self.settings.player_id, self.tick, commands)
            api.send_packet(self.settings.server, packet)
            self.pending_commands = []
        self._render(api)

    def _render(self, api: MachineApi) -> None:
        complexity = 10 + 5 * len(self.hook_visible_players())
        if self.settings.frame_cap_fps is None:
            # Uncapped: render as many frames as the engine is configured for;
            # like the real game, every frame samples the clock for animation
            # and physics interpolation.
            for _ in range(FRAMES_PER_TICK):
                self.last_frame_time = api.read_clock()
                api.render_frame(complexity)
                self.frames_rendered += 1
            return
        # Frame-rate cap: render one frame, then busy-wait on the clock until
        # the inter-frame interval has elapsed (Section 6.5).  Every loop
        # iteration is a clock read the AVMM must log.
        frame_interval = 1.0 / self.settings.frame_cap_fps
        api.render_frame(complexity)
        self.frames_rendered += 1
        target = self.last_frame_time + frame_interval
        now = api.read_clock()
        iterations = 0
        while now < target and iterations < 100_000:
            api.consume_cycles(BUSY_WAIT_CYCLES)
            now = api.read_clock()
            iterations += 1
        self.last_frame_time = now


def _line_blocked(x0: float, y0: float, x1: float, y1: float,
                  walls: List[Dict[str, float]]) -> bool:
    """Sampled line-of-sight test against wall rectangles (client-side copy)."""
    steps = 16
    for i in range(1, steps):
        t = i / steps
        x = x0 + (x1 - x0) * t
        y = y0 + (y1 - y0) * t
        for wall in walls:
            if wall["x0"] <= x <= wall["x1"] and wall["y0"] <= y <= wall["y1"]:
                return True
    return False
