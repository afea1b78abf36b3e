"""Game wire protocol.

Clients and the server exchange small JSON-encoded packets: join requests,
per-tick command packets (move / aim / fire / reload) and server state
snapshots.  Encoding is canonical (sorted keys) so identical logical packets
always have identical bytes — replay compares payload hashes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import GuestError

PACKET_JOIN = "join"
PACKET_COMMANDS = "commands"
PACKET_SNAPSHOT = "snapshot"
PACKET_DELTA = "delta"


def encode_packet(packet: Dict[str, Any]) -> bytes:
    """Canonical byte encoding of a packet dictionary."""
    return json.dumps(packet, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_packet(payload: bytes) -> Dict[str, Any]:
    """Decode a packet; malformed payloads raise :class:`GuestError`."""
    try:
        packet = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GuestError(f"malformed game packet: {exc}") from exc
    if not isinstance(packet, dict) or "type" not in packet:
        raise GuestError("game packet has no type field")
    return packet


def join_packet(player_id: str) -> bytes:
    """Client -> server: join the game."""
    return encode_packet({"type": PACKET_JOIN, "player": player_id})


def commands_packet(player_id: str, tick: int, commands: List[Dict[str, Any]]) -> bytes:
    """Client -> server: the commands the player issued this update."""
    return encode_packet({
        "type": PACKET_COMMANDS,
        "player": player_id,
        "tick": tick,
        "commands": commands,
    })


def snapshot_packet(state_dict: Dict[str, Any], tick: int) -> bytes:
    """Server -> client: full authoritative world snapshot (sent on join)."""
    return encode_packet({"type": PACKET_SNAPSHOT, "tick": tick, "state": state_dict})


def delta_packet(players: Dict[str, Dict[str, Any]], tick: int) -> bytes:
    """Server -> client: per-tick player update.

    Like the real game's small, frequent update packets: only the dynamic
    per-player fields, not the whole world (the map travelled in the join
    snapshot).
    """
    return encode_packet({"type": PACKET_DELTA, "tick": tick, "players": players})


def compact_player(player_dict: Dict[str, Any]) -> Dict[str, Any]:
    """The per-player fields carried in delta packets."""
    return {
        "player_id": player_dict["player_id"],
        "x": player_dict["x"],
        "y": player_dict["y"],
        "health": player_dict["health"],
        "ammo": player_dict["ammo"],
        "alive": player_dict["alive"],
    }


# -- client commands -------------------------------------------------------------

def move_command(dx: float, dy: float) -> Dict[str, Any]:
    return {"action": "move", "dx": round(dx, 4), "dy": round(dy, 4)}


def aim_command(angle: float) -> Dict[str, Any]:
    return {"action": "aim", "angle": round(angle, 6)}


def fire_command() -> Dict[str, Any]:
    return {"action": "fire"}


def reload_command() -> Dict[str, Any]:
    return {"action": "reload"}


def parse_keyboard_command(command: str) -> Optional[Dict[str, Any]]:
    """Translate a raw keyboard/mouse command string into a game command.

    Recognised inputs (the strings the experiment drivers inject as local
    input): ``move <dx> <dy>``, ``aim <radians>``, ``fire``, ``reload``.
    Unrecognised strings are ignored, as a real game would ignore unbound keys.
    """
    parts = command.strip().split()
    if not parts:
        return None
    action = parts[0].lower()
    try:
        if action == "move" and len(parts) == 3:
            return move_command(float(parts[1]), float(parts[2]))
        if action == "aim" and len(parts) == 2:
            return aim_command(float(parts[1]))
        if action == "fire":
            return fire_command()
        if action == "reload":
            return reload_command()
    except ValueError:
        return None
    return None
