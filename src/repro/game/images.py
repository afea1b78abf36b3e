"""Factory helpers for the agreed-upon game VM images.

Section 5.2: the players agree on a VM image (operating system + game),
disable software installation in it, and distribute the snapshot; every player
initialises their AVM with that image, and auditors replay against their own
trusted copy.  These helpers build the reference images; the cheat catalogue
builds *modified* images from them.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.game.client import ClientSettings, GameClientGuest
from repro.game.server import GameServerGuest
from repro.game.state import GameMap
from repro.vm.image import VMImage

#: disk blocks present in the official image (stand-ins for OS + game files)
_OFFICIAL_DISK = {
    0: b"windows-xp-sp3-boot-block",
    1: b"counterstrike-1.6-patch-1.1.2.5",
    2: b"game-config: sound=off voice=off",
}


def make_server_image(name: str = "cs-server-official") -> VMImage:
    """The agreed-upon server image."""
    arena = GameMap.default_arena()
    return VMImage(
        name=name,
        # partial() rather than a lambda: reference images must pickle into
        # the parallel audit engine's worker processes.
        guest_factory=partial(GameServerGuest, game_map=arena),
        disk_blocks=dict(_OFFICIAL_DISK),
        allow_software_installation=False,
        metadata={"role": "server"},
    )


def make_client_image(settings: ClientSettings,
                      name: Optional[str] = None) -> VMImage:
    """The agreed-upon client image for one player."""
    return VMImage(
        name=name or f"cs-client-official-{settings.player_id}",
        guest_factory=partial(GameClientGuest, settings),
        disk_blocks=dict(_OFFICIAL_DISK),
        allow_software_installation=False,
        metadata={"role": "client", "player": settings.player_id},
    )
