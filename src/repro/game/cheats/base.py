"""Cheat abstractions and classification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.game.client import ClientSettings
from repro.vm.image import VMImage


class CheatClass(enum.Flag):
    """The two detectability classes of Section 5.4."""

    NONE = 0
    #: must be installed along with the game (module, patch, companion program)
    INSTALLED_IN_AVM = enum.auto()
    #: makes network-visible behaviour inconsistent with any correct execution
    NETWORK_VISIBLE = enum.auto()


@dataclass(frozen=True)
class CheatSpec:
    """One catalogue entry (Table 1 is an aggregation over these)."""

    name: str
    description: str
    cheat_class: CheatClass
    #: the cheat needs rendering-pipeline (OpenGL) access; the paper could only
    #: run the non-OpenGL subset in its functional check (Section 6.3)
    requires_opengl: bool = False
    #: name of the concrete implementation in this repository, when one exists
    implementation: Optional[str] = None

    @property
    def detectable(self) -> bool:
        """Every cheat in either class is detectable by an AVM audit."""
        return self.cheat_class is not CheatClass.NONE

    @property
    def detectable_in_any_implementation(self) -> bool:
        """Class-2 cheats are detectable no matter how they are implemented."""
        return bool(self.cheat_class & CheatClass.NETWORK_VISIBLE)

    @property
    def detectable_in_this_implementation_only(self) -> bool:
        """Class-1-only cheats could evade detection if re-engineered."""
        return (bool(self.cheat_class & CheatClass.INSTALLED_IN_AVM)
                and not self.detectable_in_any_implementation)


class Cheat:
    """A concrete, runnable cheat: produces a modified client image.

    Installing a cheat means the player's VM image no longer matches the
    agreed-upon reference image, which is exactly what the audit detects.
    """

    #: catalogue name this implementation corresponds to
    spec_name: str = ""
    cheat_class: CheatClass = CheatClass.INSTALLED_IN_AVM

    def patch_image(self, settings: ClientSettings) -> VMImage:
        """Build the cheater's client image for the given player settings."""
        raise NotImplementedError
