"""VM images.

A :class:`VMImage` bundles a guest program factory with the initial disk
contents and an image hash.  The auditor's *reference image* (``M_R`` in the
paper) and the audited machine's image are compared by hash: faults are
defined as deviations from the behaviour the reference image can produce.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.crypto import hashing
from repro.errors import VMError
from repro.vm.guest import GuestProgram


@dataclass
class VMImage:
    """An immutable description of what should run in the VM.

    Parameters
    ----------
    name:
        Human-readable image name (e.g. ``"counterstrike-1.6-official"``).
    guest_factory:
        Zero-argument callable producing a fresh :class:`GuestProgram`.
    disk_blocks:
        Initial contents of the virtual disk, block number -> bytes.
    allow_software_installation:
        Section 5.2: the agreed-upon game image *disables software
        installation*; images that leave it enabled allow a cheater to install
        a cheat in a way that replays cleanly (the audit then correctly
        reports no fault, which is the documented limitation of Section 4.8).
    """

    name: str
    guest_factory: Callable[[], GuestProgram]
    disk_blocks: Dict[int, bytes] = field(default_factory=dict)
    allow_software_installation: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)

    def instantiate(self) -> GuestProgram:
        """Create a fresh guest program from the image."""
        guest = self.guest_factory()
        if not isinstance(guest, GuestProgram):
            raise VMError(f"image {self.name!r} did not produce a GuestProgram")
        return guest

    def initial_disk(self) -> Dict[int, bytes]:
        """A private copy of the initial disk contents."""
        return copy.deepcopy(self.disk_blocks)

    def image_hash(self) -> bytes:
        """Hash identifying the image: program digest + disk contents + policy."""
        guest = self.instantiate()
        return hashing.hash_object({
            "name": self.name,
            "program": guest.program_digest().hex(),
            "disk": {str(block): data.hex() for block, data in sorted(self.disk_blocks.items())},
            "allow_software_installation": self.allow_software_installation,
        })
