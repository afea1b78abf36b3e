"""Replay-divergence injectors: class-2 detections (Section 3.4).

These adversaries never touch the log or the crypto — the machine's
tamper-evident record stays perfectly consistent with its authenticators.
What they break is the *semantic* claim: that some correct execution of the
reference image explains the recorded inputs and outputs.

* :class:`HiddenNondeterminismAdversary` pokes the guest's state mid-run
  through a channel the recorder cannot see (the in-simulation equivalent of
  DMA from a malicious device, or a VMM that lies to the guest);
* :class:`UnrecordedInputAdversary` delivers a real guest event straight to
  the VM, bypassing the recorder — the execution advances, packets and
  snapshot roots shift, but the log never mentions the input;
* :class:`CheatingGuestAdversary` installs a patched guest image (an actual
  cheat): the paper's class-1/class-2 case where the machine runs software
  other than the agreed-upon reference.

All three are caught the same way: deterministic replay of the reference
image diverges — at an execution timestamp, an emitted packet, or a snapshot
hash-tree root — and the divergent segment plus the authenticators is the
evidence.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Optional

from repro.adversary.base import Adversary, ScenarioContext
from repro.adversary.guests import make_cheating_kvserver_image
from repro.audit.verdict import AuditPhase
from repro.game.cheats.base import Cheat
from repro.game.cheats.implementations import UnlimitedAmmoCheat
from repro.vm.events import KeyboardInput, PacketDelivery
from repro.vm.image import VMImage

ALL_MODES = ("full", "spot", "online", "archive")


class HiddenNondeterminismAdversary(Adversary):
    """Mutates guest state mid-run through an unrecorded channel."""

    name = "hidden-nondeterminism"
    description = "mutate guest state mid-run through an unrecorded channel"
    modes = ALL_MODES
    during_run = True
    expected_phases = (AuditPhase.SEMANTIC_CHECK,)

    #: fraction of the run after which the mutation fires (off the snapshot
    #: tick grid so event ordering at equal timestamps never matters)
    AT_FRACTION = 0.55

    def install(self, ctx: ScenarioContext) -> None:
        ctx.scheduler.schedule_after(ctx.duration * self.AT_FRACTION,
                                     partial(self._mutate, ctx),
                                     label=f"adversary:{self.name}")

    def _mutate(self, ctx: ScenarioContext) -> None:
        guest = ctx.monitor.guest
        if ctx.workload == "kv":
            # A table no query ever touches: nothing overwrites the poke, so
            # the next snapshot root provably differs from the replayed one.
            guest.tables["__shadow__"] = {"poked": self.rng.randrange(1 << 30)}
        else:
            guest.local_ammo += 50 + self.rng.randrange(50)
        ctx.notes["mutated_at"] = ctx.scheduler.clock.now


class UnrecordedInputAdversary(Adversary):
    """Delivers a guest event the recorder never sees (a skipped input)."""

    name = "unrecorded-input"
    description = "deliver a guest event that is missing from the log"
    modes = ALL_MODES
    during_run = True
    expected_phases = (AuditPhase.SEMANTIC_CHECK,)

    AT_FRACTION = 0.55

    def install(self, ctx: ScenarioContext) -> None:
        ctx.scheduler.schedule_after(ctx.duration * self.AT_FRACTION,
                                     partial(self._inject, ctx),
                                     label=f"adversary:{self.name}")

    def _inject(self, ctx: ScenarioContext) -> None:
        monitor = ctx.monitor
        if ctx.workload == "kv":
            query = {"request_id": -1, "op": "insert", "table": "__ghost__",
                     "key": "k", "value": {"ghost": self.rng.randrange(1 << 30)}}
            event = PacketDelivery(
                source=ctx.honest_machines[0],
                payload=json.dumps(query, sort_keys=True,
                                   separators=(",", ":")).encode("utf-8"),
                message_id=f"ghost-{self.rng.randrange(1 << 30):08x}")
        else:
            event = KeyboardInput(command="fire", device="keyboard")
        # Straight to the VM: no RECV/NONDET entry, no MAC-layer record —
        # but the execution timestamp advances and the state changes.
        monitor.vm.deliver_event(event)
        ctx.notes["injected_at"] = ctx.scheduler.clock.now


class CheatingGuestAdversary(Adversary):
    """Runs a patched guest image instead of the agreed-upon reference."""

    name = "cheating-guest"
    description = "run a patched guest image instead of the reference"
    modes = ALL_MODES
    during_run = True
    expected_phases = (AuditPhase.SEMANTIC_CHECK,)

    def game_cheat(self) -> Optional[Cheat]:
        return UnlimitedAmmoCheat()

    def kv_server_image(self) -> Optional[VMImage]:
        return make_cheating_kvserver_image()
