"""The adversary contract and the scenario context it operates on.

An adversary models a malicious operator (the paper's Bob, Section 3.4): he
controls one whole machine — guest, VMM, log, snapshot store and network
stack — but not the other machines' keys.  Every adversary here is

* **composable** — it wraps real components rather than replacing them, so
  several adversaries can act on one machine and honest machines in the same
  fleet are untouched;
* **deterministic** — all choices (which entry to rewrite, which byte to
  flip, when to act) come from a :class:`random.Random` seeded from the
  adversary's name and the scenario seed, so a failing matrix cell replays
  exactly;
* **self-describing** — it declares which audit modes can observe the
  misbehavior, at which audit phase detection is expected, and whether
  detection surfaces as an audit verdict, a quarantined shipment, or an
  equivocation proof.  The scenario matrix checks those expectations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.audit.verdict import AuditPhase
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyPair, KeyStore
from repro.game.cheats.base import Cheat
from repro.network.simnet import SimulatedNetwork
from repro.service.ingest import AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.vm.image import VMImage


@dataclass
class ScenarioContext:
    """Everything an adversary (and the matrix) can reach in one cell."""

    workload: str
    scheduler: Scheduler
    network: SimulatedNetwork
    monitors: Dict[str, AccountableVMM]
    reference_images: Dict[str, VMImage]
    keystore: KeyStore
    keypairs: Dict[str, KeyPair]
    #: identity of the machine the adversary controls
    byzantine: str
    #: simulated seconds the cell records before auditing
    duration: float
    ingest: Optional[AuditIngestService] = None
    #: extra bookkeeping adversaries may stash for the evaluation step
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def monitor(self) -> AccountableVMM:
        """The byzantine machine's monitor."""
        return self.monitors[self.byzantine]

    @property
    def keypair(self) -> KeyPair:
        """The byzantine machine's certified key pair (Bob owns his key)."""
        return self.keypairs[self.byzantine]

    @property
    def honest_machines(self) -> List[str]:
        return sorted(m for m in self.monitors if m != self.byzantine)

    def peer_committed_sequences(self) -> List[int]:
        """Sequence numbers of the byzantine log that peers hold commitments to.

        These are the sequences covered by authenticators the honest machines
        collected during the run — exactly the set a tamper must collide with
        to be *provably* caught by the authenticator check.
        """
        sequences = set()
        for machine in self.honest_machines:
            for auth in self.monitors[machine].authenticators_from(self.byzantine):
                sequences.add(auth.sequence)
        return sorted(sequences)


class Adversary:
    """Base class for deterministic Byzantine behaviors.

    Subclasses override :meth:`install` (hooks planted before the run — image
    patches, scheduled mid-run actions, network interposers) and/or
    :meth:`corrupt` (after-the-fact manipulation of the log, snapshots or
    authenticator stream, applied once the recording is finished and before
    any audit runs).
    """

    #: registry name (also seeds the adversary's private RNG)
    name = "adversary"
    #: one-line description for the catalog / detection table
    description = ""
    #: audit modes in which the misbehavior is observable at all
    modes: Tuple[str, ...] = ("full", "spot")
    #: acts while the machine is running — online audits and archived logs
    #: can see it; pure after-the-fact tampering they cannot
    during_run = False
    #: audit phases at which a FAIL verdict is expected to land
    expected_phases: Tuple[AuditPhase, ...] = (AuditPhase.AUTHENTICATOR_CHECK,)
    #: the matrix must find the cell's misbehavior (False only for the
    #: honest control, which must *not* be accused)
    expects_detection = True
    #: detection surfaces as quarantined shipments at the ingest service
    expects_quarantine = False
    #: detection additionally yields a standalone equivocation proof
    expects_equivocation_proof = False
    #: detection is an honest peer giving up on it at run time (Section 4.3)
    expects_suspicion = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    # -- build-time hooks ---------------------------------------------------

    def game_cheat(self) -> Optional[Cheat]:
        """A cheat to install in the byzantine player's image (game workload)."""
        return None

    def kv_server_image(self) -> Optional[VMImage]:
        """A patched image to install on the byzantine machine (kv workload)."""
        return None

    # -- lifecycle hooks ----------------------------------------------------

    def install(self, ctx: ScenarioContext) -> None:
        """Plant hooks before the cell starts recording."""

    def corrupt(self, ctx: ScenarioContext) -> None:
        """Manipulate recorded state after the run, before any audit."""

    def extra_auditor_authenticators(self, ctx: ScenarioContext) -> List:
        """Authenticators the machine hands *directly* to the auditing party.

        This is the second half of an equivocation: a different view of the
        log than the one the peers received during the run.
        """
        return []

    # -- helpers ------------------------------------------------------------

    def pick_committed_sequence(self, ctx: ScenarioContext) -> int:
        """A mid-log sequence number some peer holds an authenticator for.

        Targeting a committed sequence makes detection *provable*: whatever
        the adversary rewrites there collides with a signed commitment an
        honest party already holds.
        """
        sequences = ctx.peer_committed_sequences()
        if not sequences:
            raise RuntimeError(
                f"no peer-held authenticators for {ctx.byzantine!r}; "
                f"the workload recorded no committed traffic")
        lo = int(len(sequences) * 0.25)
        hi = max(lo + 1, int(len(sequences) * 0.85))
        return sequences[self.rng.randrange(lo, min(hi, len(sequences)))]
