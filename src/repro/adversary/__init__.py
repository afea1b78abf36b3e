"""Byzantine adversary library and scenario matrix.

The paper's central claim is not that honest executions replay cleanly — it
is that *every* class of misbehavior is detected and yields verifiable
evidence (Sections 3.3 and 4.5).  This package turns that claim into a
systematically testable surface:

* :mod:`repro.adversary.base` — the :class:`Adversary` contract: seeded,
  deterministic misbehaviors that wrap *real* components (a monitor's log,
  its snapshot store, its archive shipping path, its authenticator stream);
* :mod:`repro.adversary.tampering` — the :class:`TamperingVMM` toolkit and
  the log-rewriting adversaries (modify / remove / reorder / forge / fork /
  snapshot mutation);
* :mod:`repro.adversary.equivocation` — forged authenticators and the
  equivocating peer that commits to different histories towards different
  auditors, plus the proof-from-signatures-alone detection;
* :mod:`repro.adversary.shipping` — lying shippers that corrupt archive
  segments and snapshot deltas in flight;
* :mod:`repro.adversary.replay` — replay-divergence injectors: hidden
  nondeterminism, unrecorded inputs, and cheating guest images;
* :mod:`repro.adversary.catalog` — the named registry;
* :mod:`repro.adversary.matrix` — the :class:`ScenarioMatrix` runner that
  enumerates {adversary x workload x audit mode x fleet size} cells, fans
  the audits over the :class:`~repro.audit.engine.AuditScheduler` pool, and
  asserts the per-cell expectations: misbehavior detected, evidence
  verifiable by a third party, honest machines never accused.
"""

from repro.adversary.base import Adversary, ScenarioContext
from repro.adversary.catalog import adversary_names, make_adversary
from repro.adversary.matrix import (
    CellOutcome,
    CellSpec,
    MatrixReport,
    ScenarioMatrix,
)

__all__ = [
    "Adversary",
    "ScenarioContext",
    "adversary_names",
    "make_adversary",
    "CellOutcome",
    "CellSpec",
    "MatrixReport",
    "ScenarioMatrix",
]
