"""The auditor.

:class:`Auditor` implements the full audit of Section 4.5: collect
authenticators, download the log (compressed), verify it against the
authenticators, run the syntactic check, then the semantic check.  Any failure
produces :class:`~repro.audit.evidence.Evidence`; an unresponsive machine is
*suspected* and the most recent authenticator becomes the evidence.

With ``workers > 1`` the auditor delegates whole-machine audits to the
parallel engine (:class:`repro.audit.engine.AuditScheduler`), which chunks
the log at snapshot boundaries and batches signature checks; ``workers=1``
(the default) preserves the plain serial path below.  Verdicts and evidence
are identical either way — the engine re-runs the serial path to produce
canonical evidence whenever a chunk fails.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

from repro.audit.evidence import Evidence
from repro.audit.semantic import SemanticChecker
from repro.audit.syntactic import SyntacticChecker
from repro.audit.verdict import AuditCost, AuditPhase, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyStore
from repro.errors import AuditError, AuthenticatorMismatchError, HashChainError
from repro.log.authenticator import Authenticator
from repro.log.segments import LogSegment
from repro.metrics.perfmodel import CostParameters
from repro.obs import Observability, ensure_obs
from repro.vm.image import VMImage

if TYPE_CHECKING:  # pragma: no cover - avoid the auditor<->engine import cycle
    from repro.audit.engine import AuditScheduler


class Auditor:
    """An auditing party (Alice, or any player auditing another).

    ``workers`` selects how many audit workers full-machine audits may use;
    alternatively an explicit :class:`~repro.audit.engine.AuditScheduler`
    can be supplied via ``engine`` (it wins over ``workers``).
    """

    def __init__(self, identity: str, keystore: KeyStore, reference_image: VMImage,
                 cost_params: Optional[CostParameters] = None,
                 workers: int = 1,
                 engine: Optional["AuditScheduler"] = None,
                 obs: Optional[Observability] = None) -> None:
        self.identity = identity
        self.keystore = keystore
        self.reference_image = reference_image
        self.cost_params = cost_params or CostParameters()
        self.workers = workers
        self._engine = engine
        self.obs = ensure_obs(obs)
        self.collected_authenticators: Dict[str, List[Authenticator]] = {}

    @property
    def engine(self) -> Optional["AuditScheduler"]:
        """The audit engine backing this auditor (``None`` on the serial path)."""
        if self._engine is None and self.workers > 1:
            from repro.audit.engine import AuditScheduler
            self._engine = AuditScheduler(workers=self.workers)
        return self._engine

    # -- authenticator collection -------------------------------------------------

    def collect_authenticators(self, machine: str,
                               authenticators: Iterable[Authenticator]) -> int:
        """Store authenticators issued by ``machine`` (e.g. detached from messages)."""
        store = self.collected_authenticators.setdefault(machine, [])
        added = 0
        for auth in authenticators:
            if auth.machine != machine:
                continue
            store.append(auth)
            added += 1
        return added

    def collect_from_peer(self, peer: AccountableVMM, machine: str) -> int:
        """Ask another party for the authenticators it holds about ``machine``.

        This is the multi-party step of Section 4.6: before auditing Bob,
        Alice downloads the authenticators Charlie has collected from Bob.
        """
        return self.collect_authenticators(machine, peer.authenticators_from(machine))

    def authenticators_for(self, machine: str) -> List[Authenticator]:
        return list(self.collected_authenticators.get(machine, []))

    # -- audits ---------------------------------------------------------------------

    def audit(self, target: AccountableVMM,
              segment: Optional[LogSegment] = None,
              initial_state: Optional[Dict[str, Any]] = None,
              streaming: bool = True) -> AuditResult:
        """Run a full audit of ``target`` (or of a specific segment of its log).

        Whole-machine audits run on the parallel engine when one is
        configured; audits of an explicit segment always take the serial
        path (the engine needs the machine's snapshots to chunk).

        Archive-backed targets (anything advertising ``supports_streaming``)
        are audited on the streaming pipeline by default: entries are
        decoded, chain-verified, signature-checked and replayed chunk by
        chunk in O(chunk) memory, with verdicts, evidence and modelled costs
        identical to the materializing path (:mod:`repro.audit.stream`).
        (Engine-backed auditors plan their chunk jobs off the same stream
        but keep the engine's merge semantics: verdicts and evidence match
        the serial path, while the fast-path merged report aggregates
        per-chunk counters.)
        Pass ``streaming=False`` to force whole-log materialization — for a
        streamable target this also bypasses the engine (whose plans are
        built from the stream), taking the serial materializing path.
        """
        machine = target.identity
        streamable = getattr(target, "supports_streaming", False)
        if segment is None and initial_state is None:
            if self.engine is not None and (streaming or not streamable):
                return self.engine.audit_machine(self, target)
            if streaming and streamable:
                from repro.audit.stream import stream_audit
                return stream_audit(self, target).result
        if segment is None:
            segment = target.get_log_segment()
            if initial_state is None \
                    and getattr(target, "is_truncated", None) is not None \
                    and target.is_truncated():
                # A GC-truncated archive replays from its boundary snapshot,
                # like a spot-check chunk (the streaming path does the same).
                state, snapshot_bytes = target.initial_state()
                return self.audit_segment(machine, segment,
                                          initial_state=state,
                                          snapshot_bytes=snapshot_bytes)
        return self.audit_segment(machine, segment, initial_state=initial_state)

    def audit_segment(self, machine: str, segment: LogSegment,
                      initial_state: Optional[Dict[str, Any]] = None,
                      snapshot_bytes: int = 0) -> AuditResult:
        """Audit a log segment that has already been downloaded.

        This is the shared serial chokepoint (plain audits, spot-check
        chunks, the engine's serial confirmation), so the obs wall timer
        here guarantees ``AuditResult.wall_seconds`` is populated on
        every front-end — the null tracer's timer still measures.
        """
        with self.obs.tracer.timed("audit.segment", track=machine,
                                   machine=machine,
                                   entries=len(segment.entries)) as timer:
            result = self._audit_segment(machine, segment, initial_state,
                                         snapshot_bytes)
        result.wall_seconds = timer.seconds
        return result

    def _audit_segment(self, machine: str, segment: LogSegment,
                       initial_state: Optional[Dict[str, Any]] = None,
                       snapshot_bytes: int = 0) -> AuditResult:
        if segment.machine != machine:
            # A segment claiming another identity would sidestep every
            # authenticator check (none would apply) and could replay
            # cleanly; refusing it is an operational error, not a verdict.
            raise AuditError(
                f"segment claims to be from {segment.machine!r}, "
                f"but the audit target is {machine!r}")
        cost = AuditCost.for_download(segment.size_bytes(), snapshot_bytes,
                                      self.cost_params)
        authenticators = self.authenticators_for(machine)

        # Step 1: the log must match the authenticators the machine has issued.
        try:
            checked = segment.verify_against_authenticators(authenticators, self.keystore)
        except (HashChainError, AuthenticatorMismatchError) as exc:
            return self._fail(machine, segment, AuditPhase.AUTHENTICATOR_CHECK,
                              str(exc), cost, authenticators, initial_state)

        # Step 2: syntactic check.
        syntactic = SyntacticChecker(self.keystore).check(segment)
        if not syntactic.ok:
            result = self._fail(machine, segment, AuditPhase.SYNTACTIC_CHECK,
                                "; ".join(syntactic.problems[:3]), cost,
                                authenticators, initial_state)
            result.syntactic_problems = syntactic.problems
            result.authenticators_checked = checked
            return result

        # Step 3: semantic check (deterministic replay).
        checker = SemanticChecker(self.reference_image, self.cost_params)
        report = checker.check(segment, initial_state=initial_state)
        cost.semantic_seconds = checker.estimate_timing(report).replay_seconds
        if report.diverged:
            result = self._fail(machine, segment, AuditPhase.SEMANTIC_CHECK,
                                report.divergence.describe(), cost,
                                authenticators, initial_state)
            result.replay_report = report
            result.authenticators_checked = checked
            return result

        return AuditResult(machine=machine, auditor=self.identity,
                           verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                           authenticators_checked=checked,
                           replay_report=report, cost=cost)

    def suspect(self, machine: str, reason: str = "no response to audit challenge") -> AuditResult:
        """Report an unresponsive machine (Section 4.5: 'Alice will suspect Bob')."""
        authenticators = self.authenticators_for(machine)
        evidence = Evidence(machine=machine, accuser=self.identity, reason=reason,
                            segment=None, authenticators=authenticators,
                            reference_image_hash=self.reference_image.image_hash(),
                            unanswered_challenge=True)
        return AuditResult(machine=machine, auditor=self.identity,
                           verdict=Verdict.SUSPECTED,
                           phase=AuditPhase.AUTHENTICATOR_CHECK,
                           reason=reason, evidence=evidence)

    # -- helpers ----------------------------------------------------------------------

    def _fail(self, machine: str, segment: LogSegment, phase: AuditPhase,
              reason: str, cost: AuditCost, authenticators: List[Authenticator],
              initial_state: Optional[Dict[str, Any]]) -> AuditResult:
        evidence = Evidence(machine=machine, accuser=self.identity, reason=reason,
                            segment=segment, authenticators=authenticators,
                            reference_image_hash=self.reference_image.image_hash(),
                            initial_state=initial_state)
        return AuditResult(machine=machine, auditor=self.identity,
                           verdict=Verdict.FAIL, phase=phase, reason=reason,
                           evidence=evidence, cost=cost)
