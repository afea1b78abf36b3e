"""The scenario matrix: {adversary x workload x audit mode x fleet size}.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
this module enumerates them systematically.  Every *cell* records a small
fleet under ``avmm-rsa768`` with one byzantine machine running a catalog
adversary (or the honest control), audits the whole fleet in the cell's
audit mode, and checks the paper's three-part claim:

1. **detected** — the byzantine machine's misbehavior is found: a FAIL
   verdict, a SUSPECTED verdict (it cannot answer the challenge), a
   quarantined archive shipment, or an equivocation proof;
2. **evidence verifies** — a third party holding only the public keys and
   the reference image confirms the accusation from the evidence alone;
3. **no false accusations** — every honest machine in the cell passes.

Audit modes map onto the repo's four audit front-ends: ``full`` fans the
fleet over PR 1's :class:`~repro.audit.engine.AuditScheduler` pool, ``spot``
audits every k-chunk through the :class:`~repro.audit.spot_check.SpotChecker`,
``online`` audits *during* the run (Section 6.11), and ``archive`` ships the
fleet's logs through PR 2's ingest pipeline and audits from disk.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.adversary.base import Adversary, ScenarioContext
from repro.adversary.catalog import (ACK_ADVERSARY_NAMES,
                                     LATE_ADVERSARY_NAMES, adversary_names,
                                     make_adversary)
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.multiparty import find_equivocation
from repro.audit.online import OnlineAuditor
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import AuditPhase, AuditResult, Verdict
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import build_trust
from repro.errors import ReproError
from repro.game.session import GameSession, GameSessionSettings
from repro.network.simnet import SimulatedNetwork
from repro.service.fleet import DRAIN_MAX_ROUNDS, DRAIN_SETTLE_SECONDS
from repro.service.ingest import AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.image import VMImage
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image

WORKLOADS: Tuple[str, ...] = ("kv", "game")
MODES: Tuple[str, ...] = ("full", "spot", "online", "archive")


@dataclass(frozen=True)
class CellSpec:
    """One cell of the matrix."""

    adversary: str
    workload: str
    mode: str
    fleet_size: int
    seed: int

    def label(self) -> str:
        return (f"{self.adversary} x {self.workload} x {self.mode} "
                f"x {self.fleet_size} machines")


@dataclass
class CellOutcome:
    """What one cell observed, against what its adversary promised."""

    spec: CellSpec
    byzantine: str
    honest_machines: List[str]
    #: the adversary promised its misbehavior would be found (False = control)
    expect_detection: bool
    detected: bool = False
    verdict: str = ""
    phase: str = ""
    reason: str = ""
    #: the accusation's evidence re-verified by an independent party
    evidence_verified: bool = True
    #: honest machines that did NOT pass (must stay empty)
    false_accusations: List[str] = field(default_factory=list)
    quarantined_shipments: int = 0
    equivocation_proof: bool = False
    #: honest machines that gave up on the byzantine one at run time
    suspected_by: List[str] = field(default_factory=list)
    #: simulated time at which an online audit first saw the fault
    detection_time: Optional[float] = None
    #: every promise of the cell held
    expectation_met: bool = False

    def describe(self) -> str:
        status = "ok" if self.expectation_met else "UNEXPECTED"
        return (f"[{status}] {self.spec.label()}: detected={self.detected} "
                f"verdict={self.verdict or '-'} phase={self.phase or '-'} "
                f"evidence={'ok' if self.evidence_verified else 'BAD'} "
                f"false={self.false_accusations or '-'}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the cell (``--json`` output mode)."""
        return {
            "adversary": self.spec.adversary,
            "workload": self.spec.workload,
            "mode": self.spec.mode,
            "fleet_size": self.spec.fleet_size,
            "seed": self.spec.seed,
            "byzantine": self.byzantine,
            "honest_machines": list(self.honest_machines),
            "expect_detection": self.expect_detection,
            "detected": self.detected,
            "verdict": self.verdict,
            "phase": self.phase,
            "reason": self.reason,
            "evidence_verified": self.evidence_verified,
            "false_accusations": list(self.false_accusations),
            "quarantined_shipments": self.quarantined_shipments,
            "equivocation_proof": self.equivocation_proof,
            "suspected_by": list(self.suspected_by),
            "detection_time": self.detection_time,
            "expectation_met": self.expectation_met,
        }


@dataclass
class MatrixReport:
    """All cells of one matrix run."""

    cells: List[CellOutcome] = field(default_factory=list)

    @property
    def misbehaving_cells(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if cell.expect_detection]

    @property
    def honest_cells(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if not cell.expect_detection]

    @property
    def detection_rate(self) -> float:
        cells = self.misbehaving_cells
        if not cells:
            return 1.0
        return sum(1 for cell in cells if cell.detected) / len(cells)

    @property
    def false_accusation_count(self) -> int:
        return sum(len(cell.false_accusations) for cell in self.cells)

    @property
    def all_evidence_verified(self) -> bool:
        return all(cell.evidence_verified
                   for cell in self.misbehaving_cells if cell.detected)

    @property
    def ok(self) -> bool:
        """Every cell's expectation held (the acceptance criterion)."""
        return all(cell.expectation_met for cell in self.cells)

    def adversaries(self) -> List[str]:
        return sorted({cell.spec.adversary for cell in self.cells})

    def cells_for(self, adversary: str) -> List[CellOutcome]:
        return [cell for cell in self.cells if cell.spec.adversary == adversary]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the whole run (``--json`` output mode)."""
        return {
            "cells": [cell.to_dict() for cell in self.cells],
            "detection_rate": self.detection_rate,
            "false_accusation_count": self.false_accusation_count,
            "all_evidence_verified": self.all_evidence_verified,
            "ok": self.ok,
        }


class ScenarioMatrix:
    """Builds, runs and checks matrix cells.

    ``workers``/``executor`` configure the :class:`AuditScheduler` the
    ``full`` mode fans fleet audits over (threads by default: the cells are
    small and process spin-up would dominate).  All scenario content is
    derived deterministically from each cell's seed.
    """

    def __init__(self, workers: int = 2, executor: str = "thread",
                 duration: float = 4.0, snapshot_interval: float = 1.0,
                 base_seed: int = 1000, ship_format_version: int = 1) -> None:
        self.workers = workers
        self.executor = executor
        self.duration = duration
        self.snapshot_interval = snapshot_interval
        self.base_seed = base_seed
        #: wire codec the archive-mode fleets ship segments in
        #: (:mod:`repro.log.codec`); detection rows must not depend on it
        self.ship_format_version = ship_format_version

    # -- cell enumeration ---------------------------------------------------

    def default_cells(self) -> List[CellSpec]:
        """The full matrix: every adversary x workload x applicable mode,
        plus a handful of larger-fleet cells for the fleet-size axis.  The
        acknowledgment adversaries' cells and then the late adversaries'
        come last, so every older cell keeps its seed."""
        def grid(name: str):
            for workload in WORKLOADS:
                for mode in make_adversary(name).modes:
                    yield name, workload, mode, 2 if workload == "kv" else 3

        shapes = [shape for name in adversary_names()
                  if name not in LATE_ADVERSARY_NAMES for shape in grid(name)]
        shapes += [(name, workload, "full", size) for name, workload, size in (
            ("honest", "kv", 4), ("tamper-modify", "kv", 4),
            ("honest", "game", 4),
            *((name, "kv", 2) for name in ACK_ADVERSARY_NAMES))]
        shapes += [shape for name in LATE_ADVERSARY_NAMES
                   if name not in ACK_ADVERSARY_NAMES for shape in grid(name)]
        return [CellSpec(*shape, seed)
                for seed, shape in enumerate(shapes, self.base_seed)]

    def smoke_cells(self) -> List[CellSpec]:
        """One cheap kv cell per adversary (CI bench smoke subset)."""
        cells: List[CellSpec] = []
        seed = self.base_seed
        for name in adversary_names():
            adversary = make_adversary(name)
            cells.append(CellSpec(name, "kv", adversary.modes[0], 2, seed))
            seed += 1
        return cells

    # -- running ------------------------------------------------------------

    def run(self, cells: Optional[List[CellSpec]] = None) -> MatrixReport:
        specs = self.default_cells() if cells is None else cells
        report = MatrixReport()
        for spec in specs:
            report.cells.append(self.run_cell(spec))
        return report

    def run_cell(self, spec: CellSpec) -> CellOutcome:
        """Record, misbehave, audit and judge one cell."""
        adversary = make_adversary(spec.adversary, seed=spec.seed)
        if spec.mode not in adversary.modes:
            raise ValueError(f"{spec.adversary!r} is not observable in "
                             f"{spec.mode!r} mode (cell {spec.label()})")
        with tempfile.TemporaryDirectory(prefix="repro-adversary-") as tmp:
            ctx, run = self._build(spec, adversary,
                                   tmp if spec.mode == "archive" else None)
            adversary.install(ctx)
            online = self._attach_online(ctx) if spec.mode == "online" else {}
            run()
            if spec.mode == "archive":
                self._drain_archive(ctx)
            adversary.corrupt(ctx)
            results = self._audit(spec, ctx, adversary, online)
            return self._judge(spec, ctx, adversary, results, online)

    # -- fleet construction -------------------------------------------------

    def _build(self, spec: CellSpec, adversary: Adversary,
               archive_dir: Optional[str]
               ) -> Tuple[ScenarioContext, Callable[[], None]]:
        if spec.workload == "kv":
            return self._build_kv(spec, adversary, archive_dir)
        if spec.workload == "game":
            return self._build_game(spec, adversary, archive_dir)
        raise ValueError(f"unknown workload {spec.workload!r}")

    def _build_kv(self, spec: CellSpec, adversary: Adversary,
                  archive_dir: Optional[str]
                  ) -> Tuple[ScenarioContext, Callable[[], None]]:
        """Hosted-database pairs; the byzantine machine is the first server."""
        if spec.fleet_size < 2 or spec.fleet_size % 2:
            raise ValueError(f"kv fleet size must be an even number >= 2, "
                             f"got {spec.fleet_size}")
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler)
        config = AvmmConfig.for_configuration(
            Configuration.AVMM_RSA768,
            snapshot_interval=self.snapshot_interval)
        pairs = [(f"db-server-{index:02d}", f"db-client-{index:02d}")
                 for index in range(spec.fleet_size // 2)]
        identities = [identity for pair in pairs for identity in pair]
        _, keypairs, keystore = build_trust(
            identities, scheme=config.signature_scheme, seed=spec.seed)
        byzantine = pairs[0][0]

        monitors: Dict[str, AccountableVMM] = {}
        references: Dict[str, VMImage] = {}
        for index, (server, client) in enumerate(pairs):
            server_reference = make_kvserver_image()
            # Fast phase cycling so every query kind happens within a short
            # cell (insert -> select -> update -> delete every ~0.7 s).
            client_image = make_sqlbench_image(SqlBenchSettings(
                server=server, operations_per_tick=3, tick_interval=0.25,
                rows_per_phase=8))
            references[server] = server_reference
            references[client] = client_image
            installed = server_reference
            if server == byzantine:
                patched = adversary.kv_server_image()
                if patched is not None:
                    installed = patched
            monitors[server] = AccountableVMM(
                server, installed, config, scheduler, network,
                keypair=keypairs[server], keystore=keystore,
                clock_offset=0.0004 * index)
            monitors[client] = AccountableVMM(
                client, client_image, config, scheduler, network,
                keypair=keypairs[client], keystore=keystore,
                clock_offset=0.0004 * index + 0.0002)

        ingest = self._attach_archive(monitors, network, archive_dir)
        ctx = ScenarioContext(
            workload="kv", scheduler=scheduler, network=network,
            monitors=monitors, reference_images=references,
            keystore=keystore, keypairs=keypairs, byzantine=byzantine,
            duration=self.duration, ingest=ingest)

        def run() -> None:
            for monitor in monitors.values():
                monitor.start()
            scheduler.run_until(self.duration)
            for monitor in monitors.values():
                monitor.stop()

        return ctx, run

    def _build_game(self, spec: CellSpec, adversary: Adversary,
                    archive_dir: Optional[str]
                    ) -> Tuple[ScenarioContext, Callable[[], None]]:
        """A game session; the byzantine machine is player1."""
        if spec.fleet_size < 3:
            raise ValueError(f"game fleet size must be >= 3 (server + 2 "
                             f"players), got {spec.fleet_size}")
        cheat = adversary.game_cheat()
        session = GameSession(GameSessionSettings(
            configuration=Configuration.AVMM_RSA768,
            num_players=spec.fleet_size - 1,
            duration=self.duration, seed=spec.seed,
            snapshot_interval=self.snapshot_interval,
            cheats={"player1": cheat} if cheat is not None else {}))
        ingest = self._attach_archive(session.monitors, session.network,
                                      archive_dir)
        ctx = ScenarioContext(
            workload="game", scheduler=session.scheduler,
            network=session.network, monitors=session.monitors,
            reference_images=session.reference_images,
            keystore=session.keystore, keypairs=session.keypairs,
            byzantine="player1", duration=self.duration, ingest=ingest)
        return ctx, session.run

    def _attach_archive(self, monitors: Dict[str, AccountableVMM],
                        network: SimulatedNetwork,
                        archive_dir: Optional[str]
                        ) -> Optional[AuditIngestService]:
        if archive_dir is None:
            return None
        ingest = AuditIngestService(LogArchive(archive_dir), network=network)
        for monitor in monitors.values():
            monitor.attach_archive_shipper(
                ingest.identity, format_version=self.ship_format_version)
        return ingest

    def _attach_online(self, ctx: ScenarioContext) -> Dict[str, OnlineAuditor]:
        """One online auditor per machine, auditing twice during the run."""
        online: Dict[str, OnlineAuditor] = {}
        for machine in sorted(ctx.monitors):
            auditor = Auditor("auditor", ctx.keystore,
                              ctx.reference_images[machine])
            peers = [ctx.monitors[peer] for peer in sorted(ctx.monitors)
                     if peer != machine]
            watcher = OnlineAuditor(auditor, ctx.monitors[machine],
                                    ctx.scheduler, peers,
                                    interval=self.duration / 2)
            watcher.start()
            online[machine] = watcher
        return online

    def _drain_archive(self, ctx: ScenarioContext) -> None:
        """Tolerant tail shipping: lying shippers never converge — that is
        the point — so unlike the honest fleet drain this never raises."""
        scheduler = ctx.scheduler
        scheduler.run_until(scheduler.clock.now + DRAIN_SETTLE_SECONDS)
        for _ in range(DRAIN_MAX_ROUNDS):
            shipped = [monitor.ship_archive_tail()
                       for monitor in ctx.monitors.values()]
            scheduler.run_until(scheduler.clock.now + DRAIN_SETTLE_SECONDS)
            if not any(shipped):
                break

    # -- auditing -----------------------------------------------------------

    def _make_auditor(self, ctx: ScenarioContext, machine: str,
                      adversary: Adversary) -> Auditor:
        """An external auditor holding every party's authenticators.

        This is the multi-party collection step of Section 4.6 — and, for an
        equivocating target, the step that pools its conflicting views.
        """
        auditor = Auditor("auditor", ctx.keystore, ctx.reference_images[machine])
        for peer in sorted(ctx.monitors):
            if peer != machine:
                auditor.collect_from_peer(ctx.monitors[peer], machine)
        if machine == ctx.byzantine:
            extra = adversary.extra_auditor_authenticators(ctx)
            if extra:
                auditor.collect_authenticators(machine, extra)
        return auditor

    def _audit(self, spec: CellSpec, ctx: ScenarioContext,
               adversary: Adversary, online: Dict[str, OnlineAuditor]
               ) -> Dict[str, AuditResult]:
        if spec.mode == "full":
            return self._audit_full(ctx, adversary)
        if spec.mode == "spot":
            return self._audit_spot(ctx, adversary)
        if spec.mode == "online":
            return self._audit_online(ctx, adversary, online)
        if spec.mode == "archive":
            return self._audit_archive(ctx, adversary)
        raise ValueError(f"unknown audit mode {spec.mode!r}")

    def _audit_full(self, ctx: ScenarioContext,
                    adversary: Adversary) -> Dict[str, AuditResult]:
        """Fleet audit on the parallel engine (PR 1's scheduler pool)."""
        engine = AuditScheduler(workers=self.workers, executor=self.executor)
        assignments = [AuditAssignment(self._make_auditor(ctx, machine, adversary),
                                       ctx.monitors[machine])
                       for machine in sorted(ctx.monitors)]
        try:
            return dict(engine.audit_fleet(assignments).results)
        except ReproError:
            # A machine that cannot even produce a well-formed log aborts the
            # batch; isolate it so the rest of the fleet still gets verdicts.
            results: Dict[str, AuditResult] = {}
            for assignment in assignments:
                machine = assignment.target.identity
                try:
                    results[machine] = engine.audit_machine(
                        assignment.auditor, assignment.target)
                except ReproError as exc:
                    results[machine] = assignment.auditor.suspect(
                        machine, reason=f"audit could not be carried out: {exc}")
            return results

    def _audit_spot(self, ctx: ScenarioContext,
                    adversary: Adversary) -> Dict[str, AuditResult]:
        """Audit every 1-chunk of every machine (exhaustive spot check)."""
        results: Dict[str, AuditResult] = {}
        for machine in sorted(ctx.monitors):
            auditor = self._make_auditor(ctx, machine, adversary)
            checker = SpotChecker(auditor)
            try:
                chunks = checker.check_all_chunks(ctx.monitors[machine], k=1,
                                                  skip_initial=False)
                failed = next((chunk.result for chunk in chunks
                               if not chunk.ok), None)
                if failed is not None:
                    results[machine] = failed
                else:
                    results[machine] = AuditResult(
                        machine=machine, auditor=auditor.identity,
                        verdict=Verdict.PASS, phase=AuditPhase.COMPLETE,
                        authenticators_checked=sum(
                            chunk.result.authenticators_checked
                            for chunk in chunks))
            except ReproError as exc:
                # e.g. the machine served a snapshot that fails hash-tree
                # verification: it cannot answer the challenge.
                results[machine] = auditor.suspect(
                    machine, reason=f"spot check could not be completed: {exc}")
        return results

    def _audit_online(self, ctx: ScenarioContext, adversary: Adversary,
                      online: Dict[str, OnlineAuditor]
                      ) -> Dict[str, AuditResult]:
        """Mid-run verdicts from the online auditors plus a closing audit."""
        results: Dict[str, AuditResult] = {}
        for machine, watcher in online.items():
            watcher.stop()
            mid_run = next((record.result for record in watcher.records
                            if record.verdict is not Verdict.PASS), None)
            auditor = self._make_auditor(ctx, machine, adversary)
            try:
                final = auditor.audit(ctx.monitors[machine])
            except ReproError as exc:
                final = auditor.suspect(
                    machine, reason=f"audit could not be carried out: {exc}")
            if not final.ok:
                results[machine] = final
            elif mid_run is not None:
                results[machine] = mid_run
            else:
                results[machine] = final
        return results

    def _audit_archive(self, ctx: ScenarioContext,
                       adversary: Adversary) -> Dict[str, AuditResult]:
        """Audit from the durable archive (PR 2's ingest pipeline)."""
        assert ctx.ingest is not None
        results: Dict[str, AuditResult] = {}
        for machine in sorted(ctx.monitors):
            auditor = self._make_auditor(ctx, machine, adversary)
            quarantined = ctx.ingest.quarantine_for(machine)
            if quarantined:
                # The archive refused this machine's shipments; it has no
                # archived history consistent with its commitments.
                results[machine] = auditor.suspect(
                    machine,
                    reason=f"archive quarantined {len(quarantined)} "
                           f"shipment(s): {quarantined[0].reason}")
                continue
            try:
                ctx.ingest.prepare_auditor(auditor, machine)
                results[machine] = auditor.audit(ctx.ingest.target_for(machine))
            except ReproError as exc:
                results[machine] = auditor.suspect(
                    machine, reason=f"archive audit could not be carried "
                                    f"out: {exc}")
        return results

    # -- judging ------------------------------------------------------------

    def _judge(self, spec: CellSpec, ctx: ScenarioContext,
               adversary: Adversary, results: Dict[str, AuditResult],
               online: Dict[str, OnlineAuditor]) -> CellOutcome:
        byzantine = ctx.byzantine
        outcome = CellOutcome(spec=spec, byzantine=byzantine,
                              honest_machines=ctx.honest_machines,
                              expect_detection=adversary.expects_detection)

        byz_result = results.get(byzantine)
        if byz_result is not None:
            outcome.verdict = byz_result.verdict.value
            outcome.phase = byz_result.phase.value
            outcome.reason = byz_result.reason
        if ctx.ingest is not None:
            outcome.quarantined_shipments = len(
                ctx.ingest.quarantine_for(byzantine))
        watcher = online.get(byzantine)
        if watcher is not None:
            outcome.detection_time = watcher.detection_time

        # Equivocation scan over the pooled authenticators (Section 4.6).
        pooled = []
        for machine in ctx.honest_machines:
            pooled.extend(ctx.monitors[machine].authenticators_from(byzantine))
        pooled.extend(adversary.extra_auditor_authenticators(ctx))
        proof = find_equivocation(pooled, ctx.keystore)
        outcome.equivocation_proof = (proof is not None
                                      and proof.verify(ctx.keystore))

        # Who gave up retransmitting to whom (Section 4.3): an honest
        # machine may only ever suspect the byzantine one.
        suspects = {machine: ctx.monitors[machine].stats.suspected_peers
                    for machine in ctx.honest_machines}
        outcome.suspected_by = [m for m in suspects if byzantine in suspects[m]]

        outcome.detected = (
            (byz_result is not None and byz_result.verdict is not Verdict.PASS)
            or outcome.quarantined_shipments > 0
            or outcome.equivocation_proof
            # suspicion detects only where it is the promised surface
            or (adversary.expects_suspicion and bool(outcome.suspected_by)))
        outcome.false_accusations = [
            machine for machine in ctx.honest_machines
            if (results.get(machine) is not None
                and results[machine].verdict is not Verdict.PASS)
            or any(machine in suspected for suspected in suspects.values())]

        # Re-verify the accusation like an independent third party would.
        if byz_result is not None and byz_result.verdict is not Verdict.PASS:
            evidence = byz_result.evidence
            try:
                outcome.evidence_verified = evidence is not None and bool(
                    evidence.verify(ctx.keystore,
                                    ctx.reference_images[byzantine]))
            except ReproError:
                outcome.evidence_verified = False
        if adversary.expects_equivocation_proof:
            outcome.evidence_verified = (outcome.evidence_verified
                                         and outcome.equivocation_proof)

        outcome.expectation_met = self._expectation_met(adversary, outcome,
                                                        byz_result)
        return outcome

    @staticmethod
    def _expectation_met(adversary: Adversary, outcome: CellOutcome,
                         byz_result: Optional[AuditResult]) -> bool:
        if outcome.false_accusations:
            return False
        if not adversary.expects_detection:
            return not outcome.detected
        if not outcome.detected or not outcome.evidence_verified:
            return False
        if adversary.expects_quarantine and outcome.quarantined_shipments == 0:
            return False
        if adversary.expects_equivocation_proof and not outcome.equivocation_proof:
            return False
        if adversary.expects_suspicion and not outcome.suspected_by:
            return False
        if (adversary.expected_phases and byz_result is not None
                and byz_result.verdict is Verdict.FAIL
                and byz_result.phase not in adversary.expected_phases):
            return False
        return True

