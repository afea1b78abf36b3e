"""Tests for the Byzantine adversary subsystem and the scenario matrix.

The fast tests run a handful of representative cells end to end (one per
detection surface) plus unit tests of the tamper primitives and the
equivocation proof; the slow test runs the full default matrix and asserts
the acceptance criteria: >= 24 cells across >= 6 adversaries, >= 2 workloads
and >= 2 audit modes, 100% detection on misbehaving cells, zero false
accusations, and independently re-verifiable evidence for every accusation.
A second slow test audits every cell's recording on every front-end —
serial, engine (inline, process, finest chunking), spot check (serial and
engine-backed) and, for archived cells, the materializing audit, the stream
and the engine and spot checker over the archive — against
``tests/data/conviction_pins.json``: verdict, phase and reason of every
conviction as the serial audit reported them at the commit before chunk
evidence replaced the serial confirmation, and checks that each conviction's
evidence convinces a third party holding its own keystore and image.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.adversary.catalog import adversary_names, make_adversary
from repro.adversary.matrix import (
    MODES,
    WORKLOADS,
    CellSpec,
    ScenarioMatrix,
    record_scenario,
)
from repro.audit.engine import AuditScheduler
from repro.audit.multiparty import EquivocationProof, find_equivocation
from repro.audit.spot_check import SpotChecker
from repro.audit.stream import stream_audit
from repro.audit.verdict import AuditPhase
from repro.crypto import hashing
from repro.errors import HashChainError, SnapshotError
from repro.log.authenticator import make_authenticator
from repro.log.entries import EntryType
from repro.log.hashchain import verify_chain
from repro.log.tamper_evident import TamperEvidentLog


# ---------------------------------------------------------------------------
# Tamper primitives (the TamperingVMM building blocks)
# ---------------------------------------------------------------------------

def _small_log(machine="bob", entries=8, keypair=None):
    log = TamperEvidentLog(machine, keypair=keypair)
    for index in range(entries):
        log.append(EntryType.ANNOTATION, {"index": index})
    return log


class TestTamperPrimitives:
    def test_remove_renumbers_but_breaks_chain(self):
        log = _small_log()
        log.tamper_remove_entry(4)
        assert len(log) == 7
        assert [e.sequence for e in log] == list(range(1, 8))
        with pytest.raises(HashChainError):
            verify_chain(log.entries, expected_start_hash=hashing.ZERO_HASH)

    def test_swap_keeps_numbering_but_breaks_chain(self):
        log = _small_log()
        log.tamper_swap_entries(3, 4)
        assert [e.sequence for e in log] == list(range(1, 9))
        with pytest.raises(HashChainError):
            verify_chain(log.entries, expected_start_hash=hashing.ZERO_HASH)

    def test_insert_recomputes_a_consistent_but_different_chain(self):
        log = _small_log()
        before = [e.chain_hash for e in log]
        log.tamper_insert_entry(3, EntryType.ANNOTATION, {"forged": True})
        assert len(log) == 9
        # Internally consistent...
        verify_chain(log.entries, expected_start_hash=hashing.ZERO_HASH)
        # ...but every hash from the insertion point differs from history.
        assert log.entry_at(4).chain_hash != before[3]

    def test_truncate_and_fork(self):
        log = _small_log()
        abandoned = log.entry_at(6).chain_hash
        log.tamper_truncate(5)
        assert len(log) == 5
        forked = log.append(EntryType.ANNOTATION, {"fork": True})
        assert forked.sequence == 6
        assert forked.chain_hash != abandoned
        verify_chain(log.entries, expected_start_hash=hashing.ZERO_HASH)


# ---------------------------------------------------------------------------
# Equivocation proofs
# ---------------------------------------------------------------------------

class TestEquivocationProof:
    def _conflicting_pair(self, ca):
        keypair = ca.issue("equivocator")
        content_a = hashing.hash_bytes(b"history-a")
        content_b = hashing.hash_bytes(b"history-b")
        previous = hashing.ZERO_HASH

        def commit(content_hash):
            chain = hashing.hash_concat(previous, hashing.encode_int(1),
                                        b"send", content_hash)
            return make_authenticator(keypair, sequence=1, chain_hash=chain,
                                      previous_hash=previous, entry_type="send",
                                      content_hash=content_hash)

        return keypair, commit(content_a), commit(content_b)

    def test_conflicting_commitments_yield_a_proof(self, ca, keystore):
        keypair, first, second = self._conflicting_pair(ca)
        keystore.add_certificate(keypair.certificate)
        proof = find_equivocation([first, second], keystore)
        assert proof is not None
        assert proof.machine == "equivocator"
        assert proof.sequence == 1
        assert proof.verify(keystore)

    def test_duplicates_and_honest_sets_yield_no_proof(self, ca, keystore):
        keypair, first, _ = self._conflicting_pair(ca)
        keystore.add_certificate(keypair.certificate)
        assert find_equivocation([first, first], keystore) is None
        assert find_equivocation([first], keystore) is None

    def test_proof_with_matching_hashes_does_not_verify(self, ca, keystore):
        keypair, first, _ = self._conflicting_pair(ca)
        keystore.add_certificate(keypair.certificate)
        bogus = EquivocationProof(machine="equivocator", sequence=1,
                                  first=first, second=first)
        assert not bogus.verify(keystore)

    def test_garbage_signed_authenticator_cannot_mask_a_conflict(
            self, ca, keystore):
        """Regression: an unverifiable authenticator shipped first for a
        sequence must not occupy the slot and suppress the real proof."""
        from dataclasses import replace
        keypair, first, second = self._conflicting_pair(ca)
        keystore.add_certificate(keypair.certificate)
        decoy = replace(first, signature=b"\x00" * len(first.signature),
                        chain_hash=hashing.hash_bytes(b"decoy"))
        proof = find_equivocation([decoy, first, second], keystore)
        assert proof is not None
        assert proof.verify(keystore)


# ---------------------------------------------------------------------------
# Representative matrix cells (one per detection surface)
# ---------------------------------------------------------------------------

class TestRepresentativeCells:
    """Fast end-to-end cells; the full grid runs in the slow test below."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return ScenarioMatrix()

    @pytest.mark.parametrize("spec", [
        CellSpec("honest", "kv", "full", 2, 2001),
        CellSpec("tamper-modify", "kv", "full", 2, 2002),
        CellSpec("equivocating-peer", "kv", "full", 2, 2003),
        CellSpec("lying-shipper-segments", "kv", "archive", 2, 2004),
        CellSpec("hidden-nondeterminism", "kv", "spot", 2, 2005),
        CellSpec("snapshot-mutation", "kv", "spot", 2, 2006),
    ], ids=lambda spec: f"{spec.adversary}-{spec.mode}")
    def test_cell_meets_expectations(self, matrix, spec):
        outcome = matrix.run_cell(spec)
        assert outcome.expectation_met, outcome.describe()
        assert not outcome.false_accusations
        adversary = make_adversary(spec.adversary)
        assert outcome.detected == adversary.expects_detection
        if adversary.expects_detection:
            assert outcome.evidence_verified

    def test_equivocation_cell_produces_standalone_proof(self, matrix):
        outcome = matrix.run_cell(CellSpec("equivocating-peer", "kv", "spot",
                                           2, 2007))
        assert outcome.equivocation_proof
        assert outcome.expectation_met, outcome.describe()

    def test_quarantine_cell_records_shipments(self, matrix):
        outcome = matrix.run_cell(CellSpec("lying-shipper-snapshots", "kv",
                                           "archive", 2, 2008))
        assert outcome.quarantined_shipments > 0
        assert outcome.verdict == "suspected"
        assert outcome.expectation_met, outcome.describe()

    def test_online_cell_records_detection_time(self, matrix):
        outcome = matrix.run_cell(CellSpec("unrecorded-input", "kv", "online",
                                           2, 2009))
        assert outcome.expectation_met, outcome.describe()
        assert outcome.detection_time is not None
        assert outcome.detection_time <= matrix.duration

    def test_cells_are_deterministic(self, matrix):
        spec = CellSpec("tamper-forge", "kv", "full", 2, 2010)
        first = matrix.run_cell(spec)
        second = matrix.run_cell(spec)
        assert first.verdict == second.verdict
        assert first.reason == second.reason
        assert first.phase == second.phase


# ---------------------------------------------------------------------------
# The catalog and helpers
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_catalog_size_and_mode_coverage(self):
        names = adversary_names()
        assert names[0] == "honest"
        assert len(names) >= 7  # honest + >= 6 misbehaving adversaries
        modes = set()
        for name in names:
            adversary = make_adversary(name)
            assert adversary.modes, name
            modes.update(adversary.modes)
        assert modes == set(MODES)

    def test_unknown_adversary_rejected(self):
        with pytest.raises(KeyError):
            make_adversary("nonexistent-adversary")

    def test_default_cells_satisfy_acceptance_floor(self):
        cells = ScenarioMatrix().default_cells()
        assert len(cells) >= 24
        assert len({cell.adversary for cell in cells}) >= 7
        assert {cell.workload for cell in cells} == set(WORKLOADS)
        assert len({cell.mode for cell in cells}) >= 2
        assert len({cell.fleet_size for cell in cells}) >= 2
        # Seeds are unique, so every cell is independently reproducible.
        assert len({cell.seed for cell in cells}) == len(cells)

    def test_mode_applicability_enforced(self):
        with pytest.raises(ValueError):
            ScenarioMatrix().run_cell(
                CellSpec("tamper-modify", "kv", "archive", 2, 2011))

    def test_record_scenario_helper(self):
        ctx = record_scenario(fleet_size=2, seed=31, duration=2.0)
        assert len(ctx.monitors) == 2
        assert ctx.byzantine == "db-server-00"
        assert len(ctx.monitor.log) > 0
        assert ctx.peer_committed_sequences()


# ---------------------------------------------------------------------------
# The full matrix (acceptance criteria)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestFullMatrix:
    def test_full_matrix_detects_everything_and_accuses_no_one(self):
        matrix = ScenarioMatrix()
        report = matrix.run(matrix.default_cells())

        assert len(report.cells) >= 24
        assert len(report.adversaries()) >= 7
        assert {cell.spec.workload for cell in report.cells} == set(WORKLOADS)
        assert {cell.spec.mode for cell in report.cells} == set(MODES)

        failures = [cell.describe() for cell in report.cells
                    if not cell.expectation_met]
        assert not failures, "\n".join(failures)
        assert report.detection_rate == 1.0
        assert report.false_accusation_count == 0
        assert report.all_evidence_verified
        assert report.ok

        # Detection surfaces cover all three evidence families.
        phases = {cell.phase for cell in report.misbehaving_cells
                  if cell.verdict == "fail"}
        assert AuditPhase.AUTHENTICATOR_CHECK.value in phases
        assert AuditPhase.SEMANTIC_CHECK.value in phases
        assert any(cell.quarantined_shipments for cell in report.cells)
        assert any(cell.equivocation_proof for cell in report.cells)


# ---------------------------------------------------------------------------
# Every cell, every front-end: the pinned conviction, evidence a third party
# confirms
# ---------------------------------------------------------------------------

CONVICTION_PINS = json.loads(
    (Path(__file__).parent / "data" / "conviction_pins.json").read_text())


def _first_failing(checker, target):
    chunks = checker.check_all_chunks(target, k=1, skip_initial=False)
    return next((chunk.result for chunk in chunks if not chunk.ok),
                chunks[0].result)


def _front_ends(matrix, ctx, adversary, machine, archived):
    """name -> audit of ``machine``'s recording on that front-end."""
    def auditor(prepared=False):
        made = matrix._make_auditor(ctx, machine, adversary)
        if prepared:
            ctx.ingest.prepare_auditor(made, machine)
        return made

    def engine(**kwargs):
        return AuditScheduler(workers=2, **kwargs)

    live = ctx.monitors[machine]
    ends = {
        "serial": lambda: auditor().audit(live),
        "engine-inline": lambda: engine(executor="inline")
        .audit_machine(auditor(), live),
        "engine-process": lambda: engine(executor="process")
        .audit_machine(auditor(), live),
        "engine-finest": lambda: engine(executor="inline",
                                        chunks_per_machine=64)
        .audit_machine(auditor(), live),
        "spot": lambda: _first_failing(SpotChecker(auditor()), live),
        "spot-engine": lambda: _first_failing(
            SpotChecker(auditor(), engine=engine(executor="inline")), live),
    }
    if archived and not ctx.ingest.quarantine_for(machine):
        target = ctx.ingest.target_for(machine)
        ends.update({
            "archive-serial": lambda: auditor(True).audit(target,
                                                          streaming=False),
            "stream": lambda: stream_audit(auditor(True), target).result,
            "archive-engine": lambda: engine(executor="inline")
            .audit_machine(auditor(True), target),
            "archive-spot": lambda: _first_failing(
                SpotChecker(auditor(True)), target),
        })
    return ends


@pytest.mark.slow
class TestConvictionOnEveryFrontEnd:
    def test_pinned_verdicts_and_third_party_evidence(self):
        matrix = ScenarioMatrix()
        cells = matrix.default_cells()
        assert len(cells) == 69
        convictions = 0
        for spec in cells:
            adversary = make_adversary(spec.adversary, seed=spec.seed)
            archived = spec.mode == "archive"
            pinned = CONVICTION_PINS.get(
                f"{spec.adversary}|{spec.workload}|{spec.mode}|"
                f"{spec.fleet_size}", {})
            with tempfile.TemporaryDirectory() as tmp:
                ctx, run = matrix._build(spec, adversary,
                                         tmp if archived else None)
                adversary.install(ctx)
                run()
                if archived:
                    matrix._drain_archive(ctx)
                adversary.corrupt(ctx)
                for machine in sorted(ctx.monitors):
                    expected = pinned.get(machine, ["pass", "complete", ""])
                    assert machine == ctx.byzantine or expected[0] == "pass"
                    for name, audit in _front_ends(
                            matrix, ctx, adversary, machine, archived).items():
                        where = f"{spec.label()}: {machine} on {name}"
                        try:
                            result = audit()
                        except SnapshotError:
                            # the one cheat a chunking front-end cannot get
                            # past: the machine serves no verifiable snapshot
                            assert spec.adversary == "snapshot-mutation" \
                                and machine == ctx.byzantine \
                                and name != "serial", where
                            continue
                        assert [result.verdict.value, result.phase.value,
                                result.reason] == expected, where
                        if not result.ok:
                            convictions += 1
                            assert result.evidence.verify(
                                ctx.keystore,
                                ctx.reference_images[machine]), where
        assert convictions >= 53 * 6
