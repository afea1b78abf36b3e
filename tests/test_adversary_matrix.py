"""Tests for the Byzantine adversary subsystem and the scenario matrix.

The fast tests run a handful of representative cells end to end (one per
detection surface) plus unit tests of the tamper primitives and the
equivocation proof; the slow test runs the full default matrix and asserts
the acceptance criteria: >= 24 cells across >= 6 adversaries, >= 2 workloads
and >= 2 audit modes, 100% detection on misbehaving cells, zero false
accusations, and independently re-verifiable evidence for every accusation.
A second slow test audits every cell's recording on every front-end —
serial, engine (inline, process, finest chunking), spot check (serial and
engine-backed) and, for archived cells, the materializing audit, the default
``Auditor.audit`` (the engine at one inline worker) and the engine and spot
checker over the archive — against
``tests/data/conviction_pins.json``: verdict, phase and reason of every
conviction as the serial audit reports them (``--regenerate-pins``, see
:func:`regenerate_pins`, re-pins the sequence numbers the reasons quote and
nothing else; verdict, phase and reason class are those of the commit before
chunk evidence replaced the serial confirmation), and checks that each
conviction's evidence convinces a third party holding its own keystore and
image.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.adversary.catalog import adversary_names, make_adversary
from repro.adversary.matrix import (
    MODES,
    WORKLOADS,
    CellSpec,
    MatrixReport,
    ScenarioMatrix,
)
from repro.audit.engine import AuditScheduler
from repro.audit.multiparty import EquivocationProof, find_equivocation
from repro.audit.spot_check import SpotChecker
from repro.audit.verdict import AuditPhase
from repro.crypto import hashing
from repro.errors import HashChainError, SnapshotError
from repro.experiments import adversary_matrix
from repro.log.authenticator import make_authenticator
from repro.log.entries import EntryType
from repro.log.hashchain import ChainCheckpoint, verify_chain_incremental
from repro.log.tamper_evident import TamperEvidentLog

from scenario_tools import record_scenario


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
            verify_chain_incremental(log.entries, ChainCheckpoint.genesis())

    def test_swap_keeps_numbering_but_breaks_chain(self):
        log = _small_log()
        log.tamper_swap_entries(3, 4)
        assert [e.sequence for e in log] == list(range(1, 9))
        with pytest.raises(HashChainError):
            verify_chain_incremental(log.entries, ChainCheckpoint.genesis())

    def test_insert_recomputes_a_consistent_but_different_chain(self):
        log = _small_log()
        before = [e.chain_hash for e in log]
        log.tamper_insert_entry(3, EntryType.ANNOTATION, {"forged": True})
        assert len(log) == 9
        # Internally consistent...
        verify_chain_incremental(log.entries, ChainCheckpoint.genesis())
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
        verify_chain_incremental(log.entries, ChainCheckpoint.genesis())


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
        CellSpec("forged-ack-link", "kv", "full", 2, 2012),
        CellSpec("phantom-ack", "kv", "full", 2, 2013),
        CellSpec("withheld-acks", "kv", "full", 2, 2014),
        CellSpec("junk-authenticators", "kv", "full", 2, 2018),
        CellSpec("junk-authenticators", "game", "archive", 3, 2019),
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

    def test_lying_shipper_segments_are_quarantined(self):
        matrix = ScenarioMatrix(duration=3.0, snapshot_interval=1.0)
        name = "lying-shipper-segments"
        adversary = make_adversary(name, seed=4321)
        assert "archive" in adversary.modes
        spec = CellSpec(name, "kv", "archive", 2, 4321)
        with tempfile.TemporaryDirectory(prefix="lying-shipper-") as tmp:
            ctx, run = matrix._build(spec, adversary, tmp)
            adversary.install(ctx)
            run()
            matrix._drain_archive(ctx)
            adversary.corrupt(ctx)
            assert ctx.ingest is not None
            quarantined = sum(len(ctx.ingest.quarantine_for(machine))
                              for machine in ctx.monitors)
            assert ctx.ingest.stats.messages_received > 0
        assert quarantined > 0

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


class TestArchiveCellDeterminism:
    """An archive cell's whole outcome — verdicts, quarantine, evidence — is a
    function of its spec: two fresh matrices in one process agree field for
    field, with no global state reset between them."""

    @pytest.mark.parametrize("adversary_name", (
        "honest", "cheating-guest", "lying-shipper-segments"))
    def test_archive_cells_identical_across_runs(self, adversary_name):
        assert "archive" in make_adversary(adversary_name).modes
        spec = CellSpec(adversary_name, "kv", "archive", 2, 2024)
        first, second = (
            ScenarioMatrix(duration=3.0, snapshot_interval=1.0).run_cell(spec)
            for _ in range(2))
        assert first.expectation_met, first.describe()
        assert first.to_dict() == second.to_dict()


class TestAcknowledgmentCells:
    """What the three acknowledgment adversaries look like from the honest
    side (the cells themselves run in ``TestRepresentativeCells``)."""

    @staticmethod
    def _recorded(name, seed):
        matrix = ScenarioMatrix()
        adversary = make_adversary(name, seed=seed)
        ctx, run = matrix._build(CellSpec(name, "kv", "full", 2, seed),
                                 adversary, None)
        adversary.install(ctx)
        run()
        adversary.corrupt(ctx)
        return matrix, ctx, adversary, ctx.monitors[ctx.honest_machines[0]]

    def test_forged_link_is_refused_at_run_time_and_ends_in_suspicion(self):
        matrix, ctx, adversary, client = self._recorded("forged-ack-link", 2015)
        assert client.stats.acks_rejected > 0
        assert client.stats.acks_received == 0
        assert client.stats.suspected_peers == [ctx.byzantine]
        assert client.channel.retransmissions > 0 and client.channel.gave_up_on
        # The forger's messages were judged on their own commitment, as ever:
        # delivered, filed, and its honest log matches every one of them.
        filed = client.authenticators_from(ctx.byzantine)
        assert filed and all(a.entry_type == "send" for a in filed)
        assert matrix._make_auditor(ctx, ctx.byzantine, adversary).audit(
            ctx.monitor).ok

    def test_withheld_acks_end_in_suspicion_without_a_single_rejection(self):
        _, ctx, _, client = self._recorded("withheld-acks", 2016)
        assert client.stats.acks_rejected == 0 == client.stats.acks_received
        assert client.stats.suspected_peers == [ctx.byzantine]
        assert not any(e.entry_type is EntryType.ACK
                       and e.content["direction"] == "sent"
                       for e in ctx.monitor.log)

    def test_phantom_ack_is_convicted_by_the_carriers_authenticator(self):
        matrix, ctx, adversary, client = self._recorded("phantom-ack", 2017)
        phantom = ctx.notes["phantom_sequence"]
        # At run time the acknowledgment verified: nothing was refused, and
        # nobody holds an authenticator for the RECV entry itself ...
        assert client.stats.acks_rejected == 0
        assert client.stats.suspected_peers == []
        held = sorted(a.sequence for a in client.authenticators_from(ctx.byzantine))
        assert phantom not in held
        presented = ctx.monitor.log.entry_at(phantom)
        assert presented.entry_type is EntryType.RECV
        assert bytes.fromhex(presented.content["payload"]) == b"never received"
        # ... the next signed entry commits to it all the same.
        result = matrix._make_auditor(ctx, ctx.byzantine, adversary).audit(
            ctx.monitor)
        assert (result.verdict.value, result.phase) == \
            ("fail", AuditPhase.AUTHENTICATOR_CHECK)
        named = int(re.search(r"log entry (\d+) ", result.reason).group(1))
        assert named > phantom and named in held
        assert result.evidence.verify(ctx.keystore,
                                      ctx.reference_images[ctx.byzantine])


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
        assert len(cells) == 80
        # The acknowledgment cells come after the grid, the junk cells after
        # them: every cell before keeps the seed (and so the recording) it had.
        assert [(cell.adversary, cell.seed) for cell in cells[68:72]] == [
            ("honest", 1068), ("forged-ack-link", 1069),
            ("phantom-ack", 1070), ("withheld-acks", 1071)]
        assert [(cell.workload, cell.mode, cell.seed) for cell in cells[72:]
                if cell.adversary == "junk-authenticators"] == [
            (workload, mode, seed) for seed, (workload, mode) in enumerate(
                ((workload, mode) for workload in WORKLOADS for mode in MODES),
                1072)]
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

PINS_PATH = Path(__file__).parent / "data" / "conviction_pins.json"
CONVICTION_PINS = json.loads(PINS_PATH.read_text())


def _pin_key(spec):
    return f"{spec.adversary}|{spec.workload}|{spec.mode}|{spec.fleet_size}"


def _recorded_cells(matrix):
    """Every default cell, recorded and corrupted, ready to be audited."""
    for spec in matrix.default_cells():
        adversary = make_adversary(spec.adversary, seed=spec.seed)
        archived = spec.mode == "archive"
        with tempfile.TemporaryDirectory() as tmp:
            ctx, run = matrix._build(spec, adversary, tmp if archived else None)
            adversary.install(ctx)
            run()
            if archived:
                matrix._drain_archive(ctx)
            adversary.corrupt(ctx)
            yield spec, ctx, adversary, archived


def regenerate_pins():
    """``PYTHONPATH=src python tests/test_adversary_matrix.py
    --regenerate-pins``: re-pin every conviction as the serial audit reports
    it.  Reasons quote log sequence numbers, which move whenever the
    recorded logs do; verdict, phase and the reason *with its digits masked*
    may not, and a pin may not disappear — then nothing is written."""
    matrix = ScenarioMatrix()
    pins = {}
    for spec, ctx, adversary, _ in _recorded_cells(matrix):
        for machine in sorted(ctx.monitors):
            result = matrix._make_auditor(ctx, machine, adversary).audit(
                ctx.monitors[machine])
            if not result.ok:
                pins.setdefault(_pin_key(spec), {})[machine] = [
                    result.verdict.value, result.phase.value, result.reason]

    def masked(pin):
        return {machine: [verdict, phase, re.sub(r"\d+", "#", reason)]
                for machine, (verdict, phase, reason) in pin.items()}

    moved = [key for key, pin in CONVICTION_PINS.items()
             if masked(pin) != masked(pins.get(key, {}))]
    print(f"{len(CONVICTION_PINS)} pins before, {len(pins)} now; new: "
          f"{sorted(set(pins) - set(CONVICTION_PINS)) or '-'}; same verdict, "
          f"phase and masked reason: {len(CONVICTION_PINS) - len(moved)}; "
          f"sequence numbers moved in "
          f"{sum(pins.get(k) != v for k, v in CONVICTION_PINS.items())}")
    if moved:
        raise SystemExit(f"class of conviction changed, not re-pinned: {moved}")
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True))


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
            "archive-serial": lambda: auditor(True).audit_whole_log(target),
            "archive-default": lambda: auditor(True).audit(target),
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
        cells = convictions = 0
        for spec, ctx, adversary, archived in _recorded_cells(matrix):
            cells += 1
            pinned = CONVICTION_PINS.get(_pin_key(spec), {})
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
        assert cells == 80 and len(CONVICTION_PINS) == 54
        assert convictions >= 54 * 6


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate-pins"]:
        raise SystemExit(f"usage: {sys.argv[0]} --regenerate-pins")
    regenerate_pins()


# ---------------------------------------------------------------------------
# --json output modes
# ---------------------------------------------------------------------------

class TestJsonOutput:
    def test_adversary_matrix_json_mode(self, capsys, monkeypatch):
        report = MatrixReport()
        monkeypatch.setattr(adversary_matrix, "run_matrix",
                            lambda **kwargs: report)
        adversary_matrix.main(["--json", "--smoke"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"] == []
        assert payload["ok"] is True
        assert payload["smoke"] is True

    def test_matrix_report_to_dict_round_trips(self):
        matrix = ScenarioMatrix(duration=2.0, snapshot_interval=1.0)
        outcome = matrix.run_cell(CellSpec("honest", "kv", "full", 2, 77))
        payload = MatrixReport(cells=[outcome]).to_dict()
        json.dumps(payload)  # JSON-ready
        (cell,) = payload["cells"]
        assert cell["adversary"] == "honest"
        assert cell["expectation_met"] is True
        assert payload["ok"] is True
