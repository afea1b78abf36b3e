"""Integration tests: telemetry threaded through the whole pipeline.

Four contracts, end to end:

* ``AuditResult.wall_seconds`` is populated by every audit front-end
  (serial, the engine on an archive or a fleet, spot-check) through the
  one shared obs timer, and never participates in structural equality;
* the ingest service counts quarantines exactly once (single chokepoint)
  and tracks queue depth, proven against a lying shipper;
* **determinism** — audit outcomes are structurally identical with
  telemetry off, on, and sampled at any stride, across the adversary
  matrix's archive mode;
* the disabled fast path is genuinely free: a chunk-by-chunk archive
  audit under ``NULL_OBS`` makes no per-entry allocations in the obs
  layer, and an
  observed fleet run exports a valid Chrome trace covering
  monitor -> shipper -> ingest -> audit.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import tracemalloc

import pytest

import repro.obs
from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, MatrixReport, ScenarioMatrix
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.spot_check import SpotChecker
from repro.experiments import adversary_matrix
from repro.obs import Observability, validate_chrome_trace
from repro.service.fleet import build_fleet
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.workloads.sqlbench import SqlBenchSettings


@pytest.fixture(scope="module")
def archived_fleet(tmp_path_factory):
    """A small archived fleet recorded with telemetry OFF (the default)."""
    root = tmp_path_factory.mktemp("obs-fleet") / "archive"
    fleet = build_fleet(num_machines=4, duration=6.0, seed=11,
                        snapshot_interval=2.0, archive=LogArchive(root))
    return fleet, root


def _prepared(fleet, service, machine, obs=None):
    if obs is None:
        auditor = fleet.make_auditor(machine, collect=False)
    else:
        auditor = Auditor("auditor", fleet.keystore,
                          fleet.reference_images[machine], obs=obs)
    service.prepare_auditor(auditor, machine)
    return auditor


def _engine_report(auditor, target):
    """The engine's report on one archived machine, at one inline worker."""
    return AuditScheduler().audit_fleet([AuditAssignment(auditor, target)]) \
        .machine_reports[target.identity]


# ---------------------------------------------------------------------------
# Satellite 1: wall_seconds on every front-end, excluded from equality
# ---------------------------------------------------------------------------

class TestWallSeconds:
    def test_serial_audit_populates_wall_seconds(self, archived_fleet):
        fleet, _ = archived_fleet
        machine = fleet.machines[0]
        result = fleet.make_auditor(machine).audit(fleet.monitors[machine])
        assert result.ok
        assert result.wall_seconds > 0.0

    def test_streaming_audit_populates_wall_seconds(self, archived_fleet):
        fleet, root = archived_fleet
        service = AuditIngestService(LogArchive(root))
        machine = fleet.machines[0]
        result = _prepared(fleet, service, machine).audit(
            service.target_for(machine))
        assert result.ok
        assert result.wall_seconds > 0.0

    def test_engine_fleet_audit_populates_wall_seconds(self, archived_fleet):
        fleet, _ = archived_fleet
        engine = AuditScheduler(workers=2, executor="thread")
        report = engine.audit_fleet(fleet.assignments())
        assert len(report.results) == len(fleet.machines)
        for result in report.results.values():
            assert result.wall_seconds > 0.0

    def test_spot_check_populates_wall_seconds(self, archived_fleet):
        fleet, _ = archived_fleet
        machine = fleet.machines[0]
        checker = SpotChecker(fleet.make_auditor(machine))
        chunks = checker.check_all_chunks(fleet.monitors[machine], k=1)
        assert chunks
        for chunk in chunks:
            assert chunk.result.wall_seconds > 0.0

    def test_wall_seconds_never_breaks_equality(self, archived_fleet):
        fleet, _ = archived_fleet
        machine = fleet.machines[0]
        result = fleet.make_auditor(machine).audit(fleet.monitors[machine])
        relabeled = dataclasses.replace(result, wall_seconds=12345.0)
        assert relabeled == result


# ---------------------------------------------------------------------------
# Satellite 2: quarantine counted exactly once, queue depth tracked
# ---------------------------------------------------------------------------

class TestIngestMetrics:
    def test_lying_shipper_quarantines_counted_exactly_once(self):
        obs = Observability.make()
        matrix = ScenarioMatrix(duration=3.0, snapshot_interval=1.0, obs=obs)
        name = "lying-shipper-segments"
        adversary = make_adversary(name, seed=4321)
        assert "archive" in adversary.modes
        spec = CellSpec(name, "kv", "archive", 2, 4321)
        with tempfile.TemporaryDirectory(prefix="obs-lying-") as tmp:
            ctx, run = matrix._build(spec, adversary, tmp)
            adversary.install(ctx)
            run()
            matrix._drain_archive(ctx)
            adversary.corrupt(ctx)
            assert ctx.ingest is not None
            quarantined = sum(len(ctx.ingest.quarantine_for(machine))
                              for machine in ctx.monitors)
        assert quarantined > 0
        # _record_quarantine is the single chokepoint: the counter equals
        # the number of quarantined shipments, each counted exactly once.
        assert obs.metrics.value("ingest.quarantined_total") == quarantined
        assert obs.metrics.value("ingest.messages_total") > 0

    def test_queue_depth_gauge_rises_and_drains(self, archived_fleet):
        _, root = archived_fleet
        obs = Observability.make()
        service = AuditIngestService(LogArchive(root), obs=obs)
        # Re-decoding the archive does not touch the live queue; exercise
        # the gauge through the ingest bookkeeping instead.
        gauge = obs.metrics.gauge("ingest.queue_depth")
        assert gauge.value == 0
        service._pending["m1"] = 3
        service._update_queue_depth()
        assert gauge.value == 3
        assert gauge.high_water == 3
        service._pending.clear()
        service._update_queue_depth()
        assert gauge.value == 0
        assert gauge.high_water == 3


# ---------------------------------------------------------------------------
# The determinism invariant: off == on == sampled
# ---------------------------------------------------------------------------

class TestTelemetryDifferential:
    ADVERSARIES = ("honest", "cheating-guest", "lying-shipper-segments")

    @pytest.mark.parametrize("adversary_name", ADVERSARIES)
    def test_archive_cells_identical_at_any_sampling(self, adversary_name):
        adversary = make_adversary(adversary_name)
        if "archive" not in adversary.modes:
            pytest.skip(f"{adversary_name} not observable in archive mode")
        spec = CellSpec(adversary_name, "kv", "archive", 2, 2024)
        outcomes = {}
        for label, obs in (("off", None),
                           ("on", Observability.make()),
                           ("sampled", Observability.make(sample_stride=7))):
            # Message ids are allocated per network instance, so every run
            # records byte-identical logs without any global reset.
            matrix = ScenarioMatrix(duration=3.0, snapshot_interval=1.0,
                                    obs=obs)
            outcomes[label] = matrix.run_cell(spec).to_dict()
        assert outcomes["on"] == outcomes["off"]
        assert outcomes["sampled"] == outcomes["off"]

    def test_same_archive_audits_identically_with_telemetry(
            self, archived_fleet):
        fleet, root = archived_fleet
        service = AuditIngestService(LogArchive(root))
        for machine in fleet.machines:
            baseline = _prepared(fleet, service, machine).audit(
                service.target_for(machine))
            obs = Observability.make()
            observed_service = AuditIngestService(LogArchive(root), obs=obs)
            observed = _prepared(fleet, observed_service, machine,
                                 obs=obs).audit(
                observed_service.target_for(machine))
            assert observed == baseline, \
                f"telemetry changed the audit of {machine}"
            assert obs.metrics.value("audit.chunks_total") > 0


# ---------------------------------------------------------------------------
# Satellite 4: the disabled fast path allocates nothing per entry
# ---------------------------------------------------------------------------

class TestDisabledFastPath:
    def test_null_obs_stream_audit_makes_no_obs_allocations(
            self, archived_fleet):
        fleet, root = archived_fleet
        service = AuditIngestService(LogArchive(root))
        machine = fleet.machines[0]
        target = service.target_for(machine)
        # Warm up imports and caches outside the traced window.
        _engine_report(_prepared(fleet, service, machine), target)

        obs_dir = os.path.dirname(repro.obs.__file__)
        tracemalloc.start(10)
        report = _engine_report(_prepared(fleet, service, machine), target)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()

        assert report.result.ok
        assert report.entries > 100  # a real, multi-entry audit
        stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, os.path.join(obs_dir, "*"))]
        ).statistics("filename")
        obs_bytes = sum(stat.size for stat in stats)
        # The whole obs layer may allocate only O(1) wall timers — nothing
        # proportional to the hundreds of entries streamed.
        assert obs_bytes < 4096, \
            f"disabled telemetry allocated {obs_bytes} B in repro.obs"


# ---------------------------------------------------------------------------
# The observed fleet: trace export covers every pipeline layer
# ---------------------------------------------------------------------------

class TestObservedFleet:
    #: span-name prefixes that must all appear in a fleet trace, one per
    #: pipeline layer (record -> ship -> ingest -> audit)
    TRACE_LAYERS = {
        "monitor": ("monitor.snapshot",),
        "shipper": ("monitor.ship",),
        "ingest": ("ingest.",),
        "audit": ("audit.",),
    }

    def test_trace_covers_all_layers_and_validates(self, tmp_path):
        obs = Observability.make()
        fleet = build_fleet(
            num_machines=2, duration=4.0, seed=23, snapshot_interval=2.0,
            archive=LogArchive(tmp_path / "archive"),
            client_settings=SqlBenchSettings(
                server="", operations_per_tick=3, tick_interval=0.25,
                rows_per_phase=4, payload_bytes=800),
            obs=obs)
        for machine in fleet.machines:
            auditor = fleet.make_auditor(machine, collect=False)
            fleet.ingest.prepare_auditor(auditor, machine)
            auditor.audit(fleet.ingest.target_for(machine))

        verdicts = {entry["machine"]: entry.get("verdict")
                    for entry in obs.progress.snapshot()}
        assert verdicts and set(verdicts.values()) == {"pass"}, verdicts
        names = [span.name for span in obs.tracer.spans]
        assert names
        for layer, prefixes in self.TRACE_LAYERS.items():
            assert any(name.startswith(prefixes) for name in names), layer
        trace = tmp_path / "trace.json"
        obs.tracer.export_chrome_trace(trace)
        errors = validate_chrome_trace(json.loads(trace.read_text(encoding="utf-8")))
        assert not errors, errors[:5]
        metrics = obs.metrics.snapshot()
        assert metrics["monitor.log_entries_total"] > 0
        assert metrics["monitor.segments_shipped_total"] > 0
        assert metrics["ingest.segments_ingested_total"] > 0
        assert metrics["archive.segments_written_total"] > 0
        assert metrics["audit.chunks_total"] > 0
        assert obs.progress.peak_rss > 0


# ---------------------------------------------------------------------------
# Satellite 3: --json output modes
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
