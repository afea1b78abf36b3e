"""Observed fleet run + telemetry overhead proof (:mod:`repro.obs`).

Two halves, one experiment:

* **Observed fleet** — records an archive-backed fleet with telemetry
  enabled, audits every machine from the archive, and exports the
  run as a Chrome ``trace_event`` file (open it in ``about:tracing`` or
  `Perfetto <https://ui.perfetto.dev>`_) plus a JSONL span log.  The
  trace must cover all four pipeline layers — monitor (record), shipper,
  ingest and audit — and validate against the trace-event schema.

* **Overhead head-to-head** — records and audits the
  streaming-audit bench's byte-dense workload twice, once with telemetry
  off (the :data:`~repro.obs.NULL_OBS` no-op path) and once with it on,
  and compares best-of-N audit wall clocks.  The contract: audit results
  are *structurally identical* (the determinism invariant) and the
  telemetry-on wall stays within a few percent (<5% at full scale —
  ``benchmarks/bench_obs_overhead.py`` pins the number and checks in
  ``BENCH_obs.json``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.audit.verdict import AuditResult
from repro.experiments.harness import format_table
from repro.experiments.parallel_audit import build_fleet
from repro.obs import Observability, validate_chrome_trace
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.workloads.sqlbench import SqlBenchSettings

#: span-name prefixes that must all appear in a fleet trace, one per
#: pipeline layer (record -> ship -> ingest -> audit)
TRACE_LAYERS: Dict[str, tuple] = {
    "monitor": ("monitor.snapshot",),
    "shipper": ("monitor.ship",),
    "ingest": ("ingest.",),
    "audit": ("audit.",),
}


def trace_layer_coverage(span_names: List[str]) -> Dict[str, bool]:
    """Which pipeline layers the recorded span names cover."""
    return {layer: any(name.startswith(prefix) for name in span_names
                       for prefix in prefixes)
            for layer, prefixes in TRACE_LAYERS.items()}


@dataclass
class ObservedFleetResult:
    """One telemetry-enabled fleet run, exported and validated."""

    num_machines: int
    duration: float
    sample_stride: int
    verdicts: Dict[str, str] = field(default_factory=dict)
    spans_recorded: int = 0
    layer_coverage: Dict[str, bool] = field(default_factory=dict)
    trace_valid: bool = False
    trace_errors: List[str] = field(default_factory=list)
    trace_path: str = ""
    jsonl_path: str = ""
    metrics: Dict[str, object] = field(default_factory=dict)
    progress: List[Dict[str, object]] = field(default_factory=list)
    peak_rss_bytes: int = 0

    @property
    def all_layers_covered(self) -> bool:
        return bool(self.layer_coverage) and all(self.layer_coverage.values())

    @property
    def all_passed(self) -> bool:
        return bool(self.verdicts) and all(
            verdict == "pass" for verdict in self.verdicts.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_machines": self.num_machines,
            "duration": self.duration,
            "sample_stride": self.sample_stride,
            "verdicts": dict(self.verdicts),
            "spans_recorded": self.spans_recorded,
            "layer_coverage": dict(self.layer_coverage),
            "all_layers_covered": self.all_layers_covered,
            "trace_valid": self.trace_valid,
            "trace_errors": list(self.trace_errors),
            "trace_path": self.trace_path,
            "jsonl_path": self.jsonl_path,
            "metrics": dict(self.metrics),
            "progress": list(self.progress),
            "peak_rss_bytes": self.peak_rss_bytes,
        }


def run_observed_fleet(num_machines: int = 4, duration: float = 12.0,
                       seed: int = 23, snapshot_interval: float = 2.0,
                       payload_bytes: int = 2000, sample_stride: int = 1,
                       trace_path: Optional[str] = None,
                       jsonl_path: Optional[str] = None,
                       root: Optional[str] = None) -> ObservedFleetResult:
    """Record, archive and audit a fleet with telemetry enabled."""
    workdir = Path(root) if root is not None else Path(
        tempfile.mkdtemp(prefix="avm-obs-fleet-"))
    cleanup = root is None
    try:
        return _run_observed(num_machines, duration, seed, snapshot_interval,
                             payload_bytes, sample_stride, trace_path,
                             jsonl_path, workdir)
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


def _run_observed(num_machines: int, duration: float, seed: int,
                  snapshot_interval: float, payload_bytes: int,
                  sample_stride: int, trace_path: Optional[str],
                  jsonl_path: Optional[str], workdir: Path
                  ) -> ObservedFleetResult:
    obs = Observability.make(sample_stride=sample_stride)
    fleet = build_fleet(
        num_machines=num_machines, duration=duration, seed=seed,
        snapshot_interval=snapshot_interval,
        archive=LogArchive(workdir / "archive"),
        client_settings=SqlBenchSettings(
            server="", operations_per_tick=3, tick_interval=0.25,
            rows_per_phase=4, payload_bytes=payload_bytes),
        obs=obs)
    assert fleet.ingest is not None
    for machine in fleet.machines:
        auditor = fleet.make_auditor(machine, collect=False)
        fleet.ingest.prepare_auditor(auditor, machine)
        auditor.audit(fleet.ingest.target_for(machine))

    result = ObservedFleetResult(num_machines=num_machines,
                                 duration=duration,
                                 sample_stride=sample_stride)
    result.verdicts = {str(entry["machine"]): str(entry.get("verdict") or "")
                       for entry in obs.progress.snapshot()}
    span_names = [span.name for span in obs.tracer.spans]
    result.spans_recorded = len(span_names)
    result.layer_coverage = trace_layer_coverage(span_names)

    out_trace = Path(trace_path) if trace_path else workdir / "trace.json"
    out_jsonl = Path(jsonl_path) if jsonl_path else workdir / "spans.jsonl"
    obs.tracer.export_chrome_trace(out_trace)
    obs.tracer.export_jsonl(out_jsonl)
    result.trace_path = str(out_trace)
    result.jsonl_path = str(out_jsonl)
    result.trace_errors = validate_chrome_trace(
        json.loads(out_trace.read_text(encoding="utf-8")))
    result.trace_valid = not result.trace_errors
    result.metrics = obs.metrics.snapshot()
    result.progress = obs.progress.snapshot()
    result.peak_rss_bytes = obs.progress.peak_rss
    return result


@dataclass
class ObsOverheadResult:
    """Telemetry on-vs-off head-to-head on the byte-dense audit workload."""

    duration: float
    payload_bytes: int
    repetitions: int
    entries: int = 0
    chunks: int = 0
    #: best-of-N streaming-audit wall clocks (seconds)
    audit_wall_off: float = 0.0
    audit_wall_on: float = 0.0
    #: single-shot record+drain wall clocks (seconds, flavour only)
    record_wall_off: float = 0.0
    record_wall_on: float = 0.0
    #: telemetry-on audit result structurally identical to telemetry-off
    identical: bool = False
    verdict: str = ""
    spans_recorded: int = 0

    @property
    def audit_overhead(self) -> float:
        """Fractional slowdown of the audit with telemetry on (0.03 = 3%)."""
        if self.audit_wall_off <= 0:
            return 0.0
        return self.audit_wall_on / self.audit_wall_off - 1.0

    @property
    def record_overhead(self) -> float:
        if self.record_wall_off <= 0:
            return 0.0
        return self.record_wall_on / self.record_wall_off - 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "duration": self.duration,
            "payload_bytes": self.payload_bytes,
            "repetitions": self.repetitions,
            "entries": self.entries,
            "chunks": self.chunks,
            "audit_wall_off": self.audit_wall_off,
            "audit_wall_on": self.audit_wall_on,
            "audit_overhead": self.audit_overhead,
            "record_wall_off": self.record_wall_off,
            "record_wall_on": self.record_wall_on,
            "record_overhead": self.record_overhead,
            "identical": self.identical,
            "verdict": self.verdict,
            "spans_recorded": self.spans_recorded,
        }


def run_obs_overhead(duration: float = 50.0, payload_bytes: int = 16000,
                     snapshot_interval: float = 0.5,
                     chunks: Optional[int] = 50, seed: int = 17,
                     repetitions: int = 3,
                     root: Optional[str] = None) -> ObsOverheadResult:
    """Measure the telemetry tax on the streaming-audit bench workload."""
    workdir = Path(root) if root is not None else Path(
        tempfile.mkdtemp(prefix="avm-obs-overhead-"))
    cleanup = root is None
    try:
        return _run_overhead(duration, payload_bytes, snapshot_interval,
                             chunks, seed, repetitions, workdir)
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


def _run_overhead(duration: float, payload_bytes: int,
                  snapshot_interval: float, chunks: Optional[int], seed: int,
                  repetitions: int, workdir: Path) -> ObsOverheadResult:
    result = ObsOverheadResult(duration=duration, payload_bytes=payload_bytes,
                               repetitions=repetitions)
    results: Dict[str, AuditResult] = {}
    runners: Dict[str, object] = {}
    walls: Dict[str, List[float]] = {"off": [], "on": []}
    on_fleet = None

    for mode in ("off", "on"):
        obs = Observability.make() if mode == "on" else None
        archive_dir = workdir / mode / "archive"
        # Message ids are allocated per network instance, so each mode's
        # fresh fleet starts from m0000000001 on its own — no global reset.
        started = time.perf_counter()
        fleet = build_fleet(
            num_machines=2, duration=duration, seed=seed,
            snapshot_interval=snapshot_interval,
            archive=LogArchive(archive_dir),
            client_settings=SqlBenchSettings(
                server="", operations_per_tick=6, tick_interval=0.25,
                rows_per_phase=4, payload_bytes=payload_bytes),
            obs=obs)
        record_wall = time.perf_counter() - started

        # Audit from a fresh archive handle, like the stream bench does.
        archive = LogArchive(archive_dir)
        service = AuditIngestService(archive, obs=fleet.obs)
        machine = next(name for name in archive.machines()
                       if "server" in name)
        target = service.target_for(machine)

        def run_streaming(fleet=fleet, service=service, machine=machine,
                          target=target):
            auditor = fleet.make_auditor(machine, collect=False)
            service.prepare_auditor(auditor, machine)
            return AuditScheduler(chunks_per_machine=chunks).audit_fleet(
                [AuditAssignment(auditor, target)]).machine_reports[machine]

        report = run_streaming()  # warm-up; also the identity sample
        results[mode] = report.result
        runners[mode] = run_streaming
        if mode == "off":
            result.record_wall_off = record_wall
            result.entries = archive.entry_count(machine)
            result.chunks = report.chunk_count
        else:
            result.record_wall_on = record_wall
            on_fleet = fleet

    # Interleave the timed repetitions (off, on, off, on, ...) so slow
    # machine-level drift — allocator growth, frequency scaling, background
    # load — hits both modes equally instead of biasing whichever runs last.
    for _ in range(max(1, repetitions)):
        for mode in ("off", "on"):
            begin = time.perf_counter()
            runners[mode]()
            walls[mode].append(time.perf_counter() - begin)

    result.audit_wall_off = min(walls["off"])
    result.audit_wall_on = min(walls["on"])
    result.spans_recorded = len(on_fleet.obs.tracer.spans)
    result.identical = results["on"] == results["off"]
    result.verdict = results["off"].verdict.value
    return result


def main(argv: Optional[List[str]] = None) -> ObsOverheadResult:
    """Print (or emit as JSON) the observed-fleet and overhead results."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=50.0,
                        help="simulated seconds for the overhead workload")
    parser.add_argument("--fleet-duration", type=float, default=12.0,
                        help="simulated seconds for the observed fleet run")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="audit repetitions per mode (best-of-N)")
    parser.add_argument("--trace-out", default=None,
                        help="write the Chrome trace here (default: temp)")
    parser.add_argument("--json", action="store_true",
                        help="emit both results as JSON instead of tables")
    args = parser.parse_args(argv)

    observed = run_observed_fleet(duration=args.fleet_duration,
                                  trace_path=args.trace_out)
    overhead = run_obs_overhead(duration=args.duration,
                                repetitions=args.repetitions)
    if args.json:
        print(json.dumps({"observed_fleet": observed.to_dict(),
                          "overhead": overhead.to_dict()},
                         indent=2, sort_keys=True))
        return overhead

    print(f"Observed fleet: {observed.num_machines} machines, "
          f"{observed.duration:.0f} s recorded, "
          f"{observed.spans_recorded} spans")
    rows = [
        ("verdicts", ",".join(f"{m}={v}"
                              for m, v in sorted(observed.verdicts.items()))),
        ("layers covered", ",".join(layer for layer, ok
                                    in observed.layer_coverage.items() if ok)),
        ("trace valid", observed.trace_valid),
        ("trace file", observed.trace_path),
        ("peak RSS", f"{observed.peak_rss_bytes / 1e6:.0f} MB"),
    ]
    print(format_table(["metric", "value"], rows))

    print(f"\nTelemetry overhead ({overhead.entries} archived entries, "
          f"best of {overhead.repetitions}):")
    rows = [
        ("audit wall (telemetry off)", f"{overhead.audit_wall_off:.3f} s"),
        ("audit wall (telemetry on)", f"{overhead.audit_wall_on:.3f} s"),
        ("audit overhead", f"{overhead.audit_overhead:+.1%}"),
        ("record wall (off / on)", f"{overhead.record_wall_off:.2f} s / "
                                   f"{overhead.record_wall_on:.2f} s"),
        ("results identical", overhead.identical),
        ("spans recorded", overhead.spans_recorded),
    ]
    print(format_table(["metric", "value"], rows))
    return overhead


if __name__ == "__main__":
    main()
