"""Streaming vs materializing audit: memory and throughput head-to-head.

Records a hosted-database pair with deliberately *byte-dense* logs (fat row
payloads grow raw log bytes without growing entry counts, i.e. without
growing recording cost), archives the run through the ingest pipeline, then
audits the server's archived log twice:

* **materializing** — the pre-streaming path: every archived entry is
  inflated into one in-memory segment before any check runs, so peak memory
  grows with log length;
* **streaming** — the audit engine at one inline worker
  (:class:`~repro.audit.engine.AuditScheduler`): decode, chain-verify,
  batched signature checks and replay, one archived chunk at a time.

Both paths are timed (best of ``repetitions``) and measured with
``tracemalloc``; the results must be *structurally identical*.  Neither
path runs a compressor (the modelled compressed download size is priced by
whoever reports it, not by the audit), so the raw peak ratio is the whole
story.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.audit.engine import (AuditAssignment, AuditScheduler,
                                MachineAuditReport)
from repro.audit.verdict import AuditResult
from repro.experiments.harness import format_table
from repro.experiments.parallel_audit import build_fleet
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.workloads.sqlbench import SqlBenchSettings


@dataclass
class StreamAuditBenchResult:
    """Everything the streaming-audit benchmark measured."""

    duration: float
    payload_bytes: int
    segments: int
    entries: int
    raw_bytes: int
    chunks: int
    peak_chunk_entries: int
    #: measured tracemalloc peaks (bytes)
    materializing_peak: int = 0
    streaming_peak: int = 0
    #: best-of-N wall clocks (seconds)
    materializing_wall: float = 0.0
    streaming_wall: float = 0.0
    #: streamed result structurally identical to the materializing one
    identical: bool = False

    @property
    def peak_ratio(self) -> float:
        """Materializing peak over streaming peak (raw tracemalloc)."""
        return self.materializing_peak / max(1, self.streaming_peak)

    @property
    def throughput_ratio(self) -> float:
        """Streaming throughput relative to materializing (1.0 = parity)."""
        if self.streaming_wall <= 0:
            return 0.0
        return self.materializing_wall / self.streaming_wall

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view including the derived ratios (``--json`` mode)."""
        payload = asdict(self)
        payload["peak_ratio"] = self.peak_ratio
        payload["throughput_ratio"] = self.throughput_ratio
        return payload


def run_stream_audit_bench(duration: float = 50.0,
                           payload_bytes: int = 16000,
                           snapshot_interval: float = 0.5,
                           chunks: Optional[int] = 50,
                           seed: int = 17,
                           repetitions: int = 2,
                           root: Optional[str] = None
                           ) -> StreamAuditBenchResult:
    """Record, archive, and audit one machine on both paths."""
    workdir = Path(root) if root is not None else Path(
        tempfile.mkdtemp(prefix="avm-stream-bench-"))
    cleanup = root is None
    try:
        return _run(duration, payload_bytes, snapshot_interval, chunks, seed,
                    repetitions, workdir)
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


def _run(duration: float, payload_bytes: int, snapshot_interval: float,
         chunks: Optional[int], seed: int, repetitions: int,
         workdir: Path) -> StreamAuditBenchResult:
    fleet = build_fleet(
        num_machines=2, duration=duration, seed=seed,
        snapshot_interval=snapshot_interval,
        archive=LogArchive(workdir / "archive"),
        client_settings=SqlBenchSettings(
            server="", operations_per_tick=6, tick_interval=0.25,
            rows_per_phase=4, payload_bytes=payload_bytes))
    archive = LogArchive(workdir / "archive")
    service = AuditIngestService(archive)
    machine = next(name for name in archive.machines() if "server" in name)
    records = archive.segment_records(machine)

    def prepared_auditor():
        auditor = fleet.make_auditor(machine, collect=False)
        service.prepare_auditor(auditor, machine)
        return auditor

    target = service.target_for(machine)

    def run_materializing() -> AuditResult:
        return prepared_auditor().audit_whole_log(target)

    def run_streaming() -> MachineAuditReport:
        return AuditScheduler(chunks_per_machine=chunks).audit_fleet(
            [AuditAssignment(prepared_auditor(), target)]
        ).machine_reports[machine]

    def best_wall(fn) -> float:
        walls = []
        for _ in range(max(1, repetitions)):
            started = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - started)
        return min(walls)

    def traced_peak(fn) -> int:
        gc.collect()
        tracemalloc.start()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    materialized = run_materializing()
    streamed = run_streaming()
    result = StreamAuditBenchResult(
        duration=duration, payload_bytes=payload_bytes,
        segments=len(records),
        entries=archive.entry_count(machine),
        raw_bytes=sum(record.raw_bytes for record in records),
        chunks=streamed.chunk_count,
        peak_chunk_entries=streamed.peak_chunk_entries,
        identical=(streamed.result == materialized),
    )
    # Wall clocks first (tracemalloc slows allocation-heavy code), then peaks.
    result.streaming_wall = best_wall(run_streaming)
    result.materializing_wall = best_wall(run_materializing)
    result.streaming_peak = traced_peak(run_streaming)
    result.materializing_peak = traced_peak(run_materializing)
    return result


def main(duration: float = 50.0, payload_bytes: int = 16000,
         argv: Optional[List[str]] = None) -> StreamAuditBenchResult:
    """Print the streaming-vs-materializing audit comparison."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=duration,
                        help="simulated seconds recorded before auditing")
    parser.add_argument("--payload-bytes", type=int, default=payload_bytes,
                        help="sql-bench row payload size (byte-dense logs)")
    parser.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of a table")
    args = parser.parse_args(argv)

    result = run_stream_audit_bench(duration=args.duration,
                                    payload_bytes=args.payload_bytes)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return result
    print(f"Streaming bounded-memory audit: {result.segments}-segment archived "
          f"run, {result.raw_bytes / 1e6:.1f} MB raw\n")
    rows = [
        ("archived entries", result.entries),
        ("raw log bytes", f"{result.raw_bytes:,}"),
        ("chunks streamed", result.chunks),
        ("peak entries resident", result.peak_chunk_entries),
        ("materializing peak", f"{result.materializing_peak:,} B"),
        ("streaming peak", f"{result.streaming_peak:,} B"),
        ("peak ratio", f"{result.peak_ratio:.1f}x"),
        ("materializing wall", f"{result.materializing_wall:.2f} s"),
        ("streaming wall", f"{result.streaming_wall:.2f} s"),
        ("streaming throughput", f"{result.throughput_ratio:.2f}x"),
        ("results identical", result.identical),
    ]
    print(format_table(["metric", "value"], rows))
    return result


if __name__ == "__main__":
    main()
