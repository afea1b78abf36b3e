"""Wire-codec head-to-head: v1 (JSON+bz2) vs v2 (binary) vs v3 (typed+lazy).

Records one byte-dense hosted-database pair (fat row payloads, frequent
snapshots), archives it through the ingest pipeline in ``format_version=1``,
re-encodes the archive to ``format_version=2`` and then on to
``format_version=3`` (exercising both migration hops), and measures the
stages the codec sits on:

* **ship** — :meth:`~repro.log.codec.LogCodec.encode_segment` over every
  archived segment (what a monitor pays per sealed shipment; for v3 this is
  the compressed default, the archive setting);
* **decode** — one-shot :func:`~repro.log.codec.decode_segment` of every
  blob, and the chunked :class:`~repro.log.codec.SegmentStreamDecoder`
  path the streaming audit rides.  The v3 decode path is measured over
  *uncompressed* frames (``TypedCodec(compress=False)``), the hot-path
  setting; its stored bytes are reported for both settings;
* **verify-only** — decode + hash-chain verification + modelled cost
  accounting, with the number of content materializations the pass needed.
  v1/v2 parse every entry's content; v3's lazy entries do zero;
* **audit** — the end-to-end chunk-by-chunk audit (the audit engine at one
  inline worker, :class:`~repro.audit.engine.AuditScheduler`) of the same
  machine from each archive.

Every wall clock is the best of ``repetitions`` runs.  The audits must be
structurally identical across all three formats — same verdict, counters,
replay report and modelled :class:`~repro.audit.verdict.AuditCost` (still
denominated in canonical v1 bytes) — which is the codec API's core
contract: the wire format is invisible above the codec layer.

A ``cProfile`` pass over each format's decode loop is kept in the result
(top functions by cumulative time) so the numbers are explainable: v1 decode
is dominated by bz2 decompression + JSON row parsing, v2 by the per-entry
content parse, v3 by nothing but the struct framing — content is deferred.
"""

from __future__ import annotations

import cProfile
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.audit.engine import (AuditAssignment, AuditScheduler,
                                MachineAuditReport)
from repro.experiments.harness import format_table
from repro.experiments.parallel_audit import build_fleet
from repro.log.codec import (SegmentStreamDecoder, TypedCodec,
                             decode_segment, get_codec)
from repro.log.entries import content_materializations_total
from repro.log.hashchain import ChainCheckpoint, extend_checkpoint_batch
from repro.obs import CodecMetrics, MetricsRegistry, Observability
from repro.service.ingest import AuditIngestService
from repro.store.archive import LogArchive
from repro.workloads.sqlbench import SqlBenchSettings

#: chunk size fed to the streaming decoder (network-ish read granularity)
STREAM_CHUNK_BYTES = 64 * 1024

#: the formats under test, in migration order
FORMAT_VERSIONS = (1, 2, 3)


@dataclass
class FormatPoint:
    """One wire format's measurements over the same recorded log."""

    format_version: int
    stored_bytes: int
    #: v3 only: the same frames without per-frame compression (the decode
    #: benchmark path); ``None`` for formats with a single storage setting
    stored_bytes_uncompressed: Optional[int] = None
    encode_wall: float = 0.0
    decode_wall: float = 0.0
    stream_decode_wall: float = 0.0
    verify_only_wall: float = 0.0
    #: content dicts parsed during one verify-only pass (0 for lazy v3)
    verify_only_materializations: int = 0
    audit_wall: float = 0.0
    #: top decode hotspots, by cumulative time: {function, cumulative_s,
    #: tottime_s, calls}
    decode_profile: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class CodecBenchResult:
    """Everything the codec benchmark measured."""

    duration: float
    payload_bytes: int
    segments: int
    entries: int
    raw_bytes: int
    points: Dict[int, FormatPoint] = field(default_factory=dict)
    #: all streaming audits structurally identical, all PASS
    identical: bool = False
    verdict: str = ""
    #: codec-layer telemetry snapshot (materialization counter + decode
    #: latency histogram) taken after the measurement passes
    metrics: Dict[str, object] = field(default_factory=dict)

    def _ratio(self, attribute: str, slow: int = 1, fast: int = 2) -> float:
        numerator = getattr(self.points[slow], attribute)
        denominator = getattr(self.points[fast], attribute)
        return numerator / denominator if denominator > 0 else 0.0

    @property
    def decode_ratio(self) -> float:
        """One-shot decode speedup of v2 over v1 (>1 means v2 is faster)."""
        return self._ratio("decode_wall")

    @property
    def stream_decode_ratio(self) -> float:
        return self._ratio("stream_decode_wall")

    @property
    def encode_ratio(self) -> float:
        return self._ratio("encode_wall")

    @property
    def e2e_ratio(self) -> float:
        """End-to-end streaming-audit speedup of v2 over v1."""
        return self._ratio("audit_wall")

    @property
    def stored_ratio(self) -> float:
        """v2 stored bytes over v1 stored bytes (the price of no bz2)."""
        v1 = self.points[1].stored_bytes
        return self.points[2].stored_bytes / v1 if v1 > 0 else 0.0

    @property
    def decode_ratio_v3(self) -> float:
        """One-shot decode speedup of v3 over v2 (>1 means v3 is faster)."""
        return self._ratio("decode_wall", slow=2, fast=3)

    @property
    def stream_decode_ratio_v3(self) -> float:
        return self._ratio("stream_decode_wall", slow=2, fast=3)

    @property
    def e2e_ratio_v3(self) -> float:
        """End-to-end streaming-audit speedup of v3 over v2."""
        return self._ratio("audit_wall", slow=2, fast=3)

    @property
    def stored_ratio_v3(self) -> float:
        """v3 stored bytes (compressed default) over v2 stored bytes."""
        v2 = self.points[2].stored_bytes
        return self.points[3].stored_bytes / v2 if v2 > 0 else 0.0

    def entries_per_second(self, format_version: int, attribute: str) -> float:
        wall = getattr(self.points[format_version], attribute)
        return self.entries / wall if wall > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (the ``BENCH_codec.json`` payload)."""
        formats = {}
        for version, point in sorted(self.points.items()):
            row: Dict[str, object] = {
                "stored_bytes": point.stored_bytes,
                "encode_wall_s": round(point.encode_wall, 6),
                "decode_wall_s": round(point.decode_wall, 6),
                "stream_decode_wall_s": round(point.stream_decode_wall, 6),
                "verify_only_wall_s": round(point.verify_only_wall, 6),
                "verify_only_materializations":
                    point.verify_only_materializations,
                "stream_audit_wall_s": round(point.audit_wall, 6),
                "decode_entries_per_s": round(
                    self.entries_per_second(version, "decode_wall"), 1),
                "encode_entries_per_s": round(
                    self.entries_per_second(version, "encode_wall"), 1),
                "decode_top_functions": point.decode_profile,
            }
            if point.stored_bytes_uncompressed is not None:
                row["stored_bytes_uncompressed"] = \
                    point.stored_bytes_uncompressed
            formats[f"v{version}"] = row
        return {
            "benchmark": "bench_codec",
            "workload": {
                "duration_s": self.duration,
                "payload_bytes": self.payload_bytes,
                "segments": self.segments,
                "entries": self.entries,
                "raw_bytes": self.raw_bytes,
            },
            "formats": formats,
            "ratios": {
                "decode": round(self.decode_ratio, 3),
                "stream_decode": round(self.stream_decode_ratio, 3),
                "encode": round(self.encode_ratio, 3),
                "stream_audit_e2e": round(self.e2e_ratio, 3),
                "stored_bytes_v2_over_v1": round(self.stored_ratio, 3),
                "decode_v3_over_v2": round(self.decode_ratio_v3, 3),
                "stream_decode_v3_over_v2": round(
                    self.stream_decode_ratio_v3, 3),
                "stream_audit_e2e_v3_over_v2": round(self.e2e_ratio_v3, 3),
                "stored_bytes_v3_over_v2": round(self.stored_ratio_v3, 3),
            },
            "audits_identical": self.identical,
            "verdict": self.verdict,
            "metrics": self.metrics,
        }


def _best_wall(fn: Callable[[], object], repetitions: int) -> float:
    walls = []
    for _ in range(max(1, repetitions)):
        started = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - started)
    return min(walls)


def _top_functions(profiler: cProfile.Profile,
                   limit: int = 6) -> List[Dict[str, object]]:
    """The profile's top functions by cumulative time, JSON-friendly."""
    rows = []
    entries = sorted(profiler.getstats(),
                     key=lambda row: row.totaltime, reverse=True)
    for row in entries:
        code = row.code
        if isinstance(code, str):
            name = code
        else:
            name = (f"{Path(code.co_filename).name}:"
                    f"{code.co_firstlineno}({code.co_name})")
        rows.append({"function": name,
                     "cumulative_s": round(row.totaltime, 4),
                     "tottime_s": round(row.inlinetime, 4),
                     "calls": row.callcount})
        if len(rows) >= limit:
            break
    return rows


def run_codec_bench(duration: float = 30.0, payload_bytes: int = 16000,
                    snapshot_interval: float = 0.5, seed: int = 17,
                    repetitions: int = 3, chunks: Optional[int] = 20,
                    root: Optional[str] = None) -> CodecBenchResult:
    """Record once, store in all formats, measure ship/decode/verify/audit."""
    workdir = Path(root) if root is not None else Path(
        tempfile.mkdtemp(prefix="avm-codec-bench-"))
    cleanup = root is None
    try:
        return _run(duration, payload_bytes, snapshot_interval, seed,
                    repetitions, chunks, workdir)
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


def _run(duration: float, payload_bytes: int, snapshot_interval: float,
         seed: int, repetitions: int, chunks: Optional[int],
         workdir: Path) -> CodecBenchResult:
    fleet = build_fleet(
        num_machines=2, duration=duration, seed=seed,
        snapshot_interval=snapshot_interval,
        archive=LogArchive(workdir / "v1"),
        client_settings=SqlBenchSettings(
            server="", operations_per_tick=6, tick_interval=0.25,
            rows_per_phase=4, payload_bytes=payload_bytes))
    roots = {1: workdir / "v1", 2: workdir / "v2", 3: workdir / "v3"}
    LogArchive(roots[1]).reencode_segments(roots[2], format_version=2)
    LogArchive(roots[2]).reencode_segments(roots[3], format_version=3)

    archive = LogArchive(roots[1])
    machine = next(name for name in archive.machines() if "server" in name)
    records = archive.segment_records(machine)
    result = CodecBenchResult(
        duration=duration, payload_bytes=payload_bytes,
        segments=len(records),
        entries=archive.entry_count(machine),
        raw_bytes=sum(record.raw_bytes for record in records))

    registry = MetricsRegistry()
    codec_metrics = CodecMetrics(Observability(metrics=registry))

    reports: Dict[int, MachineAuditReport] = {}
    for version in FORMAT_VERSIONS:
        versioned = LogArchive(roots[version])
        stored_blobs = [versioned.stored_bytes_of(record)
                        for record in versioned.segment_records(machine)]
        segments = [decode_segment(blob) for blob in stored_blobs]
        codec = get_codec(version)
        point = FormatPoint(
            format_version=version,
            stored_bytes=sum(len(blob) for blob in stored_blobs))
        if version == 3:
            # The decode benchmark path runs without per-frame compression
            # (the hot-path setting); archives keep compression on, so both
            # stored sizes are reported.
            raw_codec = TypedCodec(compress=False)
            bench_blobs = [raw_codec.encode_segment(segment)
                           for segment in segments]
            point.stored_bytes_uncompressed = sum(
                len(blob) for blob in bench_blobs)
        else:
            bench_blobs = stored_blobs

        def decode_all() -> None:
            for blob in bench_blobs:
                decode_segment(blob)

        def stream_decode_all() -> None:
            for blob in bench_blobs:
                decoder = SegmentStreamDecoder()
                for _ in decoder.entries(
                        blob[offset:offset + STREAM_CHUNK_BYTES]
                        for offset in range(0, len(blob),
                                            STREAM_CHUNK_BYTES)):
                    pass

        def encode_all() -> None:
            for segment in segments:
                codec.encode_segment(segment)

        def verify_only() -> None:
            # Chain verification + raw-byte cost accounting — the audit
            # work that must not require content materialization.
            for blob in bench_blobs:
                segment = decode_segment(blob)
                checkpoint = ChainCheckpoint(
                    sequence=segment.entries[0].sequence - 1,
                    chain_hash=segment.start_hash)
                extend_checkpoint_batch(checkpoint, segment.entries)
                segment.size_bytes()

        service = AuditIngestService(versioned)
        target = service.target_for(machine)

        def run_streaming() -> MachineAuditReport:
            auditor = fleet.make_auditor(machine, collect=False)
            service.prepare_auditor(auditor, machine)
            return AuditScheduler(chunks_per_machine=chunks).audit_fleet(
                [AuditAssignment(auditor, target)]).machine_reports[machine]

        reports[version] = run_streaming()
        point.decode_wall = _best_wall(decode_all, repetitions)
        point.stream_decode_wall = _best_wall(stream_decode_all, repetitions)
        point.encode_wall = _best_wall(encode_all, repetitions)
        codec_metrics.sync_materializations()
        before = content_materializations_total()
        verify_only()
        point.verify_only_materializations = (
            content_materializations_total() - before)
        point.verify_only_wall = _best_wall(verify_only, repetitions)
        point.audit_wall = _best_wall(run_streaming, repetitions)
        codec_metrics.observe_decode(point.decode_wall, result.entries)
        profiler = cProfile.Profile()
        profiler.enable()
        decode_all()
        profiler.disable()
        point.decode_profile = _top_functions(profiler)
        result.points[version] = point

    codec_metrics.sync_materializations()
    result.metrics = registry.snapshot()
    result.verdict = reports[1].result.verdict.value
    result.identical = (
        all(reports[version].result == reports[1].result
            for version in FORMAT_VERSIONS)
        and reports[1].result.verdict.value == "pass")
    return result


def main(duration: float = 30.0, payload_bytes: int = 16000,
         as_json: bool = False) -> CodecBenchResult:
    """Print the codec head-to-head table (or the full JSON payload)."""
    result = run_codec_bench(duration=duration, payload_bytes=payload_bytes)
    if as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return result
    print(f"Wire codec head-to-head: {result.segments}-segment archived run, "
          f"{result.entries} entries, {result.raw_bytes / 1e6:.1f} MB raw\n")
    rows = []
    for version in FORMAT_VERSIONS:
        point = result.points[version]
        rows.append((
            f"v{version}",
            f"{point.stored_bytes:,}",
            f"{result.entries_per_second(version, 'encode_wall'):,.0f}",
            f"{result.entries_per_second(version, 'decode_wall'):,.0f}",
            f"{result.entries_per_second(version, 'stream_decode_wall'):,.0f}",
            f"{point.verify_only_materializations:,}",
            f"{point.audit_wall:.3f} s"))
    print(format_table(
        ["format", "stored bytes", "encode e/s", "decode e/s",
         "stream e/s", "verify parses", "stream audit"], rows))
    uncompressed = result.points[3].stored_bytes_uncompressed
    print(f"\nv3 stored bytes without per-frame compression: "
          f"{uncompressed:,} (archives default to compressed)")
    print(f"v2 speedup over v1: decode {result.decode_ratio:.2f}x, streaming "
          f"decode {result.stream_decode_ratio:.2f}x, encode "
          f"{result.encode_ratio:.2f}x, end-to-end streaming audit "
          f"{result.e2e_ratio:.2f}x")
    print(f"v3 speedup over v2: decode {result.decode_ratio_v3:.2f}x, "
          f"streaming decode {result.stream_decode_ratio_v3:.2f}x, "
          f"end-to-end streaming audit {result.e2e_ratio_v3:.2f}x")
    print(f"stored-size cost: v2 is {result.stored_ratio:.2f}x v1 bytes, "
          f"v3 is {result.stored_ratio_v3:.2f}x v2 bytes")
    print(f"audits identical across formats: {result.identical}")
    for version in FORMAT_VERSIONS:
        print(f"\nv{version} decode hotspots (cProfile, cumulative):")
        for row in result.points[version].decode_profile:
            print(f"  {row['cumulative_s']:8.3f} s  {row['calls']:>8} calls  "
                  f"{row['function']}")
    return result


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(
        description="Wire-codec head-to-head benchmark (v1/v2/v3)")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="recorded workload duration in simulated seconds")
    parser.add_argument("--payload-bytes", type=int, default=16000,
                        help="sqlbench payload size per row")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full result as JSON instead of a table")
    arguments = parser.parse_args()
    main(duration=arguments.duration, payload_bytes=arguments.payload_bytes,
         as_json=arguments.as_json)
