"""Streaming bounded-memory audit vs the materializing path.

Audits one machine's archived log both ways (see
:mod:`repro.experiments.stream_audit`) and asserts the audit engine's
contract at one inline worker: structurally identical results, >= 5x lower peak traced memory
(neither path runs a compressor, so the raw tracemalloc ratio is the
figure), and throughput within 0.9x of the materializing path.
"""

from _bench_utils import duration_or, scaled, smoke_mode

from repro.experiments import stream_audit


def test_stream_audit_bounded_memory(benchmark, repro_duration):
    duration = duration_or(50.0, repro_duration, smoke=16.0)
    # Full scale batches ~4 segments per chunk (fewer boundary-snapshot
    # fetches); the tiny smoke log streams segment by segment so the chunk
    # bound stays meaningfully below the materialized log.
    chunks = scaled(max(10, int(duration // 2)), 2 * int(duration))
    result = benchmark.pedantic(
        stream_audit.run_stream_audit_bench,
        kwargs={"duration": duration, "payload_bytes": 16000,
                "snapshot_interval": 0.5, "chunks": chunks},
        rounds=1, iterations=1)
    print()
    print(f"archived: {result.segments} segments, {result.entries} entries, "
          f"{result.raw_bytes:,} B raw; streamed as {result.chunks} chunks "
          f"(peak {result.peak_chunk_entries} entries resident)")
    print(f"peak traced memory: materializing {result.materializing_peak:,} B "
          f"vs streaming {result.streaming_peak:,} B "
          f"({result.peak_ratio:.1f}x)")
    print(f"wall: materializing {result.materializing_wall:.2f} s vs "
          f"streaming {result.streaming_wall:.2f} s "
          f"({result.throughput_ratio:.2f}x throughput)")

    # The streamed audit is the materializing audit, structurally — verdict,
    # counters, replay report and modelled costs.
    assert result.identical
    # Bounded memory: the tracemalloc peak drops >= 5x on a long archived
    # run; the smoke log is too short for its O(log) terms to reach that.
    assert result.peak_ratio >= scaled(5.0, 3.5)
    # Streaming must not cost meaningful throughput (>= 0.9x).
    assert result.throughput_ratio >= (0.9 if not smoke_mode() else 0.8)
    # The pipeline really chunked (memory bound is meaningful).
    assert result.chunks >= 8
    assert result.peak_chunk_entries < result.entries
