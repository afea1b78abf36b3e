"""The streamed size meter of the v1 codec — a test reference.

Section 6.4 reports log sizes *after applying bzip2 and a lossless,
VMM-specific (but application-independent) compression algorithm*; both
stages are the ``format_version=1`` wire codec
(:class:`~repro.log.codec.JsonBz2Codec`).  The meter below computes that
codec's output size one entry at a time; ``test_stream_properties.py`` checks
the one-shot encoder against it.
"""

from __future__ import annotations

import bz2

from repro.log.codec import (
    JsonBz2Codec,
    _dump_compact,
    _encode_v1_header,
    _RowCodec,
)
from repro.log.entries import LogEntry


class IncrementalCompressionMeter:
    """Byte-exact ``len(JsonBz2Codec().encode_segment(segment))``, streamed.

    Reproduces the exact byte count of the one-shot v1 compressor while
    seeing one entry at a time: it re-emits the compact key-sorted JSON the
    whole-blob encoder would produce (``json.dumps(..., sort_keys=True)``
    serialises nested dicts identically whether dumped together or row by
    row) and pipes it through an incremental :class:`bz2.BZ2Compressor`,
    which by construction yields the same stream as one-shot
    :func:`bz2.compress`.  Memory stays O(1): the bz2 state plus one encoded
    row.
    """

    def __init__(self, machine: str, start_hash: bytes, level: int = 9) -> None:
        self._compressor = bz2.BZ2Compressor(level)
        self._count = len(JsonBz2Codec.MAGIC)
        self._codec = _RowCodec(start_hash)
        self._first_row = True
        self.raw_bytes = 0
        header = _dump_compact(_encode_v1_header(machine, start_hash))
        self._feed(b'{"header":' + header + b',"rows":[')

    def _feed(self, data: bytes) -> None:
        self._count += len(self._compressor.compress(data))

    def add(self, entry: LogEntry) -> None:
        """Account one entry (entries must arrive in log order)."""
        row = _dump_compact(self._codec.encode_row(entry))
        self._feed(row if self._first_row else b"," + row)
        self._first_row = False
        self.raw_bytes += entry.size_bytes()

    def finish(self) -> int:
        """Close the stream; return the total compressed byte count."""
        self._feed(b"]}")
        self._count += len(self._compressor.flush())
        return self._count
