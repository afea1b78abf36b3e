"""Versioned log codecs: the wire formats of the record/ship/audit hot path.

Every byte of tamper-evident log that crosses a machine boundary — shipped to
the archive service, stored in a segment file, or streamed to an auditor —
goes through a :class:`LogCodec`.  A codec owns one *wire format*, named by an
integer ``format_version`` and an 8-byte magic, and provides two layers of
API:

* **segment level** — :meth:`~LogCodec.encode_segment` / :meth:`~LogCodec.
  decode_segment` handle a whole :class:`~repro.log.segments.LogSegment`
  (header + rows or frames);
* **streaming** — :meth:`~LogCodec.stream_decoder` returns an incremental
  decoder that yields entries as byte chunks arrive, in O(chunk) memory.

Rows and frames are private to each format: what one of them leaves out
follows from the one before it (v1 delta counters and dense sequence
numbers, and in v1 and v3 the hash chain itself — ``h`` / ``p`` are written
only at *chain breaks*, where they differ from what the reader recomputes),
so a row means nothing outside its segment.

Three formats are registered:

* ``format_version=1`` (:class:`JsonBz2Codec`, magic ``AVMLOGZ1``) — the
  original VMM-specific JSON pre-pass + bzip2 pipeline.  Byte-for-byte
  compatible with every archive written before this module existed.
* ``format_version=2`` (:class:`BinaryCodec`, magic ``AVMLOGB2``) — a
  little-endian struct-packed binary format with length-prefixed frames and
  ``memoryview``-based zero-copy decode.  No compression stage: the decode
  hot path is a ``struct.unpack_from`` plus one parse of the verbatim
  canonical content bytes, and the chain hash is verified over those exact
  bytes, so a frame that passes chain verification is authentic by
  collision resistance.
* ``format_version=3`` (:class:`TypedCodec`, magic ``AVMLOGT3``) — the v2
  frame layout with two changes: decode is *lazy* (the frame's verbatim
  canonical content bytes — typed-tagged since the typed content codec in
  :mod:`repro.log.entries` — seed the entry without being parsed, deferring
  materialization to first ``content`` access), and the header carries a
  flags byte enabling optional per-frame ``zlib`` level-1 compression (on
  by default for archives, off for latency-critical decode paths) and —
  flag bit 1, what this writer always sets — frames without the chain.

The registry (:func:`get_codec`, :func:`codec_for_data`) keys codecs by
``format_version`` and sniffs stored blobs by magic; every
"unsupported format version" error in the repo routes through
:func:`require_format_version` so callers always see one well-typed
:class:`~repro.errors.LogFormatError`.

The module also owns the audit cost model's canonical compressed-log size
(:func:`modelled_compressed_log_bytes`): the sum, over the snapshot-delimited
sub-segments of the audited range, of the v1-compressed size of each
sub-segment.  It is a pure function of the entries — independent of wire
format, chunking, and shipment history.  Computing it runs bzip2 over the
whole log, so no audit, ingest or migration path calls it: whoever *reports*
the number (the spot checker, the Section 6.6 and Figure 9 experiments)
calls it on the segment it audited.
"""

from __future__ import annotations

import bz2
import codecs
import json
import struct
import zlib
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Type,
    Union,
)

from repro.crypto import hashing
from repro.errors import LogFormatError
from repro.log.entries import (
    EntryType,
    LogEntry,
    count_materialization,
    decode_content,
    encode_content,
    lazy_entry,
    seed_encoded_content,
)
from repro.log.hashchain import entry_link_hash
from repro.log.segments import LogSegment

__all__ = [
    "LogCodec",
    "JsonBz2Codec",
    "BinaryCodec",
    "TypedCodec",
    "SegmentStreamDecoder",
    "MAGIC_LENGTH",
    "register_codec",
    "get_codec",
    "codec_for_data",
    "sniff_format_version",
    "supported_format_versions",
    "require_format_version",
    "encode_segment",
    "decode_segment",
    "iter_snapshot_subsegments",
    "modelled_compressed_log_bytes",
]

#: every codec magic is exactly this long, so sniffing needs 8 bytes
MAGIC_LENGTH = 8
#: a bound, not an option: what one compressed unit (a v1 segment's bzip2
#: body, a v2 / v3 frame) may inflate to — before any chain check has run
MAX_INFLATED_BYTES = 256 << 20


def _bounded(inflated: bytes, so_far: int = 0) -> bytes:
    if max(len(inflated), so_far) > MAX_INFLATED_BYTES:
        raise LogFormatError(
            f"compressed log data inflates past {MAX_INFLATED_BYTES} bytes")
    return inflated


# ---------------------------------------------------------------------------
# The interface and the registry
# ---------------------------------------------------------------------------

class LogCodec:
    """One wire format for tamper-evident log segments.

    Codec instances are cheap and carry no per-segment state: every
    :meth:`encode_segment` / :meth:`decode_segment` call and every stream
    decoder starts its own delta and chain state from the segment header.
    """

    #: integer wire-format version (the registry key)
    format_version: ClassVar[int]
    #: 8-byte magic prefix of every stored/shipped blob in this format
    MAGIC: ClassVar[bytes]

    # -- segment level -------------------------------------------------------

    def encode_segment(self, segment: LogSegment) -> bytes:
        """Serialise a whole segment (magic + header + frames)."""
        raise NotImplementedError

    def decode_segment(self, data: Union[bytes, memoryview]) -> LogSegment:
        """Inverse of :meth:`encode_segment`."""
        raise NotImplementedError

    def writes_layout_of(self, data: Union[bytes, memoryview]) -> bool:
        """Whether ``data`` — a blob some codec already decoded — is laid out
        as this instance's :meth:`encode_segment` lays segments out (same
        format, same framing options), so it can be stored as it arrived."""
        return bytes(data[:MAGIC_LENGTH]) == self.MAGIC

    # -- streaming -----------------------------------------------------------

    def stream_decoder(self) -> "_StreamDecoderBase":
        """A fresh incremental decoder for this format."""
        raise NotImplementedError


_REGISTRY: Dict[int, Type[LogCodec]] = {}


def register_codec(codec_class: Type[LogCodec]) -> Type[LogCodec]:
    """Register a codec class under its ``format_version`` (also a decorator)."""
    version = codec_class.format_version
    if len(codec_class.MAGIC) != MAGIC_LENGTH:
        raise ValueError(
            f"codec magic must be {MAGIC_LENGTH} bytes, "
            f"got {codec_class.MAGIC!r}")
    _REGISTRY[version] = codec_class
    return codec_class


def supported_format_versions() -> List[int]:
    """The registered wire-format versions, ascending."""
    return sorted(_REGISTRY)


def require_format_version(value, *, what: str = "log",
                           supported: Optional[Iterable[int]] = None) -> int:
    """Validate a ``format_version`` field; the repo's single version check.

    ``supported`` defaults to the codec registry; callers with their own
    version space (the JSON-lines debug format, the archive manifest) pass
    theirs explicitly.  Raises :class:`LogFormatError` — one well-typed
    error class for every unsupported-version failure, whatever the call
    site.
    """
    versions = sorted(supported) if supported is not None else \
        supported_format_versions()
    if value not in versions:
        raise LogFormatError(
            f"unsupported {what} format version {value!r} "
            f"(supported: {', '.join(str(v) for v in versions)})")
    return int(value)


def get_codec(format_version: int) -> LogCodec:
    """A codec instance for ``format_version``; raises
    :class:`LogFormatError` for unknown versions."""
    require_format_version(format_version, what="log codec")
    return _REGISTRY[format_version]()


def sniff_format_version(data: Union[bytes, memoryview]) -> int:
    """Identify a stored/shipped blob's format by its magic."""
    prefix = bytes(data[:MAGIC_LENGTH])
    for version, codec_class in _REGISTRY.items():
        if prefix == codec_class.MAGIC:
            return version
    raise LogFormatError("not a log segment blob (unrecognised codec magic)")


def codec_for_data(data: Union[bytes, memoryview]) -> LogCodec:
    """A fresh codec matching a blob's magic."""
    return get_codec(sniff_format_version(data))


def encode_segment(segment: LogSegment, format_version: int = 1) -> bytes:
    """Serialise a segment in the requested wire format."""
    return get_codec(format_version).encode_segment(segment)


def decode_segment(data: Union[bytes, memoryview]) -> LogSegment:
    """Deserialise a segment blob, sniffing its format by magic."""
    return codec_for_data(data).decode_segment(data)


class _StreamDecoderBase:
    """Protocol of the per-format incremental decoders.

    ``header`` (a ``{"machine", "start_hash"}`` dict, hex-encoded hash) is
    populated before the first entry is yielded; ``entry_count`` counts the
    entries yielded so far.
    """

    def __init__(self) -> None:
        self.header: Optional[Dict] = None
        self.entry_count = 0

    def entries(self, chunks: Iterable[bytes]) -> Iterator[LogEntry]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# format_version=1 — the VMM-specific JSON pre-pass + bzip2 pipeline
# ---------------------------------------------------------------------------
#
# One entry <-> one compact JSON row.  The row codec carries what a row leaves
# out (execution-counter delta, dense sequence number, the hash chain) from
# row to row, so the whole-segment decoder and the streaming decoder consume
# *identical* rows: the streaming path is byte-exact with the materializing
# one by construction.

def _encode_v1_header(machine: str, start_hash: bytes) -> Dict:
    return {"machine": machine, "start_hash": start_hash.hex()}


def _dump_compact(value) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class _RowCodec:
    """Stateful row encoder *or* decoder for one segment, rows in order."""

    def __init__(self, start_hash: bytes) -> None:
        self._counter = 0
        self._sequence: Optional[int] = None
        self._chain = start_hash  # chain hash of the row before

    @classmethod
    def for_header(cls, header: Dict) -> "_RowCodec":
        try:
            return cls(bytes.fromhex(header["start_hash"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise LogFormatError(f"corrupt VMM-encoded log: {exc}") from exc

    def encode_row(self, entry: LogEntry) -> Dict:
        row: Dict = {"t": entry.entry_type.wire_name}
        # Sequence numbers are dense; store only breaks in density.
        if not (self._sequence is not None
                and entry.sequence == self._sequence + 1):
            row["s"] = entry.sequence
        self._sequence = entry.sequence
        # Timestamps are bookkeeping only; store them verbatim so the
        # round-trip is bit-exact (they still compress well under bzip2).
        if entry.timestamp:
            row["ts"] = entry.timestamp
        content = dict(entry.content)
        # Execution counters in replay entries are monotone; delta-encode.
        counter = content.get("execution_counter")
        if type(counter) is int:
            row["dc"] = counter - self._counter
            self._counter = counter
            content.pop("execution_counter")
        row["c"] = content
        # The chain follows from the rows; store only its breaks.  Every
        # reader recomputes it anyway and pins it to signed authenticators,
        # and 64 random bytes per row are what bzip2 cannot shrink.  A
        # tampered log keeps its wrong hashes, exactly where they are wrong.
        if entry.previous_hash != self._chain:
            row["p"] = entry.previous_hash.hex()
        if entry.chain_hash != entry_link_hash(
                entry.previous_hash, entry.sequence, entry.entry_type,
                entry.canonical_content_hash()):
            row["h"] = entry.chain_hash.hex()
        self._chain = entry.chain_hash
        return row

    def decode_row(self, row: Dict) -> LogEntry:
        try:
            if "s" in row:
                sequence = row["s"]
            else:
                sequence = (self._sequence + 1
                            if self._sequence is not None else 1)
            self._sequence = sequence
            content = dict(row["c"])
            if "dc" in row:
                self._counter += row["dc"]
                content["execution_counter"] = self._counter
            count_materialization()
            entry_type = EntryType(row["t"])
            previous = bytes.fromhex(row["p"]) if "p" in row else self._chain
            encoded = content_hash = None
            if "h" in row:
                self._chain = bytes.fromhex(row["h"])
            else:
                encoded = encode_content(content)
                content_hash = hashing.hash_bytes(encoded)
                self._chain = entry_link_hash(previous, sequence, entry_type,
                                              content_hash)
            entry = LogEntry(sequence=sequence, entry_type=entry_type,
                             content=content, chain_hash=self._chain,
                             previous_hash=previous,
                             timestamp=float(row.get("ts", 0.0)))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise LogFormatError(f"corrupt v1 log row: {exc}") from exc
        if encoded is not None:
            seed_encoded_content(entry, encoded, content_hash, canonical=True)
        return entry


@register_codec
class JsonBz2Codec(LogCodec):
    """``format_version=1``: delta/dictionary JSON pre-pass + bzip2."""

    format_version = 1
    MAGIC = b"AVMLOGZ1"

    @staticmethod
    def prepass(segment: LogSegment) -> bytes:
        """The VMM-specific pre-pass: what bzip2 is then run over."""
        rows = _RowCodec(segment.start_hash)
        return _dump_compact({
            "header": _encode_v1_header(segment.machine, segment.start_hash),
            "rows": [rows.encode_row(entry) for entry in segment.entries]})

    def encode_segment(self, segment: LogSegment) -> bytes:
        return self.MAGIC + bz2.compress(self.prepass(segment), 9)

    def decode_segment(self, data: Union[bytes, memoryview]) -> LogSegment:
        data = bytes(data)
        if not data.startswith(self.MAGIC):
            raise LogFormatError("not a VMM-compressed log (bad magic)")
        decompressor = bz2.BZ2Decompressor()
        try:
            encoded = _bounded(decompressor.decompress(
                data[len(self.MAGIC):], MAX_INFLATED_BYTES + 1))
            blob = json.loads(encoded.decode("utf-8"))
        except (OSError, ValueError) as exc:  # incl. JSON / UTF-8 decode errors
            raise LogFormatError(f"corrupt VMM-encoded log: {exc}") from exc
        # Strict — one bzip2 stream, nothing after it, the encoder's own
        # compact key-sorted layout: the archive stores accepted shipments
        # byte for byte and the streaming decoder requires exactly this.
        if not decompressor.eof or decompressor.unused_data \
                or not (isinstance(blob, dict) and blob.keys() == {"header", "rows"}) \
                or _dump_compact(blob) != encoded:
            raise LogFormatError(
                "corrupt VMM-encoded log: not one canonical bzip2-JSON stream")
        try:
            header = blob["header"]
            rows = _RowCodec.for_header(header)
            return LogSegment(machine=str(header["machine"]),
                              start_hash=bytes.fromhex(header["start_hash"]),
                              entries=[rows.decode_row(row)
                                       for row in blob["rows"]])
        except (KeyError, TypeError) as exc:
            raise LogFormatError(f"corrupt VMM-encoded log: {exc}") from exc

    def stream_decoder(self) -> "_JsonStreamDecoder":
        return _JsonStreamDecoder()


class _JsonStreamDecoder(_StreamDecoderBase):
    """Incrementally decode a v1 (VMM-compressed) segment from a byte stream.

    Feeds the bzip2 stream through :class:`bz2.BZ2Decompressor` chunk by
    chunk and scans the decompressed text with a small string-and-depth-aware
    state machine, yielding one :class:`~repro.log.entries.LogEntry` at a
    time; at no point is more than one compressed chunk plus one row held.
    The strict layout produced by the compact, key-sorted encoder
    (``{"header":{...},"rows":[...]}``) is *required*; anything else raises
    :class:`LogFormatError`, exactly like the materializing decoder would.
    """

    def entries(self, chunks: Iterable[bytes]) -> Iterator[LogEntry]:
        chunk_iter = iter(chunks)
        rows: Optional[_RowCodec] = None
        magic_buffer = b""
        magic = JsonBz2Codec.MAGIC
        while len(magic_buffer) < len(magic):
            piece = next(chunk_iter, None)
            if piece is None:
                break
            magic_buffer += piece
        if not magic_buffer.startswith(magic):
            raise LogFormatError("not a VMM-compressed log (bad magic)")

        decompressor = bz2.BZ2Decompressor()
        utf8 = codecs.getincrementaldecoder("utf-8")()
        scanner = _BlobScanner()

        inflated = 0

        def feed(compressed: bytes) -> Iterator[LogEntry]:
            nonlocal rows, inflated
            # A piece at a time, so that a chunk that inflates a thousandfold
            # is held a piece at a time too — and refused past the bound.
            while compressed or not (decompressor.needs_input
                                     or decompressor.eof):
                piece = decompressor.decompress(compressed, 1 << 20)
                compressed = b""
                inflated += len(piece)
                _bounded(piece, inflated)
                for row in scanner.feed(utf8.decode(piece)):
                    # The header precedes the first row in the encoded blob,
                    # so it is available before (not merely after) any entry
                    # is yielded — callers validate metadata up front, and
                    # the chain starts from its ``start_hash``.
                    if rows is None:
                        self.header = scanner.header
                        rows = _RowCodec.for_header(self.header)
                    self.entry_count += 1
                    yield rows.decode_row(row)
            if self.header is None and scanner.header is not None:
                self.header = scanner.header

        yield from feed(magic_buffer[len(magic):])
        for piece in chunk_iter:
            yield from feed(piece)
        utf8.decode(b"", final=True)
        if not decompressor.eof:
            raise LogFormatError(
                "truncated VMM-compressed log (bzip2 stream did not end)")
        scanner.finish()
        if self.header is None:
            self.header = scanner.header


class _BlobScanner:
    """State machine over ``{"header":H,"rows":[R,R,...]}`` text.

    Consumes arbitrarily split text fragments and emits each complete row as
    a parsed dict.  Values are extracted with
    :meth:`json.JSONDecoder.raw_decode` (a C-level scan, so streaming decode
    keeps one-shot parsing speed); a decode error is indistinguishable from
    a value split across fragments, so errors are held until the stream ends
    — a malformed blob therefore raises :class:`LogFormatError` at
    :meth:`finish`, like the one-shot decoder raises on its single parse.
    """

    _HEADER_PREFIX = '{"header":'
    _ROWS_PREFIX = ',"rows":['

    def __init__(self) -> None:
        self.header: Optional[Dict] = None
        self._decoder = json.JSONDecoder()
        self._buffer = ""
        self._state = "prefix"  # prefix -> header -> rows_prefix -> rows
        #                          -> rows_separator -> suffix -> done

    def feed(self, text: str) -> Iterator[Dict]:
        self._buffer += text
        while True:
            if self._state == "prefix":
                if not self._advance_literal(self._HEADER_PREFIX):
                    return
                self._state = "header"
            elif self._state == "header":
                value = self._extract_value()
                if value is None:
                    return
                self.header = self._as_dict(value, "header")
                self._state = "rows_prefix"
            elif self._state == "rows_prefix":
                if not self._advance_literal(self._ROWS_PREFIX):
                    return
                self._state = "rows"
            elif self._state == "rows":
                if not self._buffer:
                    return
                if self._buffer[0] == "]":
                    self._buffer = self._buffer[1:]
                    self._state = "suffix"
                    continue
                value = self._extract_value()
                if value is None:
                    return
                yield self._as_dict(value, "row")
                self._state = "rows_separator"
            elif self._state == "rows_separator":
                if not self._buffer:
                    return
                head = self._buffer[0]
                self._buffer = self._buffer[1:]
                if head == ",":
                    self._state = "rows"
                elif head == "]":
                    self._state = "suffix"
                else:
                    raise LogFormatError(
                        f"corrupt VMM-encoded log: expected ',' or ']', "
                        f"found {head!r}")
            elif self._state == "suffix":
                if not self._buffer:
                    return
                if self._buffer[0] != "}":
                    raise LogFormatError(
                        "corrupt VMM-encoded log: trailing data after rows")
                self._buffer = self._buffer[1:]
                self._state = "done"
            else:  # done
                if self._buffer.strip():
                    raise LogFormatError(
                        "corrupt VMM-encoded log: data after the closing brace")
                self._buffer = ""
                return

    def finish(self) -> None:
        if self._state != "done" or self._buffer.strip():
            raise LogFormatError(
                "corrupt VMM-encoded log: stream ended mid-structure")

    def _advance_literal(self, literal: str) -> bool:
        if len(self._buffer) < len(literal):
            if not literal.startswith(self._buffer):
                raise LogFormatError(
                    f"corrupt VMM-encoded log: expected {literal!r}")
            return False
        if not self._buffer.startswith(literal):
            raise LogFormatError(
                f"corrupt VMM-encoded log: expected {literal!r}")
        self._buffer = self._buffer[len(literal):]
        return True

    def _extract_value(self):
        """Pop one complete JSON value off the buffer, or ``None`` for more.

        ``None`` also covers a malformed value — the distinction between
        "split across fragments" and "corrupt" is only decidable at stream
        end, where :meth:`finish` raises.
        """
        if not self._buffer:
            return None
        try:
            value, end = self._decoder.raw_decode(self._buffer)
        except json.JSONDecodeError:
            return None
        self._buffer = self._buffer[end:]
        return value

    @staticmethod
    def _as_dict(value, what: str) -> Dict:
        if not isinstance(value, dict):
            raise LogFormatError(
                f"corrupt VMM-encoded log: {what} is not an object")
        return value


# ---------------------------------------------------------------------------
# format_version=2 and 3 — struct-packed binary, length-prefixed frames
# ---------------------------------------------------------------------------
#
# Layout (all integers little-endian, documented field by field in
# docs/log-format.md):
#
#   magic     8s   b"AVMLOGB2" / b"AVMLOGT3"
#   header    <HH  format_version, machine_len
#             machine_len bytes of UTF-8 machine name
#             32s  start_hash
#             <B   flags — v3 only (bit 0: frames are zlib level-1
#                  compressed; bit 1: frames leave the chain out)
#             <I   entry_count
#   frame*    <I   stored_len, then stored_len stored bytes — the entry
#             payload verbatim, or (v3, flag bit 0) its zlib level-1 deflate
#   payload   explicit (v2; v3 without flag bit 1):
#               <QBd32s32sI  sequence, entry-type tag, timestamp, chain_hash,
#                            previous_hash, content_len
#             chain left out (v3 with flag bit 1 — what the writer writes):
#               <QBdI        sequence, entry-type tag | presence bits,
#                            timestamp, content_len
#               32s          chain_hash, only if tag bit 7 is set
#               32s          previous_hash, only if tag bit 6 is set
#             then content_len bytes: the entry content's *canonical*
#             encoding (repro.log.entries.encode_content — typed tag or JSON
#             fallback), verbatim
#
# The content bytes are exactly what the hash chain covers (h_i commits to
# H(content bytes)), so decode seeds the entry's encoded-content cache with
# them and chain verification never re-canonicalises: a tampered or
# non-canonical content serialisation hashes differently and fails the chain
# check, which is the same tamper-evidence argument the JSON format relies
# on.  v2 parses the content eagerly.  v3 never parses it during decode: the
# entry is constructed lazily (repro.log.entries.lazy_entry) and materializes
# its dict only when a consumer reads ``content``; chain verification,
# authenticator checks and cost accounting touch only ``encoded_content()``,
# so a verification-only pass performs zero content parses.  A v3 frame that
# leaves a hash out has it recomputed over those same verbatim bytes (still
# no parse): ``previous_hash`` is the chain hash of the frame before (the
# header's ``start_hash`` for the first), ``chain_hash`` follows from it by
# the chain formula — so only a chain *break* costs bytes.

#: fixed entry-type tag table — wire-stable, append-only
_TYPE_TAGS: Dict[EntryType, int] = {
    EntryType.SEND: 1,
    EntryType.RECV: 2,
    EntryType.ACK: 3,
    EntryType.NONDET: 4,
    EntryType.SNAPSHOT: 5,
    EntryType.TIMETRACKER: 6,
    EntryType.MACLAYER: 7,
    EntryType.CHALLENGE: 8,
    EntryType.RESPONSE: 9,
    EntryType.ANNOTATION: 10,
}
_TAG_TYPES: Dict[int, EntryType] = {tag: entry_type
                                    for entry_type, tag in _TYPE_TAGS.items()}

_V2_FIXED = struct.Struct("<QBd32s32sI")
_V3_FIXED = struct.Struct("<QBdI")
_V2_HEADER_PREFIX = struct.Struct("<HH")
_V2_LENGTH = struct.Struct("<I")
_HASH_LENGTH = 32
#: v3 header flag bit 0 — every frame body is zlib.compress(payload, 1)
V3_FLAG_COMPRESSED = 0x01
#: v3 header flag bit 1 — frames use the ``_V3_FIXED`` layout: ``h`` / ``p``
#: only where the tag byte's presence bits say so (a pre-flag reader rejects
#: the header, typed, instead of misreading the frames)
V3_FLAG_CHAIN_BREAKS_ONLY = 0x02
_TAG_HAS_CHAIN_HASH = 0x80
_TAG_HAS_PREVIOUS_HASH = 0x40


def _pack_payload(entry: LogEntry,
                  running: Optional[bytes] = None) -> bytes:
    """One entry's frame payload: explicit layout, or — ``running`` being the
    chain hash of the frame before — the layout that stores chain breaks."""
    tag = _TYPE_TAGS[entry.entry_type]
    content = entry.encoded_content()
    if len(entry.chain_hash) != _HASH_LENGTH \
            or len(entry.previous_hash) != _HASH_LENGTH:
        raise LogFormatError(
            f"entry {entry.sequence} carries a non-{_HASH_LENGTH}-byte "
            f"chain hash")
    if running is None:
        return _V2_FIXED.pack(entry.sequence, tag, entry.timestamp,
                              entry.chain_hash, entry.previous_hash,
                              len(content)) + content
    hashes = b""
    if entry.chain_hash != entry_link_hash(
            entry.previous_hash, entry.sequence, entry.entry_type,
            entry.content_hash()):
        tag |= _TAG_HAS_CHAIN_HASH
        hashes = entry.chain_hash
    if entry.previous_hash != running:
        tag |= _TAG_HAS_PREVIOUS_HASH
        hashes += entry.previous_hash
    return _V3_FIXED.pack(entry.sequence, tag, entry.timestamp,
                          len(content)) + hashes + content


def _unpack_payload(payload: Union[bytes, memoryview], what: str,
                    running: Optional[bytes] = None) -> tuple:
    """Inverse of :func:`_pack_payload` (``running``: as there), as the
    arguments of :func:`~repro.log.entries.lazy_entry`: the content stays
    the verbatim wire bytes, hashed only if a left-out hash needed it."""
    fixed = _V2_FIXED if running is None else _V3_FIXED
    size = len(payload)
    if size < fixed.size:
        raise LogFormatError(f"{what} log frame too short ({size} bytes)")
    offset = fixed.size
    if running is None:
        sequence, tag, timestamp, chain_hash, previous_hash, content_len \
            = fixed.unpack_from(payload, 0)
    else:
        sequence, tag, timestamp, content_len = fixed.unpack_from(payload, 0)
        chain_hash, previous_hash = None, running
        if tag & _TAG_HAS_CHAIN_HASH:
            chain_hash = bytes(payload[offset:offset + _HASH_LENGTH])
            offset += _HASH_LENGTH
        if tag & _TAG_HAS_PREVIOUS_HASH:
            previous_hash = bytes(payload[offset:offset + _HASH_LENGTH])
            offset += _HASH_LENGTH
        tag &= ~(_TAG_HAS_CHAIN_HASH | _TAG_HAS_PREVIOUS_HASH)
    if offset + content_len != size:
        raise LogFormatError(
            f"{what} log frame advertises {content_len} content bytes "
            f"but carries {size - offset}")
    entry_type = _TAG_TYPES.get(tag)
    if entry_type is None:
        raise LogFormatError(f"unknown binary entry-type tag {tag}")
    content_bytes = bytes(payload[offset:])
    content_hash = None
    if chain_hash is None:
        content_hash = hashing.hash_bytes(content_bytes)
        chain_hash = entry_link_hash(previous_hash, sequence, entry_type,
                                     content_hash)
    return (sequence, entry_type, content_bytes, chain_hash, previous_hash,
            timestamp, content_hash)


def _inflate_frame(raw: Union[bytes, memoryview]) -> bytes:
    """Inflate one frame — strictly: one complete zlib stream filling the
    frame, nothing after it (``zlib.decompress`` would skip trailing bytes,
    and the archive stores accepted shipments byte for byte)."""
    inflater = zlib.decompressobj()
    try:
        payload = _bounded(inflater.decompress(raw, MAX_INFLATED_BYTES + 1))
    except zlib.error as exc:
        raise LogFormatError(
            f"corrupt compressed typed log frame: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise LogFormatError(
            "corrupt compressed typed log frame: not exactly one zlib stream")
    return payload


class _FramedCodec(LogCodec):
    """What v2 and v3 share: the header, the length-prefixed frames, and one
    decode loop each for a whole blob and for a byte stream."""

    #: "binary" / "typed" — how error messages name the format
    _WHAT: ClassVar[str]
    #: the header flag bits a reader accepts; ``None``: no flags byte (v2)
    _KNOWN_FLAGS: ClassVar[Optional[int]] = None

    def _payloads(self, segment: LogSegment) -> Iterator[bytes]:
        """The stored frame bodies of ``segment``, in order."""
        raise NotImplementedError

    @classmethod
    def _payload_decoder(cls, flags: int, start_hash: bytes):
        """``stored frame body -> LogEntry`` for one segment, frames in
        order (it carries the chain state a frame may lean on)."""
        raise NotImplementedError

    def _header_flags(self) -> bytes:
        """The header's flags byte as this writer sets it (v2 has none)."""
        return b""

    def encode_segment(self, segment: LogSegment) -> bytes:
        machine_bytes = segment.machine.encode("utf-8")
        if len(machine_bytes) > 0xFFFF:
            raise LogFormatError(
                f"machine name too long for the v{self.format_version} header")
        if len(segment.start_hash) != _HASH_LENGTH:
            raise LogFormatError(f"start hash must be {_HASH_LENGTH} bytes")
        parts = [self.MAGIC,
                 _V2_HEADER_PREFIX.pack(self.format_version, len(machine_bytes)),
                 machine_bytes, segment.start_hash, self._header_flags(),
                 _V2_LENGTH.pack(len(segment.entries))]
        pack_length = _V2_LENGTH.pack
        for payload in self._payloads(segment):
            parts.append(pack_length(len(payload)))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def _header_size(cls, buffer: Union[bytes, bytearray, memoryview]
                     ) -> Optional[int]:
        """Total header size once enough bytes are buffered, else ``None``."""
        need = MAGIC_LENGTH + _V2_HEADER_PREFIX.size
        if len(buffer) < need:
            return None
        _, machine_len = _V2_HEADER_PREFIX.unpack_from(buffer, MAGIC_LENGTH)
        return need + machine_len + _HASH_LENGTH + _V2_LENGTH.size \
            + (0 if cls._KNOWN_FLAGS is None else 1)

    @classmethod
    def _unpack_header(cls, view: memoryview):
        """Parse magic + header; returns machine, start hash, flags, entry
        count and the offset of the first frame."""
        if bytes(view[:MAGIC_LENGTH]) != cls.MAGIC:
            raise LogFormatError(f"not a {cls._WHAT} log segment (bad magic)")
        end = cls._header_size(view)
        if end is None or len(view) < end:
            raise LogFormatError(f"truncated {cls._WHAT} log header")
        version, machine_len = _V2_HEADER_PREFIX.unpack_from(view, MAGIC_LENGTH)
        require_format_version(version, what=f"{cls._WHAT} log segment",
                               supported=(cls.format_version,))
        offset = MAGIC_LENGTH + _V2_HEADER_PREFIX.size
        try:
            machine = bytes(view[offset:offset + machine_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogFormatError(
                f"{cls._WHAT} log header machine name is not UTF-8: "
                f"{exc}") from exc
        offset += machine_len
        start_hash = bytes(view[offset:offset + _HASH_LENGTH])
        flags = 0
        if cls._KNOWN_FLAGS is not None:
            flags = view[offset + _HASH_LENGTH]
            if flags & ~cls._KNOWN_FLAGS:
                raise LogFormatError(
                    f"unknown v{cls.format_version} header flags "
                    f"0x{flags:02x}")
        (entry_count,) = _V2_LENGTH.unpack_from(view, end - _V2_LENGTH.size)
        return machine, start_hash, flags, entry_count, end

    def decode_segment(self, data: Union[bytes, memoryview]) -> LogSegment:
        view = memoryview(data)
        machine, start_hash, flags, entry_count, position = \
            self._unpack_header(view)
        decode = self._payload_decoder(flags, start_hash)
        entries: List[LogEntry] = []
        total = len(view)
        while position < total:
            if total - position < _V2_LENGTH.size:
                raise LogFormatError(
                    f"truncated {self._WHAT} log (dangling frame length)")
            (length,) = _V2_LENGTH.unpack_from(view, position)
            position += _V2_LENGTH.size
            if total - position < length:
                raise LogFormatError(
                    f"truncated {self._WHAT} log (frame shorter than "
                    f"advertised)")
            entries.append(decode(view[position:position + length]))
            position += length
        if len(entries) != entry_count:
            raise LogFormatError(
                f"entry count mismatch: header says {entry_count}, "
                f"found {len(entries)}")
        return LogSegment(machine=machine, start_hash=start_hash,
                          entries=entries)

    def stream_decoder(self) -> "_FramedStreamDecoder":
        return _FramedStreamDecoder(type(self))


@register_codec
class BinaryCodec(_FramedCodec):
    """``format_version=2``: packed binary frames, zero-copy decode."""

    format_version = 2
    MAGIC = b"AVMLOGB2"
    _WHAT = "binary"

    def _payloads(self, segment: LogSegment) -> Iterator[bytes]:
        return map(_pack_payload, segment.entries)

    @classmethod
    def _payload_decoder(cls, flags: int, start_hash: bytes):
        return cls._eager_entry

    @staticmethod
    def _eager_entry(raw: Union[bytes, memoryview]) -> LogEntry:
        sequence, entry_type, content_bytes, chain_hash, previous_hash, \
            timestamp, _ = _unpack_payload(raw, "binary")
        try:
            content = decode_content(content_bytes)
        except LogFormatError as exc:
            raise LogFormatError(
                f"binary log frame carries undecodable content: {exc}") from exc
        count_materialization()
        entry = LogEntry(sequence=sequence, entry_type=entry_type,
                         content=content, chain_hash=chain_hash,
                         previous_hash=previous_hash, timestamp=timestamp)
        # The chain hash commits to H(content bytes); seeding the cache with
        # the wire bytes means verification hashes them directly — tampered
        # or non-canonical bytes fail the chain check, never pass silently.
        seed_encoded_content(entry, content_bytes)
        return entry


@register_codec
class TypedCodec(_FramedCodec):
    """``format_version=3``: typed content frames, lazy materialization.

    ``compress=True`` (the default, what archives and shippers get from
    ``get_codec(3)``) deflates every frame with zlib level 1 — cheap to
    produce, and it wins back the stored-bytes regression the uncompressed
    v2 format paid relative to v1's bzip2 pipeline.  Pass ``compress=False``
    for raw frames when decode latency matters more than storage (the codec
    benchmark's decode path).  Decoding honours the *header* flags, whatever
    the instance was constructed with — including blobs written before
    frames could leave the chain out.
    """

    format_version = 3
    MAGIC = b"AVMLOGT3"
    _WHAT = "typed"
    _KNOWN_FLAGS = V3_FLAG_COMPRESSED | V3_FLAG_CHAIN_BREAKS_ONLY

    def __init__(self, compress: bool = True) -> None:
        self._compress = compress

    def _header_flags(self) -> bytes:
        return bytes((V3_FLAG_CHAIN_BREAKS_ONLY
                      | (V3_FLAG_COMPRESSED if self._compress else 0),))

    def _payloads(self, segment: LogSegment) -> Iterator[bytes]:
        running = segment.start_hash
        for entry in segment.entries:
            payload = _pack_payload(entry, running)
            running = entry.chain_hash
            yield zlib.compress(payload, 1) if self._compress else payload

    @classmethod
    def _payload_decoder(cls, flags: int, start_hash: bytes):
        running = start_hash if flags & V3_FLAG_CHAIN_BREAKS_ONLY else None
        compressed = flags & V3_FLAG_COMPRESSED

        def decode(raw: Union[bytes, memoryview]) -> LogEntry:
            nonlocal running
            # No content parse here: the verbatim canonical bytes seed the
            # entry, and materialization is deferred to first content access.
            entry = lazy_entry(*_unpack_payload(
                _inflate_frame(raw) if compressed else raw, "typed", running))
            if running is not None:
                running = entry.chain_hash
            return entry
        return decode

    def writes_layout_of(self, data: Union[bytes, memoryview]) -> bool:
        if not super().writes_layout_of(data):
            return False
        flags = self._unpack_header(memoryview(data))[2]
        return bool(flags & V3_FLAG_COMPRESSED) == self._compress


class _FramedStreamDecoder(_StreamDecoderBase):
    """Incrementally decode a v2 or v3 segment from a byte stream, zero-copy.

    Complete frames are unpacked with ``struct.unpack_from`` straight out of
    the accumulation buffer through a :class:`memoryview` — no per-frame
    slice copies; the only copy is the content bytes that outlive the buffer
    (they seed the entry's encoded-content cache).  Consumed prefixes are
    compacted away after every chunk, so peak memory is one chunk plus one
    partial frame.
    """

    def __init__(self, codec_class: Type[_FramedCodec]) -> None:
        super().__init__()
        self._codec_class = codec_class

    def entries(self, chunks: Iterable[bytes]) -> Iterator[LogEntry]:
        codec, what = self._codec_class, self._codec_class._WHAT
        buffer = bytearray()
        declared_count = 0
        decode = None
        for piece in chunks:
            buffer += piece
            if decode is None:
                if len(buffer) >= MAGIC_LENGTH \
                        and not buffer.startswith(codec.MAGIC):
                    break
                header_size = codec._header_size(buffer)
                if header_size is None or len(buffer) < header_size:
                    continue
                with memoryview(buffer) as view:
                    machine, start_hash, flags, declared_count, _ = \
                        codec._unpack_header(view)
                self.header = _encode_v1_header(machine, start_hash)
                decode = codec._payload_decoder(flags, start_hash)
                del buffer[:header_size]
            # Drain every complete frame currently buffered.  The views are
            # created and dropped inside _drain_frames, so the compaction
            # (and the next chunk append) never hits an exported buffer.
            for entry in self._drain_frames(decode, buffer):
                self.entry_count += 1
                yield entry
        if decode is None:
            if len(buffer) >= MAGIC_LENGTH \
                    and not buffer.startswith(codec.MAGIC):
                raise LogFormatError(f"not a {what} log segment (bad magic)")
            raise LogFormatError(f"truncated {what} log header")
        if buffer:
            raise LogFormatError(
                f"truncated {what} log (stream ended mid-frame)")
        if self.entry_count != declared_count:
            raise LogFormatError(
                f"entry count mismatch: header says {declared_count}, "
                f"found {self.entry_count}")

    @staticmethod
    def _drain_frames(decode, buffer: bytearray) -> List[LogEntry]:
        drained: List[LogEntry] = []
        position = 0
        total = len(buffer)
        view = memoryview(buffer)
        try:
            while total - position >= _V2_LENGTH.size:
                (length,) = _V2_LENGTH.unpack_from(view, position)
                if total - position - _V2_LENGTH.size < length:
                    break
                start = position + _V2_LENGTH.size
                # Keep the slice a temporary: a lingering local would hold a
                # buffer export and break the compaction below.
                drained.append(decode(view[start:start + length]))
                position = start + length
        finally:
            view.release()
        if position:
            del buffer[:position]
        return drained


# ---------------------------------------------------------------------------
# Format-agnostic streaming decode (magic-sniffing dispatcher)
# ---------------------------------------------------------------------------

class SegmentStreamDecoder(_StreamDecoderBase):
    """Incrementally decode a stored segment blob of *any* registered format.

    Buffers the first :data:`MAGIC_LENGTH` bytes, selects the codec by
    magic, and delegates to its incremental decoder — so the archive's
    streaming reader and the ingest service never branch on format
    versions.  ``header`` (machine + hex start hash) is populated before
    the first entry is yielded, exactly like both per-format decoders
    guarantee.
    """

    def entries(self, chunks: Iterable[bytes]) -> Iterator[LogEntry]:
        chunk_iter = iter(chunks)
        prefix = b""
        while len(prefix) < MAGIC_LENGTH:
            piece = next(chunk_iter, None)
            if piece is None:
                break
            prefix += piece
        if len(prefix) < MAGIC_LENGTH:
            # Too short to carry any magic; report it the way the original
            # (v1-only) decoder always has.
            raise LogFormatError("not a VMM-compressed log (bad magic)")
        inner = get_codec(sniff_format_version(prefix)).stream_decoder()

        def replay() -> Iterator[bytes]:
            yield prefix
            yield from chunk_iter

        for entry in inner.entries(replay()):
            self.header = inner.header
            self.entry_count = inner.entry_count
            yield entry
        self.header = inner.header
        self.entry_count = inner.entry_count


# ---------------------------------------------------------------------------
# The canonical modelled compressed-log size (audit cost model)
# ---------------------------------------------------------------------------

def iter_snapshot_subsegments(segment: LogSegment) -> Iterator[LogSegment]:
    """Split a segment at SNAPSHOT entries (each sub-segment ends at one).

    This is the shipping granularity of Section 4.2 — a monitor seals and
    ships the entries since the previous snapshot, ending with the SNAPSHOT
    entry — re-derived from the entries alone, so it is independent of how
    the log was actually chunked, shipped or re-shipped.  Entries after the
    last snapshot form a final tail sub-segment.
    """
    entries = segment.entries
    start = 0
    start_hash = segment.start_hash
    for index, entry in enumerate(entries):
        if entry.entry_type is EntryType.SNAPSHOT:
            yield LogSegment(machine=segment.machine,
                             entries=entries[start:index + 1],
                             start_hash=start_hash)
            start = index + 1
            start_hash = entry.chain_hash
    if start < len(entries):
        yield LogSegment(machine=segment.machine, entries=entries[start:],
                         start_hash=start_hash)


def modelled_compressed_log_bytes(segment: LogSegment) -> int:
    """The audit cost model's compressed size of downloading ``segment``.

    Defined as the sum over the snapshot-delimited sub-segments of the
    v1-compressed size of each sub-segment — i.e. what a v1 archive stores
    for a cleanly-shipped log.  A pure function of the entries: additive
    across snapshot boundaries, identical whether the auditor materialized,
    chunked or streamed the log, and identical for every wire format the
    log happens to be stored in.

    This compresses every entry, so it is for reporting a modelled figure,
    never for a path whose wall time is measured.
    """
    v1 = JsonBz2Codec()
    return sum(len(v1.encode_segment(sub))
               for sub in iter_snapshot_subsegments(segment))
