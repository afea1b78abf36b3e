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
so a row means nothing outside its segment.  A link the reader recomputes is
memoised on its entry, so the chain check that follows does not hash it again.

Two formats exist, one encoder and one decoder each:

* ``format_version=1`` (:class:`JsonBz2Codec`, magic ``AVMLOGZ1``) — the
  original VMM-specific JSON pre-pass + bzip2 pipeline.  Byte-for-byte
  compatible with every archive written before this module existed.  Its
  one, strict reader is the streaming one; the segment-level decode drains it.
* ``format_version=3`` (:class:`TypedCodec`, magic ``AVMLOGT3``) — a
  little-endian header and length-prefixed frames walked through a
  ``memoryview``.  Decode is *lazy*: the frame's verbatim canonical content
  bytes — typed-tagged by the content codec in :mod:`repro.log.entries` —
  seed the entry without being parsed, deferring materialization to first
  ``content`` access, and the chain hash is verified over those exact
  bytes.  The writer deflates all of a segment's frames as one ``zlib``
  stream (header flag bit 2), so redundancy across frames compresses too,
  and writes frames without the chain (flag bit 1).  Flag bit 0 — each
  frame deflated on its own, what archives written before the one stream
  hold — is read, never written.

The registry (:func:`get_codec`, :func:`codec_for_data`) keys codecs by
``format_version`` and sniffs stored blobs by magic (any other magic — the
retired format 2's among them — is refused); every
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
from hashlib import sha256
from itertools import chain
from math import isfinite
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
    encode_content,
    lazy_entry,
)
from repro.log.hashchain import entry_link_hash, memoise_link
from repro.log.segments import LogSegment

__all__ = [
    "LogCodec",
    "JsonBz2Codec",
    "TypedCodec",
    "SegmentStreamDecoder",
    "MAGIC_LENGTH",
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
#: body, a v3 segment's zlib body, one frame of the per-frame v3 layout) may
#: inflate to — before any chain check has run
MAX_INFLATED_BYTES = 256 << 20
#: the most a streaming reader inflates from its input at a time
_PIECE = 1 << 20


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
        as :meth:`encode_segment` lays segments out (same format, same
        layout flags), so it can be stored as it arrived."""
        return bytes(data[:MAGIC_LENGTH]) == self.MAGIC

    # -- streaming -----------------------------------------------------------

    def stream_decoder(self) -> "_StreamDecoderBase":
        """A fresh incremental decoder for this format."""
        raise NotImplementedError


def supported_format_versions() -> List[int]:
    """The registered wire-format versions, ascending."""
    return sorted(_REGISTRY)


def require_format_version(value, *, what: str = "log",
                           supported: Optional[Iterable[int]] = None) -> int:
    """Validate a ``format_version`` field; the repo's single version check.

    ``supported`` defaults to the codec registry; callers with their own
    version space (the archive manifest) pass theirs explicitly.  Raises
    :class:`LogFormatError` — one well-typed error class for every
    unsupported-version failure, whatever the call site.
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


def _prefix(chunks: Iterator[bytes]) -> bytes:
    """The first chunks of a stream, joined, until they hold a magic."""
    prefix = b""
    for piece in chunks:
        prefix += piece
        if len(prefix) >= MAGIC_LENGTH:
            break
    return prefix


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
# row to row.  There is one reader, the streaming one; the whole-segment
# decoder drains it, so the ingest door and the auditor accept exactly the
# same bytes.

#: the writer's layout, compact and key-sorted; the reader re-runs it over
#: what it parsed (no cycles, so none to look for) to require that layout
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_SCAN = json.JSONDecoder().raw_decode
_V1_HEAD, _V1_ROWS, _V1_TAIL = '{"header":', ',"rows":[', "}"
_WIRE_TYPES = {entry_type.wire_name: entry_type for entry_type in EntryType}


def _encode_v1_header(machine: str, start_hash: bytes) -> Dict:
    return {"machine": machine, "start_hash": start_hash.hex()}


def _dump_compact(value) -> bytes:
    return _COMPACT.encode(value).encode("utf-8")


def _noncanonical(what: str) -> LogFormatError:
    return LogFormatError(f"corrupt VMM-encoded log: {what} not as the writer lays it out")


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
        """The entry a parsed row stands for; the row is the reader's own,
        so its content dict becomes the entry's, uncopied."""
        try:
            content = row["c"]
            if type(content) is not dict or type(row.get("s", 0)) is not int \
                    or type(row.get("dc", 0)) is not int:
                raise TypeError("'s' and 'dc' must be ints, 'c' an object")
            if "s" in row:
                sequence = row["s"]
            else:
                sequence = (self._sequence + 1
                            if self._sequence is not None else 1)
            self._sequence = sequence
            if "dc" in row:
                self._counter += row["dc"]
                content["execution_counter"] = self._counter
            count_materialization()
            entry_type = _WIRE_TYPES[row["t"]]
            previous = bytes.fromhex(row["p"]) if "p" in row else self._chain
            timestamp = float(row.get("ts", 0.0))
            if not isfinite(timestamp):
                raise ValueError(f"non-finite timestamp {timestamp!r}")
            entry = LogEntry.__new__(LogEntry)
            fields = entry.__dict__
            fields.update(sequence=sequence, entry_type=entry_type,
                          content=content, previous_hash=previous,
                          timestamp=timestamp)
            if "h" in row:
                fields["chain_hash"] = self._chain = bytes.fromhex(row["h"])
                return entry
            encoded = encode_content(content)
            content_hash = sha256(encoded).digest()
            self._chain = entry_link_hash(previous, sequence, entry_type,
                                          content_hash)
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise LogFormatError(f"corrupt v1 log row: {exc}") from exc
        fields.update(chain_hash=self._chain, _encoded_content=encoded,
                      _content_hash=content_hash, _canonical=True)
        memoise_link(entry)
        return entry


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
        decoder = _JsonStreamDecoder()
        entries = list(decoder.entries((data,)))
        try:
            return LogSegment(
                machine=str(decoder.header["machine"]),
                start_hash=bytes.fromhex(decoder.header["start_hash"]),
                entries=entries)
        except KeyError as exc:
            raise LogFormatError(f"corrupt VMM-encoded log: {exc}") from exc

    def stream_decoder(self) -> "_JsonStreamDecoder":
        return _JsonStreamDecoder()


def _v1_text(compressed: bytes, chunks: Iterator[bytes]) -> Iterator[str]:
    """The decompressed text of a v1 body, a piece at a time — strictly:
    one bzip2 stream with nothing after it, UTF-8, at most
    :data:`MAX_INFLATED_BYTES`.  A piece is at most :data:`_PIECE`, so a
    chunk that inflates a thousandfold is held a piece at a time too."""
    decompressor = bz2.BZ2Decompressor()
    utf8 = codecs.getincrementaldecoder("utf-8")()
    inflated = 0
    try:
        while compressed is not None:
            while compressed or not (decompressor.needs_input
                                     or decompressor.eof):
                if decompressor.eof:
                    raise EOFError("bytes after the bzip2 stream")
                piece = decompressor.decompress(compressed, _PIECE)
                compressed = b""
                if decompressor.unused_data:
                    raise EOFError("bytes after the bzip2 stream")
                inflated += len(piece)
                yield utf8.decode(_bounded(piece, inflated))
            compressed = next(chunks, None)
        utf8.decode(b"", final=True)
    except (OSError, EOFError, UnicodeDecodeError) as exc:
        raise LogFormatError(f"corrupt VMM-encoded log: {exc}") from exc
    if not decompressor.eof:
        raise LogFormatError(
            "truncated VMM-compressed log (bzip2 stream did not end)")


def _v1_header(text: str):
    """``(header, offset of the first row)`` once ``text`` holds the header
    and the rows' opening, ``(None, 0)`` while it may still."""
    if not text.startswith(_V1_HEAD):
        if _V1_HEAD.startswith(text):
            return None, 0
        raise _noncanonical("blob")
    try:
        header, end = _SCAN(text, len(_V1_HEAD))
    except json.JSONDecodeError:
        return None, 0  # incomplete, or corrupt: the end of the text decides
    if not text.startswith(_V1_ROWS, end):
        if _V1_ROWS.startswith(text[end:]):
            return None, 0
        raise _noncanonical("blob")
    if type(header) is not dict \
            or _COMPACT.encode(header) != text[len(_V1_HEAD):end]:
        raise _noncanonical("header")
    return header, end + len(_V1_ROWS)


def _v1_rows(text: str, position: int, first: bool):
    """The complete rows from ``position`` on, each with the ``,`` or ``]``
    after it: ``(rows, offset after the last separator, whether it was
    the closing ``]``)``.  ``first``: no row has been read yet, so the
    ``]`` of an empty list may come instead."""
    if first and text.startswith("]", position):
        return [], position + 1, True
    rows: List[Dict] = []
    end = len(text)
    while True:
        try:
            row, position_after = _SCAN(text, position)
        except json.JSONDecodeError:
            return rows, position, False  # incomplete, or corrupt: as above
        if position_after == end:
            return rows, position, False  # its separator is still to come
        if type(row) is not dict:
            raise _noncanonical("a row")
        rows.append(row)
        separator = text[position_after]
        position = position_after + 1
        if separator == "]":
            return rows, position, True
        if separator != ",":
            raise _noncanonical("rows")


class _JsonStreamDecoder(_StreamDecoderBase):
    """Decode a v1 (VMM-compressed) segment from a byte stream — the one v1
    reader.

    An index walk over the decompressed text: ``raw_decode`` parses the
    header and each row in place, and the text is compacted once per
    decompressed piece, not per row.  The strict layout of the compact,
    key-sorted encoder (``{"header":{...},"rows":[...]}``) is *required* —
    the header, and each piece's batch of rows, must re-encode to exactly the
    text they were parsed from, one ``JSONEncoder.encode`` per piece; ``s``
    and ``dc`` must be ``int`` and ``c`` an object.  Anything else raises
    :class:`LogFormatError`, exactly like the materializing decoder, which
    drains this one.  At most one compressed chunk, one decompressed piece
    and its rows are held.
    """

    def entries(self, chunks: Iterable[bytes]) -> Iterator[LogEntry]:
        chunks = iter(chunks)
        head = _prefix(chunks)
        if not head.startswith(JsonBz2Codec.MAGIC):
            raise LogFormatError("not a VMM-compressed log (bad magic)")
        text, position, closed = "", 0, False
        rows: Optional[_RowCodec] = None
        for piece in _v1_text(head[MAGIC_LENGTH:], chunks):
            text = text[position:] + piece
            position = 0
            if rows is None:
                # The header precedes the first row, so callers can check
                # it before any entry, and the chain starts from it.
                header, position = _v1_header(text)
                if header is None:
                    continue
                rows = _RowCodec.for_header(header)
                self.header = header
            if closed:
                if not _V1_TAIL.startswith(text[position:]):
                    raise _noncanonical("blob")
                continue
            start = position
            batch, position, closed = _v1_rows(
                text, position, first=not self.entry_count)
            if batch and _COMPACT.encode(batch)[1:-1] \
                    != text[start:position - 1]:
                raise _noncanonical("rows")
            for row in batch:
                entry = rows.decode_row(row)
                self.entry_count += 1
                yield entry
        if not closed or text[position:] != _V1_TAIL:
            raise LogFormatError(
                "corrupt VMM-encoded log: stream ended mid-structure")


# ---------------------------------------------------------------------------
# format_version=3 — typed content in length-prefixed frames, lazy decode
# ---------------------------------------------------------------------------
#
# Layout (all integers little-endian, documented field by field in
# docs/log-format.md):
#
#   magic     8s   b"AVMLOGT3"
#   header    <HH  format_version, machine_len
#             machine_len bytes of UTF-8 machine name
#             32s  start_hash
#             <B   flags (bit 0: each frame is its own zlib stream;
#                  bit 1: frames leave the chain out;
#                  bit 2: the body is one zlib stream over the frames)
#             <I   entry_count
#   body      the frames — or (flag bit 2, what the writer writes) one zlib
#             level-6 stream whose inflated bytes are the frames, with
#             nothing after it
#   frame*    <I   stored_len, then stored_len stored bytes — the entry
#             payload verbatim, or (flag bit 0 — blobs written before the
#             one stream; read, never written) its own zlib deflate
#   payload   chain left out (flag bit 1 — what the writer writes):
#               <QBdI        sequence, entry-type tag | presence bits,
#                            timestamp, content_len
#               32s          chain_hash, only if tag bit 7 is set
#               32s          previous_hash, only if tag bit 6 is set
#             explicit (flag bit 1 clear — blobs written before the flag,
#             the v3 seed archive's; read, never written):
#               <QBd32s32sI  sequence, entry-type tag, timestamp, chain_hash,
#                            previous_hash, content_len
#             then content_len bytes: the entry content's *canonical*
#             encoding (repro.log.entries.encode_content — typed tag or JSON
#             fallback), verbatim
#
# The content bytes are exactly what the hash chain covers (h_i commits to
# H(content bytes)), so decode seeds the entry's encoded-content cache with
# them and chain verification never re-canonicalises: a tampered or
# non-canonical content serialisation hashes differently and fails the chain
# check, which is the same tamper-evidence argument the JSON format relies
# on.  Decode never parses the content: the entry is constructed lazily
# (repro.log.entries.lazy_entry) and materializes its dict only when a
# consumer reads ``content``; chain verification, authenticator checks and
# cost accounting touch only ``encoded_content()``, so a verification-only
# pass performs zero content parses.  A frame that leaves a hash out has it
# recomputed over those same verbatim bytes (still no parse):
# ``previous_hash`` is the chain hash of the frame before (the header's
# ``start_hash`` for the first), ``chain_hash`` follows from it by the chain
# formula — so only a chain *break* costs bytes.

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

_EXPLICIT_FIXED = struct.Struct("<QBd32s32sI")
_FIXED = struct.Struct("<QBdI")
_HEADER_PREFIX = struct.Struct("<HH")
_LENGTH = struct.Struct("<I")
_HASH_LENGTH = 32
#: v3 header flag bit 0 — every frame body is its own zlib stream (the
#: layout before :data:`V3_FLAG_ONE_STREAM`; read, never written)
V3_FLAG_COMPRESSED = 0x01
#: v3 header flag bit 1 — frames use the ``_FIXED`` layout: ``h`` / ``p``
#: only where the tag byte's presence bits say so (a pre-flag reader rejects
#: the header, typed, instead of misreading the frames)
V3_FLAG_CHAIN_BREAKS_ONLY = 0x02
#: v3 header flag bit 2 — the body after the header is one zlib stream over
#: the raw frames
V3_FLAG_ONE_STREAM = 0x04
_KNOWN_FLAGS = V3_FLAG_COMPRESSED | V3_FLAG_CHAIN_BREAKS_ONLY \
    | V3_FLAG_ONE_STREAM
#: the only layout :meth:`TypedCodec.encode_segment` writes
_WRITTEN_FLAGS = V3_FLAG_CHAIN_BREAKS_ONLY | V3_FLAG_ONE_STREAM
_TAG_HAS_CHAIN_HASH = 0x80
_TAG_HAS_PREVIOUS_HASH = 0x40


def _pack_payload(entry: LogEntry, running: bytes) -> bytes:
    """One entry's frame payload, ``running`` being the chain hash of the
    frame before: a hash is stored only where the chain breaks."""
    tag = _TYPE_TAGS[entry.entry_type]
    content = entry.encoded_content()
    if len(entry.chain_hash) != _HASH_LENGTH \
            or len(entry.previous_hash) != _HASH_LENGTH:
        raise LogFormatError(
            f"entry {entry.sequence} carries a non-{_HASH_LENGTH}-byte "
            f"chain hash")
    hashes = b""
    if entry.chain_hash != entry_link_hash(
            entry.previous_hash, entry.sequence, entry.entry_type,
            entry.content_hash()):
        tag |= _TAG_HAS_CHAIN_HASH
        hashes = entry.chain_hash
    if entry.previous_hash != running:
        tag |= _TAG_HAS_PREVIOUS_HASH
        hashes += entry.previous_hash
    return _FIXED.pack(entry.sequence, tag, entry.timestamp,
                       len(content)) + hashes + content


def _unpack_payload(payload: Union[bytes, memoryview],
                    running: Optional[bytes] = None) -> tuple:
    """Inverse of :func:`_pack_payload` (``running``: as there; ``None``:
    the explicit layout), as the arguments of
    :func:`~repro.log.entries.lazy_entry`: the content stays the verbatim
    wire bytes, hashed only if a left-out hash needed it."""
    fixed = _EXPLICIT_FIXED if running is None else _FIXED
    size = len(payload)
    if size < fixed.size:
        raise LogFormatError(f"typed log frame too short ({size} bytes)")
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
            f"typed log frame advertises {content_len} content bytes "
            f"but carries {size - offset}")
    if not isfinite(timestamp):
        raise LogFormatError(
            f"typed log frame of entry {sequence} carries a non-finite "
            f"timestamp {timestamp!r}")
    entry_type = _TAG_TYPES.get(tag)
    if entry_type is None:
        raise LogFormatError(f"unknown typed entry-type tag {tag}")
    content_bytes = bytes(payload[offset:])
    content_hash = None
    if chain_hash is None:
        content_hash = hashing.hash_bytes(content_bytes)
        chain_hash = entry_link_hash(previous_hash, sequence, entry_type,
                                     content_hash)
    return (sequence, entry_type, content_bytes, chain_hash, previous_hash,
            timestamp, content_hash)


def _inflated(compressed: Union[bytes, memoryview],
              chunks: Iterator[bytes]) -> Iterator[bytes]:
    """One zlib stream — a one-stream v3 body, or one frame of the per-frame
    layout — inflated a piece at a time as its chunks arrive.  Strictly: one
    complete stream with nothing after it (``zlib.decompress`` would skip
    trailing bytes, and the archive stores accepted shipments byte for
    byte), at most :data:`MAX_INFLATED_BYTES` over the whole stream.  A
    piece is at most :data:`_PIECE`, so nothing is allocated past the bound
    plus a piece."""
    inflater = zlib.decompressobj()
    inflated = 0
    try:
        while compressed is not None:
            piece = inflater.decompress(compressed, _PIECE)
            compressed = inflater.unconsumed_tail
            if inflater.unused_data:
                raise LogFormatError("corrupt compressed typed log: "
                                     "not exactly one zlib stream")
            if piece:
                inflated += len(piece)
                yield _bounded(piece, inflated)
            if not compressed and len(piece) < _PIECE:
                compressed = next(chunks, None)
    except zlib.error as exc:
        raise LogFormatError(f"corrupt compressed typed log: {exc}") from exc
    if not inflater.eof:
        raise LogFormatError("truncated typed log (zlib stream did not end)")


def _frame_decoder(flags: int, start_hash: bytes):
    """``stored frame body -> LogEntry`` for one segment, frames in order
    (it carries the chain state a frame may lean on)."""
    running = start_hash if flags & V3_FLAG_CHAIN_BREAKS_ONLY else None
    compressed = flags & V3_FLAG_COMPRESSED

    def decode(raw: Union[bytes, memoryview]) -> LogEntry:
        nonlocal running
        # No content parse here: the verbatim canonical bytes seed the
        # entry, and materialization is deferred to first content access.
        if compressed:
            raw = b"".join(_inflated(raw, iter(())))
        fields = _unpack_payload(raw, running)
        entry = lazy_entry(*fields)
        if fields[-1] is not None:  # hashed: the chain hash was derived
            memoise_link(entry)
        if running is not None:
            running = entry.chain_hash
        return entry
    return decode


class TypedCodec(LogCodec):
    """``format_version=3``: typed content frames, lazy materialization.

    The writer deflates all of a segment's frames as one zlib level-6
    stream, so the redundancy across frames compresses too: on ``db_fat``
    that stores under half the bytes of deflating each frame on its own, and
    encodes faster.  Decoding honours the *header* flags, so the layouts
    older archives hold — each frame its own zlib stream, raw frames, frames
    with every hash written out — read forever; :meth:`writes_layout_of`
    accepts only the one-stream layout, so the ingest door re-encodes them.
    """

    format_version = 3
    MAGIC = b"AVMLOGT3"

    def encode_segment(self, segment: LogSegment) -> bytes:
        machine_bytes = segment.machine.encode("utf-8")
        if len(machine_bytes) > 0xFFFF:
            raise LogFormatError("machine name too long for the v3 header")
        if len(segment.start_hash) != _HASH_LENGTH:
            raise LogFormatError(f"start hash must be {_HASH_LENGTH} bytes")
        frames: List[bytes] = []
        running = segment.start_hash
        for entry in segment.entries:
            payload = _pack_payload(entry, running)
            running = entry.chain_hash
            frames += (_LENGTH.pack(len(payload)), payload)
        # Level 6: level 1 stores 14% more, level 9 saves 0.2% for about 40%
        # more encode time (docs/log-format.md, "The compression flags").
        return b"".join((
            self.MAGIC,
            _HEADER_PREFIX.pack(self.format_version, len(machine_bytes)),
            machine_bytes, segment.start_hash, bytes((_WRITTEN_FLAGS,)),
            _LENGTH.pack(len(segment.entries)),
            zlib.compress(b"".join(frames), 6)))

    @staticmethod
    def _header_size(buffer: Union[bytes, bytearray, memoryview]
                     ) -> Optional[int]:
        """Total header size once enough bytes are buffered, else ``None``."""
        need = MAGIC_LENGTH + _HEADER_PREFIX.size
        if len(buffer) < need:
            return None
        _, machine_len = _HEADER_PREFIX.unpack_from(buffer, MAGIC_LENGTH)
        return need + machine_len + _HASH_LENGTH + 1 + _LENGTH.size

    @classmethod
    def _unpack_header(cls, view: memoryview):
        """Parse magic + header; returns machine, start hash, flags, entry
        count and the offset of the body."""
        if bytes(view[:MAGIC_LENGTH]) != cls.MAGIC:
            raise LogFormatError("not a typed log segment (bad magic)")
        end = cls._header_size(view)
        if end is None or len(view) < end:
            raise LogFormatError("truncated typed log header")
        version, machine_len = _HEADER_PREFIX.unpack_from(view, MAGIC_LENGTH)
        require_format_version(version, what="typed log segment",
                               supported=(cls.format_version,))
        offset = MAGIC_LENGTH + _HEADER_PREFIX.size
        try:
            machine = bytes(view[offset:offset + machine_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogFormatError(
                f"typed log header machine name is not UTF-8: {exc}") from exc
        offset += machine_len
        start_hash = bytes(view[offset:offset + _HASH_LENGTH])
        flags = view[offset + _HASH_LENGTH]
        if flags & ~_KNOWN_FLAGS:
            raise LogFormatError(f"unknown v3 header flags 0x{flags:02x}")
        if flags & V3_FLAG_COMPRESSED and flags & V3_FLAG_ONE_STREAM:
            raise LogFormatError(
                f"v3 header flags 0x{flags:02x} set both compression bits")
        (entry_count,) = _LENGTH.unpack_from(view, end - _LENGTH.size)
        return machine, start_hash, flags, entry_count, end

    def decode_segment(self, data: Union[bytes, memoryview]) -> LogSegment:
        decoder = _TypedStreamDecoder()
        entries = list(decoder.entries((data,)))
        return LogSegment(machine=decoder.header["machine"],
                          start_hash=bytes.fromhex(decoder.header["start_hash"]),
                          entries=entries)

    def writes_layout_of(self, data: Union[bytes, memoryview]) -> bool:
        return super().writes_layout_of(data) and \
            self._unpack_header(memoryview(data))[2] == _WRITTEN_FLAGS

    def stream_decoder(self) -> "_TypedStreamDecoder":
        return _TypedStreamDecoder()


class _TypedStreamDecoder(_StreamDecoderBase):
    """Decode a v3 segment from a byte stream — the one v3 reader.

    A one-stream body is inflated a piece at a time as its chunks arrive
    (:func:`_inflated`).  Complete frames are unpacked with
    ``struct.unpack_from`` straight out of the accumulation buffer through a
    :class:`memoryview` — no per-frame slice copies; the only copy is the
    content bytes that outlive the buffer (they seed the entry's
    encoded-content cache).  Consumed prefixes are compacted away after
    every piece, so peak memory is one chunk, one inflated piece and one
    partial frame.  The whole-segment decoder drains this one, so the ingest
    door and the auditor accept exactly the same bytes.
    """

    def entries(self, chunks: Iterable[bytes]) -> Iterator[LogEntry]:
        chunks = iter(chunks)
        head = b""
        for piece in chunks:
            head += piece
            if len(head) >= MAGIC_LENGTH \
                    and not head.startswith(TypedCodec.MAGIC):
                break
            size = TypedCodec._header_size(head)
            if size is not None and len(head) >= size:
                break
        machine, start_hash, flags, declared_count, size = \
            TypedCodec._unpack_header(memoryview(head))
        self.header = _encode_v1_header(machine, start_hash)
        decode = _frame_decoder(flags, start_hash)
        body = memoryview(head)[size:]
        pieces = _inflated(body, chunks) \
            if flags & V3_FLAG_ONE_STREAM else chain((body,), chunks)
        del head, body  # the first chunk is held no longer than the others
        buffer = bytearray()
        for piece in pieces:
            buffer += piece
            # The views are created and dropped inside _drain_frames, so the
            # compaction (and the next append) never hits an exported buffer.
            for entry in self._drain_frames(decode, buffer):
                self.entry_count += 1
                yield entry
        if buffer:
            raise LogFormatError("truncated typed log (stream ended mid-frame)")
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
            while total - position >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(view, position)
                if total - position - _LENGTH.size < length:
                    break
                start = position + _LENGTH.size
                # Keep the slice a temporary: a lingering local would hold a
                # buffer export and break the compaction below.
                drained.append(decode(view[start:start + length]))
                position = start + length
        finally:
            view.release()
        if position:
            del buffer[:position]
        return drained


#: the wire formats, by ``format_version``: the paper's, and the typed one
_REGISTRY: Dict[int, Type[LogCodec]] = {1: JsonBz2Codec, 3: TypedCodec}


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
        chunks = iter(chunks)
        prefix = _prefix(chunks)
        if len(prefix) < MAGIC_LENGTH:
            # Too short to carry any magic; report it the way the original
            # (v1-only) decoder always has.
            raise LogFormatError("not a VMM-compressed log (bad magic)")
        inner = get_codec(sniff_format_version(prefix)).stream_decoder()
        for entry in inner.entries(chain((prefix,), chunks)):
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
