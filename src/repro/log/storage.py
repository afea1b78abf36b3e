"""Serialisation of logs, segments and authenticators.

Logs travel over the (simulated) network during audits and can be persisted to
disk for offline auditing, so both byte-level and file-level round-trips are
supported.  Segments here are JSON-lines: one JSON object per entry, preceded
by a header object.  JSON keeps the format debuggable; the wire codecs
(:mod:`repro.log.codec`) handle making it small.  Authenticator
batches are packed (:func:`authenticators_to_bytes`): they are hashes and
signatures, which no compressor shrinks.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from repro.errors import LogFormatError
from repro.log.authenticator import Authenticator
from repro.log.codec import require_format_version
from repro.log.entries import EntryType, LogEntry
from repro.log.segments import LogSegment

#: version of the JSON-lines debug format (not a wire codec version; the
#: binary/compressed wire formats live in :mod:`repro.log.codec`)
_FORMAT_VERSION = 1

#: one wire-name -> EntryType table for the line-oriented readers, instead of
#: a per-line ``EntryType(value)`` enum call (which probes the enum machinery
#: and raises/catches on the hot path)
_WIRE_TYPES = {entry_type.value: entry_type for entry_type in EntryType}


def _entry_from_row(row: dict) -> LogEntry:
    """Fast row -> entry used by both line-oriented readers.

    Behaviourally identical to ``LogEntry.from_dict`` (same fields, same
    :class:`LogFormatError` on malformed rows) but resolves the entry type
    through the shared :data:`_WIRE_TYPES` table and constructs the entry
    directly, so per-line work is one dict lookup plus the two fixed-width
    ``bytes.fromhex`` conversions — no enum probing, no redundant
    re-validation of hex lengths the writer already guaranteed.
    """
    try:
        entry_type = _WIRE_TYPES.get(row["type"])
        if entry_type is None:
            raise LogFormatError(
                f"malformed log entry: {row['type']!r} is not a valid EntryType")
        return LogEntry(
            sequence=int(row["sequence"]),
            entry_type=entry_type,
            content=dict(row["content"]),
            chain_hash=bytes.fromhex(row["chain_hash"]),
            previous_hash=bytes.fromhex(row["previous_hash"]),
            timestamp=float(row.get("timestamp", 0.0)),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise LogFormatError(f"malformed log entry: {exc}") from exc


def segment_to_bytes(segment: LogSegment) -> bytes:
    """Serialise a segment to JSON-lines bytes."""
    header = {
        "format_version": _FORMAT_VERSION,
        "kind": "log_segment",
        "machine": segment.machine,
        "start_hash": segment.start_hash.hex(),
        "entry_count": len(segment.entries),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(entry.to_dict(), sort_keys=True) for entry in segment.entries)
    return ("\n".join(lines) + "\n").encode("utf-8")


def segment_from_bytes(data: bytes) -> LogSegment:
    """Parse a segment previously produced by :func:`segment_to_bytes`."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"segment data is not valid UTF-8: {exc}") from exc
    if not lines:
        raise LogFormatError("empty segment data")
    header = parse_segment_header(lines[0])
    entries: List[LogEntry] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            entries.append(_entry_from_row(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"bad log entry line: {exc}") from exc
    if len(entries) != int(header.get("entry_count", len(entries))):
        raise LogFormatError(
            f"entry count mismatch: header says {header.get('entry_count')}, "
            f"found {len(entries)}")
    return LogSegment(machine=str(header["machine"]),
                      start_hash=bytes.fromhex(header["start_hash"]),
                      entries=entries)


def write_segment(segment: LogSegment, path: Union[str, Path]) -> int:
    """Write a segment to ``path``; returns the number of bytes written."""
    data = segment_to_bytes(segment)
    Path(path).write_bytes(data)
    return len(data)


def read_segment(path: Union[str, Path]) -> LogSegment:
    """Read a segment previously written with :func:`write_segment`."""
    return segment_from_bytes(Path(path).read_bytes())


def parse_segment_header(line: str) -> dict:
    """Parse and validate the header line of a serialised segment."""
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"bad segment header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "log_segment":
        kind = header.get("kind") if isinstance(header, dict) else None
        raise LogFormatError(f"not a log segment: kind={kind!r}")
    require_format_version(header.get("format_version"),
                           what="log segment", supported=(_FORMAT_VERSION,))
    return header


def iter_segment_entries(source: Union[str, Path, IO[str]]) -> Iterator[LogEntry]:
    """Stream the entries of a serialised segment, one at a time.

    ``source`` is a path to a file written by :func:`write_segment`, or an
    open text file object positioned at the header line.  Entries are parsed
    lazily, so a multi-gigabyte segment file never has to be held in memory;
    the header is validated (kind and format version) before the first entry
    is yielded.  The per-entry hash chain is *not* verified here — callers
    feed the stream to :func:`repro.log.hashchain.verify_chain_incremental`.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from _iter_entries(handle)
    else:
        yield from _iter_entries(source)


def _iter_entries(handle: IO[str]) -> Iterator[LogEntry]:
    header_line = handle.readline()
    if not header_line.strip():
        raise LogFormatError("empty segment data")
    header = parse_segment_header(header_line)
    count = 0
    for line in handle:
        if not line.strip():
            continue
        try:
            entry = _entry_from_row(json.loads(line))
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"bad log entry line: {exc}") from exc
        count += 1
        yield entry
    expected = int(header.get("entry_count", count))
    if count != expected:
        raise LogFormatError(
            f"entry count mismatch: header says {expected}, found {count}")


#: the packed authenticator batch — on the wire (archive shipments, shard
#: gossip) and on disk (``auths-N.avmauth``); docs/log-archive.md
AUTH_BATCH_MAGIC = b"AVMAUTH1"
#: top bit of a row's type byte: an explicit ``chain_hash`` follows
_ROW_HAS_CHAIN_HASH = 0x80


def _put_varint(out: bytearray, value: int) -> None:
    if not 0 <= value < 1 << 64:
        raise LogFormatError(f"{value} does not fit an unsigned 64-bit varint")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _put_bytes(out: bytearray, value: bytes) -> None:
    _put_varint(out, len(value))
    out += value


class _Reader:
    """Bounds-checked cursor over an untrusted packed batch."""

    def __init__(self, data: bytes, offset: int) -> None:
        self.data, self.offset = data, offset

    def left(self) -> int:
        return len(self.data) - self.offset

    def byte(self) -> int:
        if not self.left():
            raise LogFormatError("truncated authenticator batch")
        self.offset += 1
        return self.data[self.offset - 1]

    def varint(self) -> int:
        value = 0
        for shift in range(0, 64, 7):
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if value < 1 << 64 and (byte or not shift):  # canonical
                    return value
                break
        raise LogFormatError("overlong varint")

    def count(self) -> int:
        """A varint counting things of at least a byte each: never more
        than the bytes that remain."""
        value = self.varint()
        if value > self.left():
            raise LogFormatError(
                f"{value} announced with {self.left()} bytes left")
        return value

    def bytes(self) -> bytes:
        length = self.count()
        self.offset += length
        return self.data[self.offset - length:self.offset]

    def strings(self) -> List[str]:
        try:
            return [self.bytes().decode("utf-8") for _ in range(self.count())]
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"string table is not UTF-8: {exc}") from exc


def authenticators_to_bytes(authenticators: Iterable[Authenticator]) -> bytes:
    """Serialise a collection of authenticators to one packed batch.

    Magic, the machine and entry-type names (once each, not per row), then
    per row: machine index, sequence, type index, ``previous_hash``,
    ``content_hash``, signature — uncompressed, hashes and signatures being
    entropy.  ``chain_hash`` is written only where it does *not* follow from
    the fields beside it (:meth:`Authenticator.is_consistent`): the reader
    recomputes a consistent one, and a forged one survives storage as forged.
    """
    batch = list(authenticators)
    machines = {name: index for index, name in enumerate(
        dict.fromkeys(auth.machine for auth in batch))}
    types = {name: index for index, name in enumerate(
        dict.fromkeys(auth.entry_type for auth in batch))}
    if len(types) > _ROW_HAS_CHAIN_HASH:
        raise LogFormatError(
            f"{len(types)} entry types do not fit one authenticator batch")
    out = bytearray(AUTH_BATCH_MAGIC)
    for table in (machines, types):
        _put_varint(out, len(table))
        for name in table:
            _put_bytes(out, name.encode("utf-8"))
    _put_varint(out, len(batch))
    for auth in batch:
        _put_varint(out, machines[auth.machine])
        _put_varint(out, auth.sequence)  # 64 bits: what the chain can hash
        consistent = auth.is_consistent()
        out.append(types[auth.entry_type]
                   | (0 if consistent else _ROW_HAS_CHAIN_HASH))
        _put_bytes(out, auth.previous_hash)
        _put_bytes(out, auth.content_hash)
        if not consistent:
            _put_bytes(out, auth.chain_hash)
        _put_bytes(out, auth.signature)
    return bytes(out)


def authenticators_from_bytes(data: bytes) -> List[Authenticator]:
    """Parse a batch serialised by :func:`authenticators_to_bytes` — strict
    (every index, length and count is checked against the tables and the
    bytes that remain; no trailing bytes), failing only with
    :class:`LogFormatError`.  Sniffs the magic: a batch without it is read
    as the JSON-lines form older archives hold."""
    if not data.startswith(AUTH_BATCH_MAGIC):
        return _authenticators_from_json_lines(data)
    reader = _Reader(data, len(AUTH_BATCH_MAGIC))
    machines, types = reader.strings(), reader.strings()
    result = []
    for _ in range(reader.count()):
        machine, sequence, tag = reader.varint(), reader.varint(), reader.byte()
        type_index = tag & ~_ROW_HAS_CHAIN_HASH
        if machine >= len(machines) or type_index >= len(types):
            raise LogFormatError(
                f"authenticator row names machine {machine} / entry type "
                f"{type_index} outside the batch's tables")
        auth = Authenticator(
            machine=machines[machine], sequence=sequence, chain_hash=b"",
            signature=b"", previous_hash=reader.bytes(),
            entry_type=types[type_index], content_hash=reader.bytes())
        chain_hash = reader.bytes() if tag & _ROW_HAS_CHAIN_HASH \
            else auth.implied_chain_hash()
        result.append(replace(auth, chain_hash=chain_hash,
                              signature=reader.bytes()))
    if reader.left():
        raise LogFormatError(
            f"{reader.left()} trailing bytes after the batch")
    return result


def _authenticators_from_json_lines(data: bytes) -> List[Authenticator]:
    """The pre-packed batch form: a JSON header line, one JSON row per line
    (``chain_hash`` left out where consistent)."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise LogFormatError(
            f"authenticator data is not valid UTF-8: {exc}") from exc
    if not lines:
        raise LogFormatError("empty authenticator data")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"bad authenticator header: {exc}") from exc
    if header.get("kind") != "authenticators":
        raise LogFormatError(f"not an authenticator file: kind={header.get('kind')!r}")
    require_format_version(header.get("format_version"),
                           what="authenticator file",
                           supported=(_FORMAT_VERSION,))
    result = []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"bad authenticator line: {exc}") from exc
        if isinstance(row, dict) and "chain_hash" not in row:
            auth = Authenticator.from_dict({**row, "chain_hash": ""})
            auth = replace(auth, chain_hash=auth.implied_chain_hash())
        else:
            auth = Authenticator.from_dict(row)
        result.append(auth)
    return result
