"""Test tools for the log wire formats: writers ``src/`` no longer has.

* :func:`segment_to_bytes` — a segment as JSON lines, a header object then
  one object per entry: what each seed archive's ``expected_segment.jsonl``
  holds, and an exact, readable comparison of two decoded logs;
* :func:`per_frame_v3_blob` / :class:`PerFrameTypedCodec` — a v3 segment
  whose frames are not one zlib stream: raw, or each deflated on its own
  (header flag bit 0), what every v3 writer produced before the one stream;
  and :class:`ExplicitTypedCodec`, the same in the *explicit* frame layout
  (header flag bit 1 clear, every ``h`` / ``p`` written out): how the v3
  seed archive stores its segments, and what every v3 writer produced
  before the chain was stored only at its breaks.  The reader keeps those
  branches for the seed and older archives; nothing in ``src/`` writes them;
* references — :func:`reference_encode_content` (the per-field shape
  interpreter), :func:`reference_link_hash` (``hash_concat`` part by part)
  and :func:`reference_authenticators_from_bytes` (a method call per byte):
  what ``src/`` ran before the compiled packers, the one-buffer link hash
  and the fast-path batch reader, which must match them byte for byte and
  error for error.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import replace

from repro.crypto import hashing
from repro.errors import LogFormatError
from repro.log import entries as _entries
from repro.log.authenticator import Authenticator
from repro.log.codec import (_TYPE_TAGS, V3_FLAG_CHAIN_BREAKS_ONLY,
                             V3_FLAG_COMPRESSED, TypedCodec, _pack_payload)
from repro.log.storage import AUTH_BATCH_MAGIC


def segment_to_bytes(segment) -> bytes:
    header = {
        "format_version": 1,
        "kind": "log_segment",
        "machine": segment.machine,
        "start_hash": segment.start_hash.hex(),
        "entry_count": len(segment.entries),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(entry.to_dict(), sort_keys=True)
                 for entry in segment.entries)
    return ("\n".join(lines) + "\n").encode("utf-8")


def explicit_payload(entry) -> bytes:
    """One frame payload of the explicit layout: ``<QBd32s32sI`` (sequence,
    entry-type tag, timestamp, chain hash, previous hash, content length),
    then the canonical content bytes."""
    content = entry.encoded_content()
    return struct.pack("<QBd32s32sI", entry.sequence,
                       _TYPE_TAGS[entry.entry_type], entry.timestamp,
                       entry.chain_hash, entry.previous_hash,
                       len(content)) + content


def per_frame_v3_blob(segment, compress: bool = False,
                      explicit: bool = False) -> bytes:
    """``segment`` as v3 frames that are not one zlib stream: raw, or
    (``compress``) each deflated on its own at level 1; ``explicit``: every
    hash written out, else only the chain's breaks."""
    flags = (V3_FLAG_COMPRESSED if compress else 0) \
        | (0 if explicit else V3_FLAG_CHAIN_BREAKS_ONLY)
    machine = segment.machine.encode("utf-8")
    parts = [TypedCodec.MAGIC, struct.pack("<HH", 3, len(machine)), machine,
             segment.start_hash, bytes([flags]),
             struct.pack("<I", len(segment.entries))]
    running = segment.start_hash
    for entry in segment.entries:
        payload = explicit_payload(entry) if explicit \
            else _pack_payload(entry, running)
        running = entry.chain_hash
        if compress:
            payload = zlib.compress(payload, 1)
        parts += [struct.pack("<I", len(payload)), payload]
    return b"".join(parts)


def retired_v2_blob(segment) -> bytes:
    """What the retired format 2 wrote: the explicit layout under its own
    magic and version, with no flags byte."""
    explicit = per_frame_v3_blob(segment, explicit=True)
    flags_at = TypedCodec._header_size(explicit) - 5
    return (b"AVMLOGB2" + struct.pack("<H", 2) + explicit[10:flags_at]
            + explicit[flags_at + 1:])


class PerFrameTypedCodec(TypedCodec):
    """:class:`TypedCodec` whose writer emits a per-frame layout —
    ``compress`` (the default): each frame deflated on its own, as v3
    archives were written before the one stream."""

    explicit = False

    def __init__(self, compress: bool = True) -> None:
        self.compress = compress

    def encode_segment(self, segment) -> bytes:
        return per_frame_v3_blob(segment, self.compress, self.explicit)


class ExplicitTypedCodec(PerFrameTypedCodec):
    """:class:`PerFrameTypedCodec` in the explicit frame layout."""

    explicit = True


# -- references ---------------------------------------------------------------------

def _ref_u64(value) -> bytes:
    if type(value) is not int or not 0 <= value <= _entries._U64_MAX:
        raise _entries._Untypeable
    return _entries._U64.pack(value)


def _ref_f64(value) -> bytes:
    if type(value) is not float:
        raise _entries._Untypeable
    return _entries._F64.pack(value)


def _ref_hash32(value) -> bytes:
    if type(value) is not str:
        raise _entries._Untypeable
    raw = _entries._hash32_or_none(value)
    if raw is None:
        raise _entries._Untypeable
    return raw


_REFERENCE_FIELD_PACKERS = {
    "s": _entries._pack_short_str,
    "u64": _ref_u64,
    "f64": _ref_f64,
    "h32": _ref_hash32,
    "hex": _entries._pack_hexblob,
}


def reference_pack_shape(tag, spec, content) -> bytes:
    """The per-field interpreter the compiled packers replaced."""
    parts = [bytes((tag,))]
    for key, kind in spec:
        value = content[key]
        if kind == "dir":
            if type(value) is not str or value not in _entries._ACK_DIRECTIONS:
                raise _entries._Untypeable
            parts.append(_entries._ACK_DIRECTIONS[value])
        elif kind == "row":
            if type(value) is not dict:
                raise _entries._Untypeable
            parts.append(_entries._pack_row_body(value))
        elif kind.startswith("const:"):
            if value != kind[6:]:
                raise _entries._Untypeable
        else:
            parts.append(_REFERENCE_FIELD_PACKERS[kind](value))
    return b"".join(parts)


_REFERENCE_SHAPES = {frozenset(key for key, _ in spec): (tag, spec)
                     for tag, spec in _entries._SHAPE_SPECS.items()}


def reference_encode_content(content) -> bytes:
    """:func:`repro.log.entries.encode_content` over the interpreter."""
    if isinstance(content, dict):
        shape = _REFERENCE_SHAPES.get(frozenset(content))
        if shape is not None:
            try:
                return reference_pack_shape(shape[0], shape[1], content)
            except _entries._Untypeable:
                pass
        try:
            return b"\x0b" + _entries._pack_row_body(content)
        except _entries._Untypeable:
            pass
    return _entries.encode_content_json(content)


def reference_link_hash(previous_hash, sequence, type_name, content_hash):
    """The chain formula as ``hash_concat`` computes it, part by part."""
    return hashing.hash_concat(previous_hash, hashing.encode_int(sequence),
                               type_name, content_hash)


class ReferenceReader:
    """The packed-batch cursor as it was: a method call per byte."""

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
        value = self.varint()
        if value > self.left():
            raise LogFormatError(
                f"{value} announced with {self.left()} bytes left")
        return value

    def bytes(self) -> bytes:
        length = self.count()
        self.offset += length
        return self.data[self.offset - length:self.offset]

    def strings(self):
        try:
            return [self.bytes().decode("utf-8") for _ in range(self.count())]
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"string table is not UTF-8: {exc}") from exc


def reference_authenticators_from_bytes(data: bytes, reader=ReferenceReader):
    """The packed authenticator reader as it was: an ``Authenticator`` per
    row, then ``dataclasses.replace`` for its chain hash and signature."""
    if not data.startswith(AUTH_BATCH_MAGIC):
        raise LogFormatError("not a packed authenticator batch (bad magic)")
    reader = reader(data, len(AUTH_BATCH_MAGIC))
    machines, types = reader.strings(), reader.strings()
    result = []
    for _ in range(reader.count()):
        machine, sequence, tag = reader.varint(), reader.varint(), reader.byte()
        type_index = tag & ~0x80
        if machine >= len(machines) or type_index >= len(types):
            raise LogFormatError(
                f"authenticator row names machine {machine} / entry type "
                f"{type_index} outside the batch's tables")
        auth = Authenticator(
            machine=machines[machine], sequence=sequence, chain_hash=b"",
            signature=b"", previous_hash=reader.bytes(),
            entry_type=types[type_index], content_hash=reader.bytes())
        chain_hash = reader.bytes() if tag & 0x80 else reference_link_hash(
            auth.previous_hash, auth.sequence, auth.entry_type.encode("utf-8"),
            auth.content_hash)
        result.append(replace(auth, chain_hash=chain_hash,
                              signature=reader.bytes()))
    if reader.left():
        raise LogFormatError(
            f"{reader.left()} trailing bytes after the batch")
    return result
