"""Log entry types and canonical encodings.

The AVMM's log interleaves two parallel streams of information (Section 4.4):
message exchanges (SEND / RECV / ACK) and nondeterministic inputs (timer
interrupts, clock reads, device inputs).  Snapshot hashes and audit-protocol
records (challenges, evidence references) are also logged so they are covered
by the hash chain.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Dict, Optional, Tuple

from repro.crypto import hashing
from repro.errors import LogFormatError


class EntryType(enum.Enum):
    """Types of tamper-evident log entries."""

    SEND = "send"                  # outgoing network message
    RECV = "recv"                  # incoming network message (with sender signature)
    ACK = "ack"                    # acknowledgment sent or received
    NONDET = "nondet"              # nondeterministic input event (replay stream)
    SNAPSHOT = "snapshot"          # hash-tree root of a VM snapshot
    TIMETRACKER = "timetracker"    # VMM timing record (execution timestamps)
    MACLAYER = "maclayer"          # MAC-layer record of a packet entering/leaving the AVM
    CHALLENGE = "challenge"        # audit challenge received
    RESPONSE = "response"          # response to an audit challenge
    ANNOTATION = "annotation"      # free-form marker (experiment bookkeeping)

    # Members are singletons compared by identity, so identity is an exact
    # hash, and a dict keyed by entry type (a link, a required-field set per
    # entry) skips ``Enum.__hash__``, which hashes the name in Python.
    __hash__ = object.__hash__

    @property
    def wire_name(self) -> str:
        return self.value


# Entry types that carry deterministic-replay information (used for the
# Figure 4 log-content breakdown).
REPLAY_ENTRY_TYPES = frozenset({
    EntryType.NONDET, EntryType.TIMETRACKER, EntryType.MACLAYER,
})

# Entry types added purely for tamper evidence / accountability.
ACCOUNTABILITY_ENTRY_TYPES = frozenset({
    EntryType.SEND, EntryType.RECV, EntryType.ACK, EntryType.SNAPSHOT,
    EntryType.CHALLENGE, EntryType.RESPONSE,
})


#: what :meth:`LogEntry.size_bytes` adds to the content bytes: sequence (8)
#: + type tag (up to 12) + chain hash (32) + timestamp (8)
ENTRY_OVERHEAD_BYTES = 8 + 12 + 32 + 8


@dataclass(frozen=True)
class LogEntry:
    """A single tamper-evident log entry.

    ``content`` is a JSON-serialisable dictionary; its canonical encoding is
    what gets hashed into the chain, so two logs with equal content produce
    equal chain hashes.
    """

    sequence: int
    entry_type: EntryType
    content: Dict[str, Any]
    chain_hash: bytes
    previous_hash: bytes
    timestamp: float = 0.0

    def encoded_content(self) -> bytes:
        """The canonical encoding of the entry content, memoised.

        Canonicalisation (:func:`encode_content`) sits on the hot path of
        chain hashing, cost accounting and the binary wire format, so the
        result is cached on first use.  The cache deliberately lives in the
        instance ``__dict__`` rather than as a dataclass field:
        ``dataclasses.replace`` (used e.g. by the tampering adversaries to
        forge variants of an entry) copies fields, and a copied stale cache
        would make a tampered entry hash like the original — the non-field
        cache is simply absent on the new instance and gets recomputed.
        """
        cached = self.__dict__.get("_encoded_content")
        if cached is None:
            cached = encode_content(self.content)
            seed_encoded_content(self, cached, canonical=True)
        return cached

    def content_hash(self) -> bytes:
        """Hash of the cached content encoding, memoised beside it (same
        non-field cache, so ``dataclasses.replace`` drops both)."""
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            cached = hashing.hash_bytes(self.encoded_content())
            self.__dict__["_content_hash"] = cached
        return cached

    def canonical_content_hash(self) -> bytes:
        """``H(encode_content(content))`` — what a reader that rebuilds the
        entry from its content *dict* (a v1 row) will hash.  It is
        :meth:`content_hash` unless the cache holds wire bytes nobody
        re-canonicalised (a legacy canonical-JSON log, a forged frame)."""
        if self.__dict__.get("_canonical", True):
            return self.content_hash()
        return hashing.hash_bytes(encode_content(self.content))

    def size_bytes(self) -> int:
        """Approximate on-disk size of the entry (content + fixed overhead)."""
        return len(self.encoded_content()) + ENTRY_OVERHEAD_BYTES

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a plain dictionary."""
        return {
            "sequence": self.sequence,
            "type": self.entry_type.wire_name,
            "content": self.content,
            "chain_hash": self.chain_hash.hex(),
            "previous_hash": self.previous_hash.hex(),
            "timestamp": self.timestamp,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "LogEntry":
        """Reconstruct an entry from :meth:`to_dict` output."""
        try:
            return LogEntry(
                sequence=int(data["sequence"]),
                entry_type=EntryType(data["type"]),
                content=dict(data["content"]),
                chain_hash=bytes.fromhex(data["chain_hash"]),
                previous_hash=bytes.fromhex(data["previous_hash"]),
                timestamp=float(data.get("timestamp", 0.0)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise LogFormatError(f"malformed log entry: {exc}") from exc

    def __getattr__(self, name: str) -> Any:
        # Lazy content materialization: entries decoded from the v3 wire
        # format carry only the verbatim canonical bytes (seeded into
        # ``_encoded_content`` by :func:`lazy_entry`) and defer parsing until
        # a consumer actually reads ``content``.  Chain verification,
        # authenticator checks and cost accounting only touch
        # ``encoded_content()``/hashes, so they never pay for a parse.
        if name == "content":
            encoded = self.__dict__.get("_encoded_content")
            if encoded is not None:
                content = decode_content(encoded)
                _MATERIALIZATIONS.count += 1
                object.__setattr__(self, "content", content)
                return content
        raise AttributeError(name)


def seed_encoded_content(entry: LogEntry, data: bytes,
                         content_hash: Optional[bytes] = None,
                         canonical: bool = False) -> None:
    """Pre-populate ``entry``'s encoded-content cache with known-good bytes.

    Used by writers that just produced the canonical encoding (the recorder
    hashes it into the chain as the entry is appended — ``canonical=True``)
    and by the v3 codec, whose wire frames carry the canonical bytes
    verbatim — chain verification then hashes exactly the bytes that came off
    the wire, so a non-canonical or tampered serialisation can never verify.
    ``content_hash`` is ``H(data)`` when the caller already computed it.
    """
    cache = entry.__dict__
    cache["_encoded_content"] = bytes(data)
    cache["_content_hash"] = content_hash
    cache["_canonical"] = canonical


class _MaterializationStats:
    """Process-wide count of content parses (wire bytes -> dict).

    Incremented by every codec path that turns canonical content bytes into
    a ``content`` dictionary: the v1 row decoder and the lazy v3 accessor.
    A chain-verify-only pass over a v3 stream should leave this untouched;
    the count is read through :func:`content_materializations_total`.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_MATERIALIZATIONS = _MaterializationStats()


def content_materializations_total() -> int:
    """Total content materializations performed by this process so far."""
    return _MATERIALIZATIONS.count


def count_materialization() -> None:
    """Record one content parse (used by the eager v1 decode path)."""
    _MATERIALIZATIONS.count += 1


def lazy_entry(sequence: int, entry_type: EntryType, encoded_content: bytes,
               chain_hash: bytes, previous_hash: bytes,
               timestamp: float = 0.0,
               content_hash: Optional[bytes] = None,
               canonical: bool = False) -> LogEntry:
    """Construct a :class:`LogEntry` whose content is parsed on first access.

    The verbatim canonical bytes are seeded into the encoded-content cache
    (with their hash, when the decoder computed it to fill an elided chain
    hash); ``entry.content`` stays unset until a consumer reads it, at which
    point :meth:`LogEntry.__getattr__` decodes the cached bytes.  Hash-chain
    and authenticator verification operate on ``encoded_content()`` alone, so
    a verification-only pass performs zero content parses.  ``canonical``
    as in :func:`seed_encoded_content`.
    """
    entry = LogEntry.__new__(LogEntry)
    # One key at a time, always in this order, so that every entry's
    # ``__dict__`` shares the class's key table: a live log holds one entry
    # per event, and ``__dict__.update`` would give each a table of its own.
    fields = entry.__dict__
    fields["sequence"] = sequence
    fields["entry_type"] = entry_type
    fields["chain_hash"] = chain_hash
    fields["previous_hash"] = previous_hash
    fields["timestamp"] = timestamp
    seed_encoded_content(entry, encoded_content, content_hash, canonical)
    return entry


# ---------------------------------------------------------------------------
# Typed content codec.
#
# The canonical encoding of entry content used to be canonical JSON for every
# entry; profiling showed the one ``json.loads`` per entry dominating decode.
# The typed layer struct-packs the high-frequency content shapes behind a
# one-byte tag; canonical JSON remains the always-correct fallback for any
# dict the typed encoders cannot represent exactly.  The two encodings are
# disjoint on the first byte — typed tags are 0x01..0x1F while canonical JSON
# for an object always starts with ``{`` (0x7B) — so the decoder dispatches on
# a single byte and a forged cross-encoding collision would require breaking
# the hash function.
#
# Every typed encoder is *strict*: it only claims a dict when the decode of
# its output reproduces the dict exactly (same keys, same value types).  On
# any mismatch it falls through — first to the generic row codec (flat
# str->scalar dicts, the shared encoding for sqlbench rows/counters and kv
# ops), then to JSON — so ``decode_content(encode_content(d)) == d`` holds
# for every encodable dict, whichever tier it lands on.  Each shape's checks
# and packs are compiled into one function at import (``_compile_packer``).
#
# The RECV shape has a second packer compiled from the same spec: one whose
# hex fields arrive as raw bytes (``_RAW_KIND_CODE``), so a message's payload
# goes from the envelope into the entry without a hex round trip
# (``encode_recv_content``).  It claims exactly the fields the dict packer
# would, and on ``_Untypeable`` it builds the dict and calls
# ``encode_content``: its bytes equal ``encode_content(recv_content(...))``
# whichever tier that lands on.
# ---------------------------------------------------------------------------

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_U64_MAX = 0xFFFFFFFFFFFFFFFF
_I64_MIN = -(1 << 63)

TAG_SEND = 0x01
TAG_RECV = 0x02
TAG_RECV_PAYLOAD = 0x03
TAG_ACK = 0x04
TAG_SNAPSHOT = 0x05
TAG_TIMETRACKER_VALUE = 0x06
TAG_TIMETRACKER_TICK = 0x07
TAG_MACLAYER_IN = 0x08
TAG_MACLAYER_OUT = 0x09
TAG_NONDET = 0x0A
TAG_ROW = 0x0B
TAG_RECV_COMMITMENT = 0x0C

_JSON_FIRST_BYTE = 0x7B  # '{'


class _Untypeable(Exception):
    """Internal: the value does not fit the typed encoding; fall back."""


def _hash32_or_none(value: str) -> Optional[bytes]:
    """Return the 32 raw bytes for a canonical (lowercase) 64-char hex digest."""
    if len(value) != 64:
        return None
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        return None
    if raw.hex() != value:  # rejects uppercase and embedded whitespace
        return None
    return raw


def _pack_short_str(value: Any) -> bytes:
    if type(value) is not str:
        raise _Untypeable
    try:
        data = value.encode("utf-8")
    except UnicodeEncodeError:
        raise _Untypeable from None
    if len(data) > 0xFFFF:
        raise _Untypeable
    return _U16.pack(len(data)) + data


def _pack_hexblob(value: Any) -> bytes:
    if type(value) is not str or len(value) % 2:
        raise _Untypeable
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise _Untypeable from None
    if raw.hex() != value or len(raw) > 0xFFFFFFFF:
        raise _Untypeable
    return _U32.pack(len(raw)) + raw


_ACK_DIRECTIONS = {"sent": b"\x00", "received": b"\x01"}

# Wire field order for each dedicated content tag.  Field kinds: "s" short
# string (u16 length + UTF-8), "u64"/"f64" little-endian scalars, "h32" a
# 64-char lowercase hex digest stored as 32 raw bytes, "hex" an even-length
# lowercase hex string stored as u32 length + raw bytes, "dir" the ACK
# direction enum byte, "row" a nested flat row body, "const:X" a key whose
# value must equal the literal X and occupies no wire bytes.
#
# TAG_RECV / TAG_RECV_PAYLOAD are read-only legacy (logs recorded while the
# envelope carried its own signature); the monitor writes TAG_RECV_COMMITMENT.
_SHAPE_SPECS: Dict[int, Tuple[Tuple[str, str], ...]] = {
    TAG_SEND: (
        ("destination", "s"), ("message_id", "s"),
        ("payload_hash", "h32"), ("payload_size", "u64"),
    ),
    TAG_RECV: (
        ("source", "s"), ("message_id", "s"), ("payload_hash", "h32"),
        ("payload_size", "u64"), ("sender_signature", "hex"),
    ),
    TAG_RECV_PAYLOAD: (
        ("source", "s"), ("message_id", "s"), ("payload_hash", "h32"),
        ("payload_size", "u64"), ("sender_signature", "hex"),
        ("payload", "hex"), ("kind", "s"),
    ),
    TAG_ACK: (
        ("peer", "s"), ("message_id", "s"), ("direction", "dir"),
        ("acked_sequence", "u64"),
    ),
    TAG_SNAPSHOT: (
        ("snapshot_id", "u64"), ("state_root", "h32"),
        ("execution_counter", "u64"),
    ),
    TAG_TIMETRACKER_VALUE: (
        ("event_kind", "s"), ("execution_counter", "u64"),
        ("branch_counter", "u64"), ("value", "f64"),
    ),
    TAG_TIMETRACKER_TICK: (
        ("event_kind", "s"), ("execution_counter", "u64"),
        ("branch_counter", "u64"), ("tick_number", "u64"),
    ),
    TAG_MACLAYER_IN: (
        ("direction", "const:in"), ("message_id", "s"), ("source", "s"),
        ("payload_size", "u64"), ("execution_counter", "u64"),
        ("branch_counter", "u64"),
    ),
    TAG_MACLAYER_OUT: (
        ("direction", "const:out"), ("message_id", "s"),
        ("destination", "s"), ("payload_hash", "h32"),
        ("payload_size", "u64"), ("execution_counter", "u64"),
        ("branch_counter", "u64"),
    ),
    TAG_NONDET: (
        ("event_kind", "s"), ("execution_counter", "u64"), ("data", "row"),
    ),
    TAG_RECV_COMMITMENT: (
        ("source", "s"), ("message_id", "s"), ("payload_size", "u64"),
        ("sender_sequence", "u64"), ("sender_previous_hash", "h32"),
        ("sender_signature", "hex"), ("payload", "hex"), ("kind", "s"),
    ),
}


def _pack_row_value(value: Any) -> bytes:
    if value is None:
        return b"\x00"
    kind = type(value)
    if kind is bool:
        return b"\x02" if value else b"\x01"
    if kind is int:
        if 0 <= value:
            if value <= _U64_MAX:
                return b"\x03" + _U64.pack(value)
            raise _Untypeable
        if value >= _I64_MIN:
            return b"\x04" + _I64.pack(value)
        raise _Untypeable
    if kind is float:
        return b"\x05" + _F64.pack(value)
    if kind is str:
        raw = _hash32_or_none(value)
        if raw is not None:
            return b"\x07" + raw
        try:
            data = value.encode("utf-8")
        except UnicodeEncodeError:
            raise _Untypeable from None
        if len(data) > 0xFFFFFFFF:
            raise _Untypeable
        return b"\x06" + _U32.pack(len(data)) + data
    raise _Untypeable


def _pack_row_body(mapping: Dict[str, Any]) -> bytes:
    try:
        items = sorted(mapping.items())
    except TypeError:
        raise _Untypeable from None
    parts = [_U32.pack(len(items))]
    for key, value in items:
        if type(key) is not str:
            raise _Untypeable
        parts.append(_pack_short_str(key))
        parts.append(_pack_row_value(value))
    return b"".join(parts)


#: per field kind of a shape spec: its struct code if it is fixed-width,
#: then the compiled packer's statements over the field's value ``{v}`` —
#: they raise :class:`_Untypeable` wherever it would not decode back
#: exactly, and leave ``{v}`` bound to what goes on the wire
_KIND_CODE = {
    "s": ("", "if type({v}) is not str: raise _Untypeable",
          "try: {v} = {v}.encode('utf-8')",
          "except UnicodeEncodeError: raise _Untypeable from None",
          "if len({v}) > 0xFFFF: raise _Untypeable",
          "{v} = _U16.pack(len({v})) + {v}"),
    "u64": ("Q", "if type({v}) is not int or not 0 <= {v} <= _U64_MAX: "
                 "raise _Untypeable"),
    "f64": ("d", "if type({v}) is not float: raise _Untypeable"),
    "h32": ("32s", "if type({v}) is not str: raise _Untypeable",
            "{v} = _hash32_or_none({v})", "if {v} is None: raise _Untypeable"),
    "hex": ("", "{v} = _pack_hexblob({v})"),
    "dir": ("", "if type({v}) is not str or {v} not in _ACK_DIRECTIONS: "
                "raise _Untypeable", "{v} = _ACK_DIRECTIONS[{v}]"),
    "row": ("", "if type({v}) is not dict: raise _Untypeable",
            "{v} = _pack_row_body({v})"),
}

#: :data:`_KIND_CODE` for a packer given raw fields: a "h32" or "hex" value
#: arrives as the ``bytes`` whose ``.hex()`` the content dict would hold, so
#: it is length-checked and packed as it is, never hex-converted
_RAW_KIND_CODE = dict(
    _KIND_CODE,
    h32=("32s", "if type({v}) is not bytes or len({v}) != 32: "
                "raise _Untypeable"),
    hex=("", "if type({v}) is not bytes or len({v}) > 0xFFFFFFFF: "
             "raise _Untypeable", "{v} = _U32.pack(len({v})) + {v}"))


def _compile_packer(tag: int, spec: Tuple[Tuple[str, str], ...],
                    kind_code: Dict[str, Tuple[str, ...]] = _KIND_CODE):
    """``content -> typed bytes`` for one shape, compiled once at import.

    The spec's checks run field by field, in spec order; each run of
    adjacent fixed-width fields then packs through one ``struct.Struct``.
    Raises :class:`_Untypeable` where a field does not fit, so that
    :func:`encode_content` falls through to the next tier.
    """
    namespace = dict(_Untypeable=_Untypeable, _U16=_U16, _U32=_U32,
                     _U64_MAX=_U64_MAX,
                     _ACK_DIRECTIONS=_ACK_DIRECTIONS,
                     _hash32_or_none=_hash32_or_none,
                     _pack_hexblob=_pack_hexblob, _pack_row_body=_pack_row_body)
    lines, fields = [], []  # fields: (struct code, value name)
    for index, (key, kind) in enumerate(spec):
        v = f"v{index}"
        lines.append(f"{v} = content[{key!r}]")
        if kind.startswith("const:"):
            lines.append(f"if {v} != {kind[6:]!r}: raise _Untypeable")
            continue
        code, *checks = kind_code[kind]
        lines += [check.format(v=v) for check in checks]
        fields.append((code, v))
    wire = [repr(bytes((tag,)))]
    for fixed, run in groupby(fields, key=lambda field: bool(field[0])):
        codes, names = zip(*run)
        if fixed:
            packer = f"_S{len(namespace)}"
            namespace[packer] = struct.Struct("<" + "".join(codes))
            names = [f"{packer}.pack({', '.join(names)})"]
        wire += names
    exec("def pack(content):\n" + "".join(f"    {line}\n" for line in lines)
         + f"    return b''.join(({', '.join(wire)},))\n", namespace)
    return namespace["pack"]


#: each dedicated shape's compiled packer, by the key set of its content
_PACKER_BY_KEYS = {frozenset(key for key, _ in spec): _compile_packer(tag, spec)
                   for tag, spec in _SHAPE_SPECS.items()}

#: the RECV shape the monitor writes, over raw fields (:func:`encode_recv_content`)
_pack_recv_raw = _compile_packer(
    TAG_RECV_COMMITMENT, _SHAPE_SPECS[TAG_RECV_COMMITMENT], _RAW_KIND_CODE)


class _ContentReader:
    """Cursor over typed content bytes; raises LogFormatError on truncation."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 1):
        self.data = data
        self.pos = pos

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise LogFormatError("typed entry content is truncated")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def short_str(self) -> str:
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"typed entry content has invalid UTF-8: {exc}") from exc

    def long_str(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"typed entry content has invalid UTF-8: {exc}") from exc

    def hexblob(self) -> str:
        return self.take(self.u32()).hex()

    def hash32(self) -> str:
        return self.take(32).hex()

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise LogFormatError("typed entry content has trailing bytes")


def _read_row_value(reader: _ContentReader) -> Any:
    kind = reader.take(1)
    if kind == b"\x03":
        return reader.u64()
    if kind == b"\x07":
        return reader.hash32()
    if kind == b"\x05":
        return reader.f64()
    if kind == b"\x06":
        return reader.long_str()
    if kind == b"\x00":
        return None
    if kind == b"\x01":
        return False
    if kind == b"\x02":
        return True
    if kind == b"\x04":
        return reader.i64()
    raise LogFormatError(f"unknown row value type 0x{kind.hex()}")


def _unpack_row_body(reader: _ContentReader) -> Dict[str, Any]:
    count = reader.u32()
    content: Dict[str, Any] = {}
    for _ in range(count):
        key = reader.short_str()
        content[key] = _read_row_value(reader)
    return content


def _unpack_shape(spec: Tuple[Tuple[str, str], ...], data: bytes) -> Dict[str, Any]:
    reader = _ContentReader(data)
    content: Dict[str, Any] = {}
    for key, kind in spec:
        if kind == "s":
            content[key] = reader.short_str()
        elif kind == "u64":
            content[key] = reader.u64()
        elif kind == "h32":
            content[key] = reader.hash32()
        elif kind == "hex":
            content[key] = reader.hexblob()
        elif kind == "f64":
            content[key] = reader.f64()
        elif kind == "dir":
            token = reader.take(1)
            if token == b"\x00":
                content[key] = "sent"
            elif token == b"\x01":
                content[key] = "received"
            else:
                raise LogFormatError("invalid ack direction byte")
        elif kind == "row":
            content[key] = _unpack_row_body(reader)
        else:
            content[key] = kind[6:]  # const:X
    reader.expect_end()
    return content


def encode_content(content: Dict[str, Any]) -> bytes:
    """Canonical byte encoding of entry content (typed fast path + JSON).

    Dicts matching one of the dedicated content shapes struct-pack behind
    their tag byte; other flat str->scalar dicts take the generic row tag;
    everything else falls back to canonical JSON (sorted keys, hex-encoded
    bytes).  All three tiers are deterministic, so equal content always
    produces equal canonical bytes and equal chain hashes.
    """
    if isinstance(content, dict):
        pack = _PACKER_BY_KEYS.get(frozenset(content))
        if pack is not None:
            try:
                return pack(content)
            except _Untypeable:
                pass
        try:
            return b"\x0b" + _pack_row_body(content)
        except _Untypeable:
            pass
    return encode_content_json(content)


def encode_content_json(content: Dict[str, Any]) -> bytes:
    """Canonical JSON encoding of entry content (the pre-typed-codec rule).

    Keys are sorted and bytes values are hex-encoded so the encoding is stable
    across processes and Python versions.  Logs recorded before the typed
    fast path existed committed their hash chains to these bytes; chain
    verification falls back to them when the typed encoding does not match
    (:func:`repro.log.hashchain.verify_entry`).
    """
    try:
        return json.dumps(content, sort_keys=True, separators=(",", ":"),
                          default=_default).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise LogFormatError(f"log entry content is not serialisable: {exc}") from exc


def decode_content(data: bytes) -> Dict[str, Any]:
    """Decode canonical content bytes (typed or JSON) back into a dict.

    Raises :class:`LogFormatError` for anything malformed: unknown tags,
    truncated or trailing bytes, invalid UTF-8, or JSON that is not an
    object.
    """
    if not data:
        raise LogFormatError("entry content is empty")
    tag = data[0]
    if tag == _JSON_FIRST_BYTE:
        try:
            content = json.loads(data)
        except (UnicodeDecodeError, ValueError) as exc:
            raise LogFormatError(f"entry content carries undecodable JSON: {exc}") from exc
        if not isinstance(content, dict):
            raise LogFormatError("entry content is not an object")
        return content
    if tag == TAG_ROW:
        reader = _ContentReader(data)
        content = _unpack_row_body(reader)
        reader.expect_end()
        return content
    spec = _SHAPE_SPECS.get(tag)
    if spec is None:
        raise LogFormatError(f"unknown typed-content tag 0x{tag:02x}")
    return _unpack_shape(spec, data)


def _default(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    raise TypeError(f"cannot encode {type(value)!r} in log entry content")


# ---------------------------------------------------------------------------
# Convenience constructors for the common entry payloads.
# ---------------------------------------------------------------------------

def send_content(destination: str, payload_hash: bytes, payload_size: int,
                 message_id: str) -> Dict[str, Any]:
    """Content dictionary for a SEND entry."""
    return {
        "destination": destination,
        "payload_hash": payload_hash.hex(),
        "payload_size": payload_size,
        "message_id": message_id,
    }


def recv_content(source: str, payload: bytes, message_id: str, kind: str,
                 sender: Optional[Any] = None) -> Dict[str, Any]:
    """Content dictionary for a RECV entry: the message and the sender's
    commitment to it (Section 4.3).

    ``sender`` is the authenticator the message arrived with; its ``s_i``,
    ``h_{i-1}`` and signature are logged.  ``h_i`` and the payload hash are
    not: :func:`repro.log.authenticator.recv_commitment` recomputes both.
    The monitor packs its encoding from the same fields without building
    this dict (:func:`encode_recv_content`).
    """
    return {
        "source": source,
        "message_id": message_id,
        "payload_size": len(payload),
        "sender_sequence": sender.sequence if sender else 0,
        "sender_previous_hash":
            (sender.previous_hash if sender else hashing.ZERO_HASH).hex(),
        "sender_signature": sender.signature.hex() if sender else "",
        "payload": payload.hex(),
        "kind": kind,
    }


def encode_recv_content(source: str, payload: bytes, message_id: str,
                        kind: str, sender: Optional[Any] = None) -> bytes:
    """``encode_content(recv_content(...))``, packed from the raw fields.

    Both ends of a message build its RECV entry this way: the sender to hash
    the receipt it expects, the receiver to append the entry.  The payload,
    ``h_{i-1}`` and signature are packed as the bytes they are, so neither
    party hex-converts the payload.  Where a field does not fit the
    typed shape (a source over 64 KiB, a string that is not UTF-8, a hash
    that is not 32 bytes) the content dict is built and encoded after all,
    so the bytes are always the ones a reader rebuilding the dict hashes.
    """
    try:
        return _pack_recv_raw({
            "source": source, "message_id": message_id,
            "payload_size": len(payload),
            "sender_sequence": sender.sequence if sender else 0,
            "sender_previous_hash":
                sender.previous_hash if sender else hashing.ZERO_HASH,
            "sender_signature": sender.signature if sender else b"",
            "payload": payload, "kind": kind})
    except _Untypeable:
        return encode_content(recv_content(source, payload, message_id, kind,
                                           sender))


def ack_content(peer: str, message_id: str, direction: str,
                acked_sequence: int) -> Dict[str, Any]:
    """Content dictionary for an ACK entry (direction: 'sent' or 'received')."""
    if direction not in ("sent", "received"):
        raise LogFormatError(f"invalid ack direction {direction!r}")
    return {
        "peer": peer,
        "message_id": message_id,
        "direction": direction,
        "acked_sequence": acked_sequence,
    }


def snapshot_content(snapshot_id: int, state_root: bytes,
                     execution_counter: int) -> Dict[str, Any]:
    """Content dictionary for a SNAPSHOT entry."""
    return {
        "snapshot_id": snapshot_id,
        "state_root": state_root.hex(),
        "execution_counter": execution_counter,
    }


def nondet_content(event_kind: str, execution_counter: int,
                   data: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Content dictionary for a NONDET (nondeterministic input) entry."""
    return {
        "event_kind": event_kind,
        "execution_counter": execution_counter,
        "data": data or {},
    }
