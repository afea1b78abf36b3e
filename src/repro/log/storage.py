"""Serialisation of authenticator batches, and the packed-field primitives.

Log segments are serialised by the wire codecs (:mod:`repro.log.codec`).
Authenticator batches have one form, packed (:func:`authenticators_to_bytes`):
they are hashes and signatures, which no compressor shrinks.  The varint and
length-prefix helpers here are shared with the shipment container and the
archive's frame headers.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import LogFormatError
from repro.log.authenticator import Authenticator
from repro.log.hashchain import link_hash

#: the packed authenticator batch — on the wire (archive shipments) and on
#: disk (an archive frame's payload); docs/log-archive.md
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
        """A canonical unsigned 64-bit varint; one byte takes no loop."""
        data, offset = self.data, self.offset
        if offset < len(data) and data[offset] < 0x80:
            self.offset = offset + 1
            return data[offset]
        value = 0
        for shift in range(0, 64, 7):
            if offset >= len(data):
                raise LogFormatError("truncated authenticator batch")
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if value < 1 << 64 and (byte or not shift):  # canonical
                    self.offset = offset
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
    :class:`LogFormatError`, which is also what bytes without the magic
    get."""
    if not data.startswith(AUTH_BATCH_MAGIC):
        raise LogFormatError("not a packed authenticator batch (bad magic)")
    reader = _Reader(data, len(AUTH_BATCH_MAGIC))
    machines, types = reader.strings(), reader.strings()
    type_names = [name.encode("utf-8") for name in types]
    result = []
    for _ in range(reader.count()):
        machine, sequence, tag = reader.varint(), reader.varint(), reader.byte()
        type_index = tag & ~_ROW_HAS_CHAIN_HASH
        if machine >= len(machines) or type_index >= len(types):
            raise LogFormatError(
                f"authenticator row names machine {machine} / entry type "
                f"{type_index} outside the batch's tables")
        previous_hash, content_hash = reader.bytes(), reader.bytes()
        chain_hash = reader.bytes() if tag & _ROW_HAS_CHAIN_HASH \
            else link_hash(previous_hash, sequence, type_names[type_index],
                           content_hash)
        result.append(Authenticator(
            machine=machines[machine], sequence=sequence,
            chain_hash=chain_hash, signature=reader.bytes(),
            previous_hash=previous_hash, entry_type=types[type_index],
            content_hash=content_hash))
    if reader.left():
        raise LogFormatError(
            f"{reader.left()} trailing bytes after the batch")
    return result
