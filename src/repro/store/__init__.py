"""Durable log storage (the archive behind the audit-ingest pipeline).

The paper's machines keep their tamper-evident logs until a mutually-agreed
checkpoint lets them truncate (Section 4.2); at datacenter scale that means
a durable, indexed, garbage-collected archive rather than a log in RAM.

* :mod:`repro.store.manifest` — the on-disk formats: a machine's append-only
  frame file (each frame's header is its index record: segment ranges, chain
  hashes, authenticator batches, snapshots) and the checkpoint that names
  the files and retention anchors.
* :mod:`repro.store.archive` — :class:`LogArchive`: one durable commit per
  shipment, chain-verified ingest, crash recovery, binary-search range
  lookup and checkpoint GC.
"""

from repro.store.archive import (
    ArchiveSnapshotStore,
    LogArchive,
    RecoveryReport,
)
from repro.store.manifest import (
    AuthBatchRecord,
    SegmentRecord,
    SnapshotRecord,
)

__all__ = [
    "ArchiveSnapshotStore",
    "AuthBatchRecord",
    "LogArchive",
    "RecoveryReport",
    "SegmentRecord",
    "SnapshotRecord",
]
