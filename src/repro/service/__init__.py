"""The audit-ingest service layer.

Machines in a fleet stream their sealed log segments, boundary snapshots and
collected peer authenticators to an :class:`AuditIngestService`
(:mod:`repro.service.ingest`), which lands everything in a durable
:class:`~repro.store.archive.LogArchive` and queues the machines for audit.
:class:`~repro.service.target.ArchiveBackedMachine` then serves the archived
logs back through the standard audit-target surface, so the whole audit
stack — ``Auditor``, ``AuditScheduler``, ``SpotChecker``, ``OnlineAuditor``
— runs against the archive with verdicts identical to in-memory audits.

At fleet scale the ingest plane shards (:mod:`repro.service.shard`):
machines are placed onto N service instances by a consistent-hash ring,
each shard owns its own archive root, and a
:class:`~repro.service.fleet.FleetCoordinator` merges per-shard verdicts
and convicts cross-shard equivocation from gossiped authenticators.  See
``docs/fleet-sharding.md``.
"""

from repro.service.fleet import (
    FleetAuditOutcome,
    FleetCoordinator,
)
from repro.service.ingest import (
    DEFAULT_INGEST_IDENTITY,
    AuditIngestService,
    IngestStats,
    QuarantinedShipment,
    format_ingest_report,
)
from repro.service.shard import (
    AuditShard,
    HandoffReport,
    ShardRing,
    migrate_machine,
)
from repro.service.target import ArchiveBackedMachine

__all__ = [
    "ArchiveBackedMachine",
    "AuditIngestService",
    "AuditShard",
    "DEFAULT_INGEST_IDENTITY",
    "FleetAuditOutcome",
    "FleetCoordinator",
    "HandoffReport",
    "IngestStats",
    "QuarantinedShipment",
    "ShardRing",
    "format_ingest_report",
    "migrate_machine",
]
