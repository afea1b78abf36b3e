"""The audit-ingest service layer.

Machines in a fleet stream their sealed log segments, boundary snapshots and
collected peer authenticators to an :class:`AuditIngestService`
(:mod:`repro.service.ingest`), which lands everything in a durable
:class:`~repro.store.archive.LogArchive` and queues the machines for audit.
:class:`~repro.service.target.ArchiveBackedMachine` then serves the archived
logs back through the standard audit-target surface, so the whole audit
stack — ``Auditor``, ``AuditScheduler``, ``SpotChecker``, ``OnlineAuditor``
— runs against the archive with verdicts identical to in-memory audits.
"""

from repro.service.ingest import (
    DEFAULT_INGEST_IDENTITY,
    AuditIngestService,
    IngestStats,
    QuarantinedShipment,
    format_ingest_report,
)
from repro.service.target import ArchiveBackedMachine

__all__ = [
    "ArchiveBackedMachine",
    "AuditIngestService",
    "DEFAULT_INGEST_IDENTITY",
    "IngestStats",
    "QuarantinedShipment",
    "format_ingest_report",
]
