"""Recording a fleet for audit.

:func:`build_fleet` records a fleet of kv-server / sql-bench pairs, ready
to audit: unarchived, or streamed into one
:class:`~repro.service.ingest.AuditIngestService` that lands every machine's
log in a durable :class:`~repro.store.archive.LogArchive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyStore, build_trust
from repro.errors import StoreError
from repro.network.simnet import SimulatedNetwork
from repro.service.ingest import DEFAULT_INGEST_IDENTITY, AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.image import VMImage
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image

#: a drain round: ship every tail, then let the network settle this long
DRAIN_SETTLE_SECONDS = 1.0
#: rounds a drain may take before the fleet counts as not converging
DRAIN_MAX_ROUNDS = 5


@dataclass
class AuditFleet:
    """A recorded fleet, ready to be audited."""

    monitors: Dict[str, AccountableVMM]
    reference_images: Dict[str, VMImage]
    keystore: KeyStore
    #: peer that holds each machine's authenticators (its pair partner)
    peers: Dict[str, str]
    #: the audit-ingest service, when the fleet was recorded with an archive
    ingest: Optional[AuditIngestService] = None
    scheduler: Optional[Scheduler] = None
    #: per-identity signing keys (the fleet's trust setup); adversarial
    #: harnesses use these to forge validly-signed alternate chains
    keypairs: Dict[str, object] = field(default_factory=dict)

    @property
    def machines(self) -> List[str]:
        return sorted(self.monitors)

    def make_auditor(self, target: str, identity: str = "auditor",
                     collect: bool = True) -> Auditor:
        """An external auditor holding the authenticators the peer collected.

        ``collect=False`` returns the auditor empty-handed — the right
        starting point for archive-backed audits, where the ingest service
        supplies the archived authenticators instead of a live peer.
        """
        auditor = Auditor(identity, self.keystore, self.reference_images[target])
        if collect:
            auditor.collect_from_peer(self.monitors[self.peers[target]], target)
        return auditor

    def assignments(self) -> List[AuditAssignment]:
        return [AuditAssignment(self.make_auditor(machine), self.monitors[machine])
                for machine in self.machines]


def build_fleet(num_machines: int = 16, duration: float = 30.0, seed: int = 7,
                snapshot_interval: Optional[float] = 10.0,
                archive: Optional[LogArchive] = None,
                ingest_identity: str = DEFAULT_INGEST_IDENTITY,
                client_settings: Optional[SqlBenchSettings] = None,
                ship_format_version: int = 1) -> AuditFleet:
    """Record a fleet of ``num_machines`` (server+client pairs) for auditing.

    With an ``archive``, an :class:`~repro.service.ingest.AuditIngestService`
    joins the network under ``ingest_identity`` and every monitor streams its
    sealed segments (plus boundary snapshots and collected peer
    authenticators) to it during the run; the unsealed log tails are shipped
    and drained before the fleet is returned, so the archive holds each
    machine's complete log.  ``client_settings`` overrides the benchmark
    clients' workload shape (its ``server`` field is replaced per pair), e.g.
    fatter row payloads, so raw log bytes grow without growing entry counts.  ``ship_format_version`` selects the
    wire codec the monitors ship segments in (:mod:`repro.log.codec`); the
    archive's own ``format_version`` independently controls the stored
    format, so mixed ship/store configurations are expressible.
    """
    if num_machines < 2 or num_machines % 2:
        raise ValueError(f"fleet size must be an even number >= 2, got {num_machines}")
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                          snapshot_interval=snapshot_interval)

    pairs = [(f"db-server-{index:02d}", f"db-client-{index:02d}")
             for index in range(num_machines // 2)]
    identities = [identity for pair in pairs for identity in pair]
    _, keypairs, keystore = build_trust(identities + ["auditor"],
                                        scheme=config.signature_scheme, seed=seed)

    monitors: Dict[str, AccountableVMM] = {}
    reference_images: Dict[str, VMImage] = {}
    peers: Dict[str, str] = {}
    for index, (server, client) in enumerate(pairs):
        server_image = make_kvserver_image()
        if client_settings is None:
            pair_settings = SqlBenchSettings(server=server)
        else:
            pair_settings = replace(client_settings, server=server)
        client_image = make_sqlbench_image(pair_settings)
        reference_images[server] = server_image
        reference_images[client] = client_image
        peers[server] = client
        peers[client] = server
        monitors[server] = AccountableVMM(
            server, server_image, config, scheduler, network,
            keypair=keypairs[server], keystore=keystore,
            clock_offset=0.0005 * index)
        monitors[client] = AccountableVMM(
            client, client_image, config, scheduler, network,
            keypair=keypairs[client], keystore=keystore,
            clock_offset=0.0005 * index + 0.0002)

    ingest: Optional[AuditIngestService] = None
    if archive is not None:
        ingest = AuditIngestService(archive, identity=ingest_identity,
                                    network=network)
        for monitor in monitors.values():
            monitor.attach_archive_shipper(
                ingest_identity, format_version=ship_format_version)

    for monitor in monitors.values():
        monitor.start()
    scheduler.run_until(duration)
    for monitor in monitors.values():
        monitor.stop()
    if ingest is not None:
        drain_fleet_to_archive(scheduler, monitors)
    return AuditFleet(monitors=monitors, reference_images=reference_images,
                      keystore=keystore, peers=peers, ingest=ingest,
                      scheduler=scheduler, keypairs=keypairs)


def drain_fleet_to_archive(scheduler: Scheduler,
                           monitors: Dict[str, AccountableVMM]) -> None:
    """Flush in-flight traffic, ship the log tails, and deliver everything.

    Delivering a straggler message can append new log entries (a RECV plus
    its ACK), so tail shipping repeats until a whole round ships nothing —
    at that point every monitor's archive mirrors its log exactly.  Raises
    :class:`~repro.errors.StoreError` if the fleet is still producing or
    dropping shipments after :data:`DRAIN_MAX_ROUNDS` (e.g. an unhealed
    partition to the ingest endpoint) rather than returning an incomplete
    archive.
    """
    scheduler.run_until(scheduler.clock.now + DRAIN_SETTLE_SECONDS)
    for _ in range(DRAIN_MAX_ROUNDS):
        shipped = [monitor.ship_archive_tail() for monitor in monitors.values()]
        scheduler.run_until(scheduler.clock.now + DRAIN_SETTLE_SECONDS)
        if not any(shipped):
            break
    unshipped = sorted(monitor.identity for monitor in monitors.values()
                       if not monitor.archive_shipping_complete)
    if unshipped:
        raise StoreError(
            f"archive drain did not converge: {unshipped} still have "
            f"unshipped log entries or authenticators after "
            f"{DRAIN_MAX_ROUNDS} rounds")
