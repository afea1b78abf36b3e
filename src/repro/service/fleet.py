"""The fleet coordination plane over sharded audit ingest.

:class:`FleetCoordinator` owns what no single shard can decide alone:

* **Placement** — a :class:`~repro.service.shard.ShardRing` maps every
  machine to its home shard, with an override table for machines moved by
  :meth:`rebalance` mid-run.
* **Verdict merge** — each shard audits the machines whose chains it holds
  (quarantined shipments become SUSPECTED verdicts, exactly as the
  single-service pipeline decides them); the coordinator merges the
  per-shard results into one :class:`FleetAuditOutcome`.
* **Cross-shard equivocation conviction** — shards gossip their archived
  authenticators in serialized wire form
  (:meth:`~repro.service.shard.AuditShard.export_authenticator_gossip`);
  the coordinator decodes the bytes *itself*, pools them per issuer, and
  runs :func:`~repro.audit.multiparty.find_equivocation`, so a machine that
  ships chain ``h`` to one shard and ``h'`` to another is convicted from
  two signed authenticators alone.  The resulting
  :class:`~repro.audit.multiparty.EquivocationProof` is round-tripped
  through its wire form and re-verified against the coordinator's own
  keystore — zero trust in the reporting shard: a Byzantine shard can
  *withhold* evidence, but can neither fabricate a conviction nor launder
  a false one.

:func:`build_fleet` records a fleet of kv-server / sql-bench pairs, ready
to audit: unarchived, streamed into one
:class:`~repro.service.ingest.AuditIngestService`, or sharded through a
coordinator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment
from repro.audit.multiparty import EquivocationProof, find_equivocation
from repro.audit.verdict import AuditCost, AuditResult, Verdict
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyStore, build_trust
from repro.errors import StoreError
from repro.log.authenticator import Authenticator
from repro.log.storage import authenticators_from_bytes
from repro.network.simnet import SimulatedNetwork
from repro.obs import NULL_OBS, Observability, ensure_obs
from repro.service.ingest import DEFAULT_INGEST_IDENTITY, AuditIngestService
from repro.service.shard import (AuditShard, DEFAULT_RING_REPLICAS,
                                 HandoffReport, ShardRing, migrate_machine)
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.image import VMImage
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image

DEFAULT_SHARD_PREFIX = "audit-shard"


@dataclass
class FleetAuditOutcome:
    """The merged result of one fleet-wide audit pass."""

    #: per-machine audit results, merged across shards
    results: Dict[str, AuditResult] = field(default_factory=dict)
    #: which shard produced each machine's verdict
    shard_of: Dict[str, str] = field(default_factory=dict)
    #: machines convicted of equivocation, with the (re-verified) proof
    convictions: Dict[str, EquivocationProof] = field(default_factory=dict)
    #: machines whose chains appear on more than one shard with diverging
    #: hashes — a placement-integrity alarm (detection, not conviction)
    cross_shard_forks: List[str] = field(default_factory=list)
    #: per-machine quarantined-shipment counts observed at the shards
    quarantined: Dict[str, int] = field(default_factory=dict)

    def faulty_machines(self) -> List[str]:
        """Machines with a non-PASS verdict or an equivocation conviction."""
        names = {machine for machine, result in self.results.items()
                 if result.verdict is not Verdict.PASS}
        names.update(self.convictions)
        return sorted(names)

    def verdict_for(self, machine: str) -> str:
        """The merged verdict string: a conviction trumps any audit result."""
        if machine in self.convictions:
            return "convicted"
        result = self.results.get(machine)
        return result.verdict.value if result is not None else "unknown"

    @property
    def all_passed(self) -> bool:
        return not self.faulty_machines()

    def total_cost(self) -> AuditCost:
        return AuditCost.total(result.cost for result in self.results.values())


class FleetCoordinator:
    """Places machines on shards, merges verdicts, convicts across shards."""

    def __init__(self, shards: Sequence[AuditShard],
                 replicas: int = DEFAULT_RING_REPLICAS,
                 obs: Optional[Observability] = None) -> None:
        if not shards:
            raise StoreError("a fleet needs at least one shard")
        self.shards: List[AuditShard] = sorted(shards,
                                               key=lambda s: s.identity)
        self._by_identity = {shard.identity: shard for shard in self.shards}
        if len(self._by_identity) != len(self.shards):
            raise StoreError("shard identities must be unique")
        self.ring = ShardRing((shard.identity for shard in self.shards),
                              replicas=replicas)
        #: machines explicitly moved off their ring shard by rebalance()
        self._placement_overrides: Dict[str, str] = {}
        self.obs = ensure_obs(obs)
        metrics = self.obs.metrics.scoped("fleet.")
        self._m_shards = metrics.gauge("shards")
        self._m_shards.set(len(self.shards))
        self._m_audited = metrics.counter("machines_audited_total")
        self._m_convicted = metrics.counter("equivocations_convicted_total")
        self._m_migrations = metrics.counter("migrations_total")
        self._m_forks = metrics.counter("cross_shard_forks_total")

    @classmethod
    def build(cls, root: Union[str, Path], shard_count: int,
              network: Optional[SimulatedNetwork] = None,
              format_version: int = 1,
              identity_prefix: str = DEFAULT_SHARD_PREFIX,
              replicas: int = DEFAULT_RING_REPLICAS,
              obs: Optional[Observability] = None) -> "FleetCoordinator":
        """A coordinator over ``shard_count`` fresh shards under ``root``."""
        if shard_count < 1:
            raise StoreError(f"shard_count must be >= 1, got {shard_count}")
        root = Path(root)
        shards = [
            AuditShard.create(f"{identity_prefix}-{index:02d}",
                              root / f"{identity_prefix}-{index:02d}",
                              network=network, format_version=format_version,
                              obs=obs)
            for index in range(shard_count)]
        return cls(shards, replicas=replicas, obs=obs)

    # -- placement -----------------------------------------------------------

    def shard(self, identity: str) -> AuditShard:
        shard = self._by_identity.get(identity)
        if shard is None:
            raise StoreError(f"no shard {identity!r} in this fleet")
        return shard

    def shard_for_machine(self, machine: str) -> AuditShard:
        """The machine's home shard: override table first, then the ring."""
        override = self._placement_overrides.get(machine)
        if override is not None:
            return self.shard(override)
        return self.shard(self.ring.shard_for(machine))

    def connect(self, network: SimulatedNetwork) -> None:
        """Register every shard's ingest endpoint on ``network``."""
        for shard in self.shards:
            shard.service.connect(network)

    def attach_fleet(self, monitors: Iterable, format_version: int = 1,
                     ship_authenticators: bool = True) -> None:
        """Point each monitor's archive shipper at its home shard."""
        for monitor in monitors:
            destination = self.shard_for_machine(monitor.identity).identity
            monitor.attach_archive_shipper(
                destination, ship_authenticators=ship_authenticators,
                format_version=format_version)

    def machines(self) -> List[str]:
        """Every machine any shard must produce a verdict for, sorted."""
        names = set()
        for shard in self.shards:
            names.update(shard.auditable_machines())
        return sorted(names)

    # -- cross-shard gossip --------------------------------------------------

    def gossip_authenticators(self) -> Dict[str, Dict[str, bytes]]:
        """Every shard's serialized authenticator export, by shard id."""
        return {shard.identity: shard.export_authenticator_gossip()
                for shard in self.shards}

    @staticmethod
    def pool_gossip(gossip: Dict[str, Dict[str, bytes]],
                    machine: str) -> List[Authenticator]:
        """Decode and pool one issuer's authenticators across all shards.

        The coordinator parses the wire bytes itself (shard-id order, each
        shard's batches in shipment order); malformed gossip from a shard
        is a protocol error and raises, it is never silently trusted.
        """
        pooled: List[Authenticator] = []
        for shard_id in sorted(gossip):
            wire = gossip[shard_id].get(machine)
            if wire:
                pooled.extend(authenticators_from_bytes(wire))
        return pooled

    def equivocation_sweep(self, keystore: KeyStore,
                           gossip: Optional[Dict[str, Dict[str, bytes]]] = None
                           ) -> Dict[str, EquivocationProof]:
        """Convict forked machines from gossiped authenticators alone.

        For every issuer in the pooled gossip, scan for two validly signed
        commitments to the same sequence with different chain hashes.  Each
        proof found is serialized (:meth:`EquivocationProof.to_dict`),
        decoded back, and re-verified against ``keystore`` — the exact
        round trip a third party performs — before it counts.
        """
        gossip = gossip if gossip is not None else self.gossip_authenticators()
        issuers = sorted({machine for per_shard in gossip.values()
                          for machine in per_shard})
        convictions: Dict[str, EquivocationProof] = {}
        for machine in issuers:
            proof = find_equivocation(self.pool_gossip(gossip, machine),
                                      keystore)
            if proof is None:
                continue
            wire = json.dumps(proof.to_dict(), sort_keys=True)
            received = EquivocationProof.from_dict(json.loads(wire))
            if received.verify(keystore):
                convictions[machine] = received
                self._m_convicted.inc()
        return convictions

    def cross_shard_chain_check(self) -> List[str]:
        """Machines whose archived chains diverge between shards.

        A machine's chain is supposed to live on exactly one shard; finding
        segments for it on two shards is a placement anomaly, and if the
        chains disagree at a shared sequence number the machine (or a
        shard) is forking history.  This check *detects* — conviction still
        comes from the signed authenticators via
        :meth:`equivocation_sweep`, which needs no trust in any shard.
        """
        holders: Dict[str, List[AuditShard]] = {}
        for shard in self.shards:
            for machine in shard.archived_machines():
                holders.setdefault(machine, []).append(shard)
        forked: List[str] = []
        for machine in sorted(holders):
            shards = holders[machine]
            if len(shards) < 2:
                continue
            for first, second in zip(shards, shards[1:]):
                sequence = min(first.archive.head_checkpoint(machine).sequence,
                               second.archive.head_checkpoint(machine).sequence)
                start = max(first.archive.start_checkpoint(machine).sequence,
                            second.archive.start_checkpoint(machine).sequence)
                if sequence <= start:
                    continue  # no overlapping archived range to compare
                first_hash = first.archive.read_range(
                    machine, sequence, sequence).entries[-1].chain_hash
                second_hash = second.archive.read_range(
                    machine, sequence, sequence).entries[-1].chain_hash
                if first_hash != second_hash:
                    forked.append(machine)
                    self._m_forks.inc()
                    break
        return forked

    # -- the merged audit ----------------------------------------------------

    def audit_fleet(self, make_auditor: Callable[[str], Auditor],
                    keystore: KeyStore) -> FleetAuditOutcome:
        """Audit every shard's machines and merge the verdicts.

        Per machine, the deciding shard follows the single-service pipeline
        exactly — pooled authenticators handed to the auditor, quarantined
        machines suspected, everything else streamed from the archive — so
        a fleet audited through N shards is structurally identical to one
        audited through a single service.  The only cross-shard ingredient
        is the authenticator pool, which comes from gossip (decoded and
        checked here), plus the equivocation sweep and chain check.
        """
        outcome = FleetAuditOutcome()
        gossip = self.gossip_authenticators()
        for shard in self.shards:
            for machine in shard.auditable_machines():
                if machine in outcome.results:
                    # Chain present on two shards: first (sorted) shard
                    # decides; the anomaly itself is reported by the chain
                    # check below.
                    continue
                auditor = make_auditor(machine)
                auditor.collect_authenticators(
                    machine, self.pool_gossip(gossip, machine))
                quarantined = shard.service.quarantine_for(machine)
                if quarantined:
                    result = auditor.suspect(
                        machine,
                        reason=f"archive quarantined {len(quarantined)} "
                               f"shipment(s): {quarantined[0].reason}")
                    outcome.quarantined[machine] = len(quarantined)
                else:
                    result = shard.service.audit_machine(
                        auditor, machine, collect=False)
                outcome.results[machine] = result
                outcome.shard_of[machine] = shard.identity
                self._m_audited.inc()
        outcome.convictions = self.equivocation_sweep(keystore, gossip)
        outcome.cross_shard_forks = self.cross_shard_chain_check()
        return outcome

    # -- rebalancing ---------------------------------------------------------

    def rebalance(self, machine: str, destination: str,
                  monitor=None) -> HandoffReport:
        """Move a machine's chain to another shard and repoint its shipper.

        The caller quiesces in-flight shipments first (run the scheduler
        until the machine's traffic settles).  After the archive handoff,
        the machine's placement override makes every later placement lookup
        return the new shard, and — when the live ``monitor`` is supplied —
        its shipper is re-attached to the destination with its settings
        preserved.  Re-attaching resets the snapshot-ship anchor, so the
        next snapshot ships as a full keyframe: the destination can anchor
        replays without ever having seen the machine's earlier deltas.
        """
        source = self.shard_for_machine(machine)
        target = self.shard(destination)
        report = migrate_machine(machine, source, target)
        self._placement_overrides[machine] = target.identity
        self._m_migrations.inc()
        if monitor is not None:
            monitor.attach_archive_shipper(
                target.identity,
                ship_authenticators=monitor.archive_ship_authenticators,
                format_version=monitor.archive_format_version)
        return report


# -- recording a fleet -------------------------------------------------------

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
    #: telemetry sink the fleet was recorded under; auditors inherit it
    obs: Observability = NULL_OBS
    #: the sharded-ingest coordinator, when one was attached instead of a
    #: single archive
    coordinator: Optional[FleetCoordinator] = None
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
        auditor = Auditor(identity, self.keystore, self.reference_images[target],
                          obs=self.obs)
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
                ship_format_version: int = 1,
                coordinator: Optional[FleetCoordinator] = None,
                obs: Optional[Observability] = None) -> AuditFleet:
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

    With a ``coordinator`` (mutually exclusive with ``archive``), the fleet
    records *sharded*: every shard's ingest endpoint joins the network and
    each monitor ships to its consistent-hash home shard
    (:meth:`~repro.service.fleet.FleetCoordinator.attach_fleet`) — the
    fleet-scale topology of ``docs/fleet-sharding.md``.  ``obs``
    threads one telemetry sink (:mod:`repro.obs`) through every monitor, the
    ingest service, and the auditors the fleet later makes — observers only,
    it never changes what gets recorded or audited.
    """
    if num_machines < 2 or num_machines % 2:
        raise ValueError(f"fleet size must be an even number >= 2, got {num_machines}")
    obs = ensure_obs(obs)
    scheduler = Scheduler()
    if obs.enabled and getattr(obs.tracer, "sim_time", None) is None:
        # Bind the sim clock domain to this fleet's clock so sim-domain
        # events (snapshots, shipments, ingests) carry simulated timestamps.
        obs.tracer.sim_time = scheduler.clock.read
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
            clock_offset=0.0005 * index, obs=obs)
        monitors[client] = AccountableVMM(
            client, client_image, config, scheduler, network,
            keypair=keypairs[client], keystore=keystore,
            clock_offset=0.0005 * index + 0.0002, obs=obs)

    if archive is not None and coordinator is not None:
        raise ValueError("pass either archive= (single service) or "
                         "coordinator= (sharded fleet), not both")
    ingest: Optional[AuditIngestService] = None
    if archive is not None:
        ingest = AuditIngestService(archive, identity=ingest_identity,
                                    network=network, obs=obs)
        for monitor in monitors.values():
            monitor.attach_archive_shipper(
                ingest_identity, format_version=ship_format_version)
    elif coordinator is not None:
        coordinator.connect(network)
        coordinator.attach_fleet(monitors.values(),
                                 format_version=ship_format_version)

    for monitor in monitors.values():
        monitor.start()
    scheduler.run_until(duration)
    for monitor in monitors.values():
        monitor.stop()
    if ingest is not None or coordinator is not None:
        drain_fleet_to_archive(scheduler, monitors)
    return AuditFleet(monitors=monitors, reference_images=reference_images,
                      keystore=keystore, peers=peers, ingest=ingest,
                      scheduler=scheduler, obs=obs, coordinator=coordinator,
                      keypairs=keypairs)


def drain_fleet_to_archive(scheduler: Scheduler,
                           monitors: Dict[str, AccountableVMM],
                           settle: float = 1.0, max_rounds: int = 5) -> None:
    """Flush in-flight traffic, ship the log tails, and deliver everything.

    Delivering a straggler message can append new log entries (a RECV plus
    its ACK), so tail shipping repeats until a whole round ships nothing —
    at that point every monitor's archive mirrors its log exactly.  Raises
    :class:`~repro.errors.StoreError` if the fleet is still producing or
    dropping shipments after ``max_rounds`` (e.g. an unhealed partition to
    the ingest endpoint) rather than returning an incomplete archive.
    """
    scheduler.run_until(scheduler.clock.now + settle)
    for _ in range(max_rounds):
        shipped = [monitor.ship_archive_tail() for monitor in monitors.values()]
        scheduler.run_until(scheduler.clock.now + settle)
        if not any(shipped):
            break
    unshipped = sorted(monitor.identity for monitor in monitors.values()
                       if not monitor.archive_shipping_complete)
    if unshipped:
        raise StoreError(
            f"archive drain did not converge: {unshipped} still have "
            f"unshipped log entries or authenticators after "
            f"{max_rounds} rounds")
