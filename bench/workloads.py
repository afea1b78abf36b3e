"""The four workloads: topology builders and audit paths.

Each workload stresses different layers of record → ship → ingest → audit
(see ``README.md`` for why each is here).  Builders import library packages
only; the sizes below are the scale-1 baseline for a 2-core box and give
about ten seconds of accountable recording each.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from bench.plans import WINDOW, web_plan

from repro.adversary.guests import make_cheating_webservice_image
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditScheduler
from repro.audit.verdict import AuditResult
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import CertificateAuthority, KeyPair, KeyStore
from repro.game.bots import ScriptedPlayer
from repro.game.client import ClientSettings
from repro.game.images import make_client_image, make_server_image
from repro.log.codec import encode_segment
from repro.metrics.latency import LatencyRecorder, percentile
from repro.network.message import MessageKind
from repro.network.simnet import SimulatedNetwork
from repro.service.ingest import AuditIngestService
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.image import VMImage
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image
from repro.workloads.webservice import (SimulatedUpstreamBackend,
                                        WebServiceSettings,
                                        make_webclient_image,
                                        make_webservice_image)

#: The trust root is deployment, not load: fixed, so key generation does the
#: same work at every ``--seed`` and ``setup_s`` compares across seeds.
TRUST_SEED = 7

Trust = Tuple[Dict[str, KeyPair], KeyStore]


def build_trust(identities: List[str]) -> Trust:
    """A CA, one certified RSA-768 key pair per identity, and a keystore."""
    ca = CertificateAuthority(scheme="rsa768", seed=TRUST_SEED)
    keypairs = {identity: ca.issue(identity) for identity in identities}
    keystore = KeyStore(ca)
    for keypair in keypairs.values():
        keystore.add_certificate(keypair.certificate)
    return keypairs, keystore


@dataclass
class Deployment:
    """One wired topology, ready to record."""

    scheduler: Scheduler
    network: SimulatedNetwork
    monitors: Dict[str, AccountableVMM]
    reference_images: Dict[str, VMImage]
    trust: Trust
    #: simulated time the offered load ends
    horizon: float
    ingest: Optional[AuditIngestService] = None
    #: scripted local-input sources started with the machines
    players: List[ScriptedPlayer] = field(default_factory=list)
    #: request id -> simulated send time (web workloads)
    sent_at: Dict[str, float] = field(default_factory=dict)

    @property
    def keystore(self) -> KeyStore:
        return self.trust[1]


@dataclass
class MachineAudit:
    """One machine's verdict in one audit repetition."""

    machine: str
    result: AuditResult
    #: the failure evidence re-checked by a third party (None on a pass)
    evidence_verified: Optional[bool] = None


class Workload:
    """Builds deployments of one shape and audits what they recorded."""

    name = ""
    #: archive segment format, or None when machines are audited live
    store_format: Optional[int] = None
    ship_format = 1
    snapshot_interval = 1.0
    #: machines expected to be convicted, with the phase that convicts them
    cheaters: Dict[str, str] = {}
    #: whether a request/response pair exists to time on the simulated clock
    has_requests = False

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale

    # -- record side ---------------------------------------------------------

    def build(self, accountable: bool, archive_root: Optional[Path],
              trust: Optional[Trust] = None) -> Deployment:
        raise NotImplementedError

    def _config(self, accountable: bool) -> AvmmConfig:
        if not accountable:
            return AvmmConfig.for_configuration(Configuration.BARE_HW)
        return AvmmConfig.for_configuration(
            Configuration.AVMM_RSA768,
            snapshot_interval=self.snapshot_interval)

    def _attach_archive(self, deployment: Deployment,
                        archive_root: Optional[Path]) -> None:
        if archive_root is None or self.store_format is None:
            return
        deployment.ingest = AuditIngestService(
            LogArchive(archive_root, format_version=self.store_format),
            network=deployment.network)
        for monitor in deployment.monitors.values():
            monitor.attach_archive_shipper(deployment.ingest.identity,
                                           format_version=self.ship_format)

    # -- audit side ----------------------------------------------------------

    def make_engine(self, traced: bool) -> Optional[AuditScheduler]:
        """The audit engine, or None for the serial / streaming path."""
        return None

    def audit(self, deployment: Deployment, archive_root: Optional[Path],
              traced: bool) -> Tuple[List[MachineAudit], bool]:
        """Audit every machine from cold; returns verdicts and store health.

        Archive workloads open a new ``LogArchive`` and ingest service per
        call (parse caches cold) and go through ``Auditor.audit(target)``;
        store health is "recovery found no orphans, nothing quarantined".
        """
        archive = LogArchive(archive_root, format_version=self.store_format)
        service = AuditIngestService(archive)
        audits = []
        for machine in sorted(deployment.monitors):
            auditor = Auditor("auditor", deployment.keystore,
                              deployment.reference_images[machine],
                              engine=self.make_engine(traced))
            service.prepare_auditor(auditor, machine)
            audits.append(_verdict(deployment, machine, auditor.audit(
                service.target_for(machine))))
        return audits, archive.recovery.clean and not service.quarantine

    def stored_bytes(self, deployment: Deployment,
                     archive_root: Optional[Path]) -> int:
        """Bytes on disk under the archive root."""
        return sum(path.stat().st_size
                   for path in archive_root.rglob("*") if path.is_file())


def _verdict(deployment: Deployment, machine: str,
             result: AuditResult) -> MachineAudit:
    verified = None
    if result.evidence is not None:
        # A third party re-checks the evidence against its own reference
        # image — conviction must not rest on the auditor's word.
        verified = result.evidence.verify(
            deployment.keystore, deployment.reference_images[machine])
    return MachineAudit(machine, result, verified)


# ---------------------------------------------------------------------------
# web_honest / web_cheat
# ---------------------------------------------------------------------------

SERVER = "web-server"
CLIENT = "web-client"


class WebHonest(Workload):
    """Open-loop web requests; v1 ship and store; streaming audit."""

    name = "web_honest"
    store_format = 1
    has_requests = True
    requests = 115

    def server_image(self, settings: WebServiceSettings) -> VMImage:
        return make_webservice_image(settings)

    def build(self, accountable, archive_root, trust=None):
        trust = trust or build_trust([SERVER, CLIENT, "auditor"])
        keypairs, keystore = trust
        settings = WebServiceSettings()
        plan = web_plan(self.seed, max(40, round(self.requests * self.scale)))
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler)
        config = self._config(accountable)
        reference = {SERVER: make_webservice_image(settings),
                     CLIENT: make_webclient_image(SERVER)}
        monitors = {
            SERVER: AccountableVMM(SERVER, self.server_image(settings), config,
                                   scheduler, network,
                                   keypair=keypairs[SERVER], keystore=keystore),
            CLIENT: AccountableVMM(CLIENT, reference[CLIENT], config,
                                   scheduler, network,
                                   keypair=keypairs[CLIENT], keystore=keystore,
                                   clock_offset=0.0002),
        }
        monitors[SERVER].attach_upstream_backend(
            SimulatedUpstreamBackend(seed=self.seed + 1))
        deployment = Deployment(scheduler, network, monitors, reference, trust,
                                horizon=WINDOW + 2.0)
        self._attach_archive(deployment, archive_root)

        client = monitors[CLIENT]
        sent_at = deployment.sent_at

        def inject(request_id: str, command: str) -> None:
            sent_at[request_id] = scheduler.clock.now
            client.inject_local_input(command)

        for at, request_id, method, path in plan:
            command = json.dumps(
                {"id": request_id, "method": method, "path": path},
                sort_keys=True, separators=(",", ":"))
            scheduler.schedule_at(at, lambda r=request_id, c=command:
                                  inject(r, c), label="bench-load")
        return deployment


class WebCheat(WebHonest):
    """Same load; the server serves cache entries past their TTL."""

    name = "web_cheat"
    cheaters = {SERVER: "semantic_check"}

    def server_image(self, settings):
        return make_cheating_webservice_image(settings)


def web_responses(deployment: Deployment) -> Tuple[Dict[str, int], float]:
    """The status each request's client received, and the p99 of the
    request round trips on the simulated clock, in milliseconds."""
    statuses: Dict[str, int] = {}
    recorder = LatencyRecorder()
    for request_id, at in deployment.sent_at.items():
        recorder.note_sent(request_id, at, client=CLIENT)
    for at, message in deployment.network.deliveries:
        if (message.destination == CLIENT and message.source == SERVER
                and message.kind is MessageKind.DATA):
            body = json.loads(message.payload.decode("utf-8"))
            request_id = body.get("id")
            if request_id is None or request_id in statuses:
                continue
            statuses[request_id] = int(body["status"])
            recorder.note_received(request_id, at, client=CLIENT)
    rtts = recorder.rtts()
    return statuses, percentile(rtts, 0.99) * 1000.0 if rtts else 0.0


class WebRequestTagger:
    """Reads the request a traced call works for off its message argument.

    The injected input and DATA payloads carry the request id; acks and
    packet deliveries are matched through the message id they refer to.
    """

    def __init__(self) -> None:
        self.by_message: Dict[str, Optional[str]] = {}

    def __call__(self, args: tuple) -> Optional[str]:
        subject = args[1] if len(args) > 1 else None
        message_id = getattr(subject, "message_id", None)
        if message_id is None:
            command = getattr(subject, "command", "")   # the injected input
            if command.startswith('{"id":"'):
                return json.loads(command)["id"]
            return None
        headers = getattr(subject, "headers", None)
        if headers and "acked_message_id" in headers:
            return self.by_message.get(headers["acked_message_id"])
        if message_id not in self.by_message:
            payload = getattr(subject, "payload", b"")
            request_id = None
            if payload.startswith(b'{"') and b'"id":"' in payload:
                request_id = json.loads(payload.decode("utf-8")).get("id")
            self.by_message[message_id] = request_id
        return self.by_message[message_id]


# ---------------------------------------------------------------------------
# db_fat
# ---------------------------------------------------------------------------

class DbFat(Workload):
    """Two kv-server / sql-bench pairs with fat rows; v3; engine audit."""

    name = "db_fat"
    store_format = 3
    ship_format = 3
    snapshot_interval = 0.5
    pairs = 2
    duration = 1.25
    settings = SqlBenchSettings(server="", operations_per_tick=6,
                                tick_interval=0.25, rows_per_phase=4,
                                payload_bytes=24000)

    def build(self, accountable, archive_root, trust=None):
        pairs = [(f"db-server-{index:02d}", f"db-client-{index:02d}")
                 for index in range(self.pairs)]
        identities = [identity for pair in pairs for identity in pair]
        trust = trust or build_trust(identities + ["auditor"])
        keypairs, keystore = trust
        # The sql-bench sequence is fixed; the seed sets each pair's row size.
        rng = random.Random(self.seed)
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler)
        config = self._config(accountable)
        monitors: Dict[str, AccountableVMM] = {}
        reference: Dict[str, VMImage] = {}
        for index, (server, client) in enumerate(pairs):
            reference[server] = make_kvserver_image()
            reference[client] = make_sqlbench_image(replace(
                self.settings, server=server,
                payload_bytes=self.settings.payload_bytes
                + rng.randint(-50, 50)))
            monitors[server] = AccountableVMM(
                server, reference[server], config, scheduler, network,
                keypair=keypairs[server], keystore=keystore,
                clock_offset=0.0005 * index)
            monitors[client] = AccountableVMM(
                client, reference[client], config, scheduler, network,
                keypair=keypairs[client], keystore=keystore,
                clock_offset=0.0005 * index + 0.0002)
        deployment = Deployment(scheduler, network, monitors, reference, trust,
                                horizon=max(0.6, self.duration * self.scale))
        self._attach_archive(deployment, archive_root)
        return deployment

    def make_engine(self, traced):
        # Worker processes would run outside the tracer; the traced run keeps
        # the same two chunks per machine but executes them in this process.
        if traced:
            return AuditScheduler(workers=2, executor="inline",
                                  chunks_per_machine=2)
        return AuditScheduler(workers=2, executor="process")


# ---------------------------------------------------------------------------
# game_lan
# ---------------------------------------------------------------------------

class GameLan(Workload):
    """The paper's game server + 3 players, audited live by peers."""

    name = "game_lan"
    snapshot_interval = 1.7
    players = 3
    duration = 3.4
    actions_per_second = 8.0

    def build(self, accountable, archive_root, trust=None):
        player_ids = [f"player{index + 1}" for index in range(self.players)]
        trust = trust or build_trust(["server"] + player_ids)
        keypairs, keystore = trust
        rngs = RngRegistry(seed=self.seed)
        scheduler = Scheduler()
        network = SimulatedNetwork(scheduler)
        config = self._config(accountable)
        reference = {"server": make_server_image()}
        monitors = {"server": AccountableVMM(
            "server", reference["server"], config, scheduler, network,
            keypair=keypairs["server"], keystore=keystore)}
        players = []
        for index, player_id in enumerate(player_ids):
            reference[player_id] = make_client_image(
                ClientSettings(player_id=player_id, server="server"))
            monitors[player_id] = AccountableVMM(
                player_id, reference[player_id], config, scheduler, network,
                keypair=keypairs[player_id], keystore=keystore,
                clock_offset=0.001 * (index + 1),
                clock_drift=1e-6 * (index + 1))
            players.append(ScriptedPlayer(
                monitors[player_id], scheduler,
                rngs.stream(f"player:{player_id}"),
                actions_per_second=self.actions_per_second))
        return Deployment(scheduler, network, monitors, reference, trust,
                          horizon=max(1.0, self.duration * self.scale),
                          players=players)

    def audit(self, deployment, archive_root, traced):
        """Every machine audited by a peer from its live in-memory log."""
        audits = []
        identities = list(deployment.monitors)
        for machine in identities:
            peer = next(i for i in identities if i != machine)
            auditor = Auditor(peer, deployment.keystore,
                              deployment.reference_images[machine])
            for other, monitor in deployment.monitors.items():
                if other != machine:
                    auditor.collect_from_peer(monitor, machine)
            audits.append(_verdict(deployment, machine, auditor.audit(
                deployment.monitors[machine])))
        return audits, True

    def stored_bytes(self, deployment, archive_root):
        """The paper's Figure 3 quantity: every log as one v1 segment."""
        return sum(len(encode_segment(monitor.get_log_segment(), 1))
                   for monitor in deployment.monitors.values())


WORKLOADS: Dict[str, Callable[[int, float], Workload]] = {
    cls.name: cls for cls in (WebHonest, WebCheat, DbFat, GameLan)}
