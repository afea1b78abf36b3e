"""A full multi-player game session: the evaluation setup of Section 6.2.

:class:`GameSession` wires up a game-server machine plus N player machines
(the paper uses three players; one of its machines doubles as the server —
we give the server its own machine), all connected by a gigabit LAN, all
running under the same configuration, with scripted players generating
input.  The session exposes the monitors, metrics helpers and auditing
helpers every experiment needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.audit.auditor import Auditor
from repro.audit.verdict import AuditResult
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import build_trust
from repro.game.bots import ScriptedPlayer
from repro.game.cheats.base import Cheat
from repro.game.client import ClientSettings
from repro.game.images import make_client_image, make_server_image
from repro.metrics.framerate import FrameRateModel, FrameRateSample
from repro.metrics.logstats import LogGrowthSeries
from repro.network.simnet import SimulatedNetwork
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.vm.image import VMImage


@dataclass
class GameSessionSettings:
    """Parameters of one simulated game session."""

    configuration: Configuration = Configuration.AVMM_RSA768
    num_players: int = 3
    duration: float = 60.0
    seed: int = 42
    snapshot_interval: Optional[float] = 30.0
    clock_read_optimization: bool = False
    frame_cap_fps: Optional[float] = None
    #: player id -> Cheat installed in that player's image
    cheats: Dict[str, Cheat] = field(default_factory=dict)
    #: sample the log size every this many simulated seconds (Figure 3)
    log_sample_interval: float = 10.0
    actions_per_second: float = 8.0


class GameSession:
    """A full multi-player game run under one configuration."""

    def __init__(self, settings: GameSessionSettings) -> None:
        self.settings = settings
        self.scheduler = Scheduler()
        self.network = SimulatedNetwork(self.scheduler)
        self.rngs = RngRegistry(seed=settings.seed)
        self.config = AvmmConfig.for_configuration(
            settings.configuration,
            snapshot_interval=settings.snapshot_interval,
            clock_read_optimization=settings.clock_read_optimization,
        )
        self.player_ids = [f"player{i + 1}" for i in range(settings.num_players)]
        self.identities = ["server"] + self.player_ids
        self.ca, self.keypairs, self.keystore = build_trust(
            self.identities, scheme=self.config.signature_scheme, seed=settings.seed)

        #: the agreed-upon reference images, per identity
        self.reference_images: Dict[str, VMImage] = {}
        #: the images actually installed (differ from the reference for cheaters)
        self.installed_images: Dict[str, VMImage] = {}
        self.monitors: Dict[str, AccountableVMM] = {}
        self.players: Dict[str, ScriptedPlayer] = {}
        self.log_growth: Dict[str, LogGrowthSeries] = {}
        self._log_sampler: Optional[Process] = None
        self._build()

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        server_image = make_server_image()
        self.reference_images["server"] = server_image
        self.installed_images["server"] = server_image
        self.monitors["server"] = AccountableVMM(
            "server", server_image, self.config, self.scheduler, self.network,
            keypair=self.keypairs["server"], keystore=self.keystore)

        for index, player_id in enumerate(self.player_ids):
            client_settings = ClientSettings(
                player_id=player_id, server="server",
                frame_cap_fps=self.settings.frame_cap_fps)
            reference = make_client_image(client_settings)
            self.reference_images[player_id] = reference
            cheat = self.settings.cheats.get(player_id)
            installed = cheat.patch_image(client_settings) if cheat else reference
            self.installed_images[player_id] = installed
            self.monitors[player_id] = AccountableVMM(
                player_id, installed, self.config, self.scheduler, self.network,
                keypair=self.keypairs[player_id], keystore=self.keystore,
                clock_offset=0.001 * (index + 1), clock_drift=1e-6 * (index + 1))
            self.players[player_id] = ScriptedPlayer(
                self.monitors[player_id], self.scheduler,
                self.rngs.stream(f"player:{player_id}"),
                actions_per_second=self.settings.actions_per_second)

        for identity in self.identities:
            self.log_growth[identity] = LogGrowthSeries(machine=identity)

    # -- running --------------------------------------------------------------------

    def run(self) -> None:
        """Start every machine and player and run the session to completion."""
        for monitor in self.monitors.values():
            monitor.start()
        for player in self.players.values():
            player.start(delay=0.5)
        self._log_sampler = Process(self.scheduler, self.settings.log_sample_interval,
                                    on_tick=self._sample_logs, name="log-sampler")
        self._log_sampler.start(delay=0.0)
        self.scheduler.run_until(self.settings.duration)
        self._sample_logs()
        for player in self.players.values():
            player.stop()
        for monitor in self.monitors.values():
            monitor.stop()

    def _sample_logs(self) -> None:
        now = self.scheduler.clock.now
        for identity, monitor in self.monitors.items():
            self.log_growth[identity].sample(now, monitor.log)

    # -- auditing ----------------------------------------------------------------------

    def make_auditor(self, auditor_identity: str, target: str) -> Auditor:
        """Build an auditor for ``target`` holding everyone's authenticators."""
        auditor = Auditor(auditor_identity, self.keystore, self.reference_images[target])
        for peer_identity, peer in self.monitors.items():
            if peer_identity != target:
                auditor.collect_from_peer(peer, target)
        return auditor

    def audit(self, target: str, auditor_identity: Optional[str] = None) -> AuditResult:
        """Full audit of one machine by another party."""
        if auditor_identity is None:
            auditor_identity = next(i for i in self.identities if i != target)
        auditor = self.make_auditor(auditor_identity, target)
        return auditor.audit(self.monitors[target])

    def audit_all(self) -> Dict[str, AuditResult]:
        """Audit every player machine (the symmetric multi-party scenario)."""
        return {player: self.audit(player) for player in self.player_ids}

    # -- metrics -----------------------------------------------------------------------

    def frame_rate(self, machine: str, **kwargs) -> FrameRateSample:
        """Modelled frame rate for one player machine (Figure 7 / 8)."""
        return FrameRateModel().compute(self.monitors[machine],
                                        self.settings.duration, **kwargs)
