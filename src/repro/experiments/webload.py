"""Open-loop web-service load: throughput and tail latency, audited.

Drives the accountable web service (:mod:`repro.workloads.webservice`) with
an *open-loop* population of simulated users: session arrivals with
heavy-tailed (lognormal) inter-arrival gaps, Pareto-distributed session
lengths, lognormal think times between a session's requests, and a
Pareto-skewed popularity distribution over cacheable paths — request
injection times are fixed up front by a seeded RNG, so slow responses never
throttle the offered load, exactly the regime where tail latency matters.

The same request plan is recorded twice — accountability off
(``bare-hw``) and on (``avmm-rsa768``) — and the experiment reports
throughput plus p50/p95/p99/p999 round-trip latency for both, answering
"what does accountability cost a web service under heavy-tailed load?".

The accountable run then proves the audit path end to end: segments ship to
an :class:`~repro.service.ingest.AuditIngestService` during the run, the
archive is drained, and the server and client are audited through the
audit engine one chunk at a time (record → ship → ingest → audit).
Finally the whole load is replayed against the *cheating* service image
(:mod:`repro.adversary.guests`) that serves cached responses past their
TTL; replay against the honest reference image convicts it, with evidence a
third party can verify, and without accusing the honest client.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.adversary.guests import make_cheating_webservice_image
from repro.audit.auditor import Auditor
from repro.audit.engine import AuditAssignment, AuditScheduler
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.experiments.harness import build_trust, format_table
from repro.experiments.parallel_audit import drain_fleet_to_archive
from repro.metrics.latency import LatencyRecorder, RttSummary, summarize_rtts
from repro.network.message import MessageKind
from repro.network.simnet import SimulatedNetwork
from repro.service.ingest import AuditIngestService
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.vm.image import VMImage
from repro.workloads.webservice import (SimulatedUpstreamBackend,
                                        WebServiceSettings,
                                        make_webclient_image,
                                        make_webservice_image)

SERVER = "web-server"
CLIENT = "web-client"


# ---------------------------------------------------------------------------
# Load model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadModel:
    """Seeded open-loop population model (all draws host-side)."""

    #: simulated users; each contributes one session
    users: int = 1000
    seed: int = 42
    #: mean session arrivals per simulated second (inter-arrival gaps are
    #: lognormal with this mean and ``arrival_sigma`` shape)
    arrival_rate: float = 2000.0
    arrival_sigma: float = 1.2
    #: Pareto shape for requests-per-session (heavy tail, capped)
    session_alpha: float = 1.6
    max_session_requests: int = 50
    #: lognormal think time between a session's requests (seconds)
    think_mean: float = 0.35
    think_sigma: float = 0.9
    #: catalog/profile id spaces; popularity is Pareto-skewed so the TTL
    #: cache sees realistic hit rates
    catalog_items: int = 400
    user_profiles: int = 150
    popularity_alpha: float = 1.1

    def plan(self) -> List[Tuple[float, str, str, str]]:
        """The request schedule: sorted ``(time, request_id, method, path)``.

        Generated once per experiment so every configuration (and the
        cheating re-run) records the *same* offered load.
        """
        rng = random.Random(self.seed)
        mean_gap = 1.0 / self.arrival_rate
        # lognormal with the requested mean: mu = ln(mean) - sigma^2 / 2
        arrival_mu = _lognormal_mu(mean_gap, self.arrival_sigma)
        think_mu = _lognormal_mu(self.think_mean, self.think_sigma)
        requests: List[Tuple[float, str, str, str]] = []
        clock = 0.05
        for user in range(self.users):
            clock += rng.lognormvariate(arrival_mu, self.arrival_sigma)
            session = min(int(rng.paretovariate(self.session_alpha)),
                          self.max_session_requests)
            at = clock
            for index in range(session):
                if index:
                    at += rng.lognormvariate(think_mu, self.think_sigma)
                method, path = self._draw_request(rng)
                requests.append((at, f"u{user}-{index}", method, path))
        requests.sort(key=lambda item: (item[0], item[1]))
        return requests

    def _draw_request(self, rng: random.Random) -> Tuple[str, str]:
        draw = rng.random()
        if draw < 0.62:
            item = int(rng.paretovariate(self.popularity_alpha)) \
                % self.catalog_items
            return "GET", f"/api/item/{item}"
        if draw < 0.87:
            profile = int(rng.paretovariate(self.popularity_alpha)) \
                % self.user_profiles
            return "GET", f"/api/user/{profile}"
        if draw < 0.97:
            return "POST", "/api/order"
        return "GET", "/api/health"


def _lognormal_mu(mean: float, sigma: float) -> float:
    """The lognormal ``mu`` that yields the requested distribution mean."""
    import math
    return math.log(mean) - sigma * sigma / 2.0


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class ConfigurationPoint:
    """Throughput and latency of one recording configuration."""

    configuration: str
    requests_sent: int = 0
    responses_received: int = 0
    #: simulated seconds between the first send and the last response
    sim_span: float = 0.0
    #: completed responses per simulated second
    throughput_rps: float = 0.0
    rtt: Optional[RttSummary] = None
    cache_hits: int = 0
    cache_misses: int = 0
    upstream_calls: int = 0
    #: host wall-clock of the recording (flavour; hardware-dependent)
    record_wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        payload = {
            "configuration": self.configuration,
            "requests_sent": self.requests_sent,
            "responses_received": self.responses_received,
            "sim_span": self.sim_span,
            "throughput_rps": self.throughput_rps,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "upstream_calls": self.upstream_calls,
            "record_wall_seconds": self.record_wall_seconds,
        }
        payload["rtt"] = self.rtt.to_dict() if self.rtt else None
        return payload


@dataclass
class AuditOutcome:
    """One machine's trip through the chunk-by-chunk archive audit."""

    machine: str
    verdict: str
    phase: str
    reason: str = ""
    chunks: int = 0
    entries: int = 0
    #: the failure evidence re-verified by an independent third party
    evidence_verified: Optional[bool] = None

    def to_dict(self) -> Dict[str, object]:
        return {"machine": self.machine, "verdict": self.verdict,
                "phase": self.phase, "reason": self.reason,
                "chunks": self.chunks, "entries": self.entries,
                "evidence_verified": self.evidence_verified}


@dataclass
class WebloadResult:
    """Everything the webload experiment measured."""

    users: int
    total_requests: int
    points: List[ConfigurationPoint] = field(default_factory=list)
    #: request id -> status identical between accountability on and off
    statuses_identical: bool = False
    honest_audits: List[AuditOutcome] = field(default_factory=list)
    cheat_audits: List[AuditOutcome] = field(default_factory=list)

    def point(self, configuration: str) -> ConfigurationPoint:
        for point in self.points:
            if point.configuration == configuration:
                return point
        raise KeyError(f"no data point for configuration {configuration!r}")

    @property
    def honest_pass(self) -> bool:
        """Every honest machine passed the archive audit."""
        return bool(self.honest_audits) and all(
            outcome.verdict == "pass" for outcome in self.honest_audits)

    @property
    def cheat_detected(self) -> bool:
        """The stale-cache server was convicted with verified evidence."""
        return any(outcome.machine == SERVER and outcome.verdict == "fail"
                   and outcome.evidence_verified
                   for outcome in self.cheat_audits)

    @property
    def false_accusations(self) -> int:
        """Honest machines accused across both audit rounds (must be 0)."""
        return sum(1 for outcome in self.honest_audits
                   if outcome.verdict != "pass") \
            + sum(1 for outcome in self.cheat_audits
                  if outcome.machine != SERVER
                  and outcome.verdict != "pass")

    def to_dict(self) -> Dict[str, object]:
        return {
            "users": self.users,
            "total_requests": self.total_requests,
            "points": [point.to_dict() for point in self.points],
            "statuses_identical": self.statuses_identical,
            "honest_audits": [a.to_dict() for a in self.honest_audits],
            "cheat_audits": [a.to_dict() for a in self.cheat_audits],
            "honest_pass": self.honest_pass,
            "cheat_detected": self.cheat_detected,
            "false_accusations": self.false_accusations,
        }


# ---------------------------------------------------------------------------
# One recorded run
# ---------------------------------------------------------------------------

@dataclass
class _RecordedRun:
    """A finished recording plus whatever the audit path needs from it."""

    point: ConfigurationPoint
    #: request id -> HTTP status (the structural-identity check)
    statuses: Dict[str, int]
    monitors: Dict[str, AccountableVMM]
    reference_images: Dict[str, VMImage]
    keystore: object
    ingest: Optional[AuditIngestService]
    scheduler: Scheduler


def _record(configuration: Configuration,
            plan: List[Tuple[float, str, str, str]],
            model: LoadModel,
            service_settings: WebServiceSettings,
            server_image: Optional[VMImage] = None,
            archive_root: Optional[Path] = None,
            snapshot_interval: Optional[float] = None) -> _RecordedRun:
    """Record the full request plan under one configuration."""
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(configuration,
                                          snapshot_interval=snapshot_interval)
    _, keypairs, keystore = build_trust([SERVER, CLIENT, "auditor"],
                                        scheme=config.signature_scheme,
                                        seed=model.seed)
    reference_images = {SERVER: make_webservice_image(service_settings),
                        CLIENT: make_webclient_image(SERVER)}
    images = dict(reference_images)
    if server_image is not None:
        images[SERVER] = server_image

    monitors = {
        SERVER: AccountableVMM(SERVER, images[SERVER], config, scheduler,
                               network, keypair=keypairs[SERVER],
                               keystore=keystore),
        CLIENT: AccountableVMM(CLIENT, images[CLIENT], config, scheduler,
                               network, keypair=keypairs[CLIENT],
                               keystore=keystore, clock_offset=0.0002),
    }
    monitors[SERVER].attach_upstream_backend(
        SimulatedUpstreamBackend(seed=model.seed + 1))

    ingest: Optional[AuditIngestService] = None
    if archive_root is not None:
        ingest = AuditIngestService(LogArchive(archive_root), network=network)
        for monitor in monitors.values():
            monitor.attach_archive_shipper(ingest.identity)

    for monitor in monitors.values():
        monitor.start()

    recorder = LatencyRecorder()

    def inject(request_id: str, method: str, path: str) -> None:
        recorder.note_sent(request_id, scheduler.clock.now, client=CLIENT)
        monitors[CLIENT].inject_local_input(json.dumps(
            {"id": request_id, "method": method, "path": path},
            sort_keys=True, separators=(",", ":")))

    for at, request_id, method, path in plan:
        scheduler.schedule_at(at, lambda r=request_id, m=method, p=path:
                              inject(r, m, p), label="webload")
    horizon = (plan[-1][0] if plan else 0.0) + 2.0

    started = time.perf_counter()
    scheduler.run_until(horizon)
    for monitor in monitors.values():
        monitor.stop()
    record_wall = time.perf_counter() - started

    statuses: Dict[str, int] = {}
    first_sent = plan[0][0] if plan else 0.0
    last_response = first_sent
    for at, message in network.deliveries:
        if (message.destination == CLIENT and message.source == SERVER
                and message.kind is MessageKind.DATA):
            body = json.loads(message.payload.decode("utf-8"))
            request_id = body.get("id")
            if request_id is None or request_id in statuses:
                continue
            statuses[request_id] = int(body["status"])
            recorder.note_received(request_id, at, client=CLIENT)
            last_response = max(last_response, at)

    span = max(last_response - first_sent, 1e-9)
    guest = monitors[SERVER].guest
    point = ConfigurationPoint(
        configuration=configuration.value,
        requests_sent=len(plan),
        responses_received=len(statuses),
        sim_span=span,
        throughput_rps=len(statuses) / span,
        rtt=summarize_rtts(recorder.rtts()) if statuses else None,
        cache_hits=guest.cache_hits,
        cache_misses=guest.cache_misses,
        upstream_calls=monitors[SERVER].recorder.stats.upstream_calls,
        record_wall_seconds=record_wall,
    )
    return _RecordedRun(point=point, statuses=statuses, monitors=monitors,
                        reference_images=reference_images, keystore=keystore,
                        ingest=ingest, scheduler=scheduler)


def _stream_audit_run(run: _RecordedRun,
                      max_chunks: Optional[int] = 50) -> List[AuditOutcome]:
    """Ship tails, drain the archive, and stream-audit every machine."""
    if run.ingest is None:
        raise ValueError("run was recorded without an archive")
    drain_fleet_to_archive(run.scheduler, run.monitors)
    outcomes: List[AuditOutcome] = []
    for machine in sorted(run.monitors):
        auditor = Auditor("auditor", run.keystore,
                          run.reference_images[machine])
        run.ingest.prepare_auditor(auditor, machine)
        report = AuditScheduler(chunks_per_machine=max_chunks).audit_fleet(
            [AuditAssignment(auditor, run.ingest.target_for(machine))]
        ).machine_reports[machine]
        result = report.result
        evidence_verified: Optional[bool] = None
        if result.evidence is not None:
            # A third party re-checks the evidence with its own keystore and
            # reference image — conviction must not rest on the auditor.
            evidence_verified = result.evidence.verify(
                run.keystore, run.reference_images[machine])
        outcomes.append(AuditOutcome(
            machine=machine, verdict=result.verdict.value,
            phase=result.phase.value, reason=result.reason,
            chunks=report.chunk_count, entries=report.entries,
            evidence_verified=evidence_verified))
    return outcomes


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------

def run_webload(model: Optional[LoadModel] = None,
                service_settings: Optional[WebServiceSettings] = None,
                snapshot_interval: Optional[float] = None,
                max_chunks: Optional[int] = 50,
                root: Optional[str] = None) -> WebloadResult:
    """Record the plan with accountability off and on, then audit.

    Four recordings total: ``bare-hw`` and ``avmm-rsa768`` for the
    throughput/latency comparison (same seeded plan), plus an archived
    ``avmm-rsa768`` pair re-run with the stale-cache cheat image for the
    detection half.  The honest accountable run itself is archived and
    stream-audited; both audits must convict nobody honest.
    """
    model = model or LoadModel()
    service_settings = service_settings or WebServiceSettings()
    plan = model.plan()
    workdir = Path(root) if root is not None else Path(
        tempfile.mkdtemp(prefix="avm-webload-"))
    cleanup = root is None
    try:
        result = WebloadResult(users=model.users, total_requests=len(plan))

        bare = _record(Configuration.BARE_HW, plan, model, service_settings)
        result.points.append(bare.point)

        honest = _record(Configuration.AVMM_RSA768, plan, model,
                         service_settings,
                         archive_root=workdir / "honest-archive",
                         snapshot_interval=snapshot_interval)
        result.points.append(honest.point)
        result.statuses_identical = (bare.statuses == honest.statuses)
        result.honest_audits = _stream_audit_run(honest,
                                                 max_chunks=max_chunks)

        cheat = _record(Configuration.AVMM_RSA768, plan, model,
                        service_settings,
                        server_image=make_cheating_webservice_image(
                            service_settings),
                        archive_root=workdir / "cheat-archive",
                        snapshot_interval=snapshot_interval)
        result.cheat_audits = _stream_audit_run(cheat, max_chunks=max_chunks)
        return result
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> WebloadResult:
    """Print the webload throughput/latency table and the audit verdicts."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=1000,
                        help="simulated users (one session each)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--arrival-rate", type=float, default=2000.0,
                        help="mean session arrivals per simulated second")
    parser.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of tables")
    args = parser.parse_args(argv)

    model = LoadModel(users=args.users, seed=args.seed,
                      arrival_rate=args.arrival_rate)
    result = run_webload(model)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return result

    print(f"Webload: {result.users:,} simulated users, "
          f"{result.total_requests:,} requests (open loop)\n")
    rows = []
    for point in result.points:
        rtt = point.rtt or RttSummary(0, 0.0, 0.0, 0.0, 0.0)
        rows.append((point.configuration,
                     f"{point.throughput_rps:,.0f}",
                     f"{rtt.p50 * 1000:.3f}", f"{rtt.p95 * 1000:.3f}",
                     f"{rtt.p99 * 1000:.3f}", f"{rtt.p999 * 1000:.3f}",
                     f"{point.record_wall_seconds:.1f} s"))
    print(format_table(["configuration", "rps", "p50 (ms)", "p95 (ms)",
                        "p99 (ms)", "p999 (ms)", "record wall"], rows))
    print(f"\nresponse statuses identical on/off: {result.statuses_identical}")
    for outcome in result.honest_audits:
        print(f"honest audit  {outcome.machine}: {outcome.verdict} "
              f"({outcome.chunks} chunks, {outcome.entries:,} entries)")
    for outcome in result.cheat_audits:
        detail = f" [{outcome.reason}]" if outcome.reason else ""
        print(f"cheat audit   {outcome.machine}: {outcome.verdict}{detail}")
    print(f"cheat detected: {result.cheat_detected}; "
          f"false accusations: {result.false_accusations}")
    return result


if __name__ == "__main__":
    main()
