"""Measurement: phases, timers, correctness checks and the layer ledger.

One *pass* is a number of rounds; a round sets a workload up, records it
with accountability off and on, drains it to the archive and audits it,
timing each phase on the host wall clock.  An untraced pass gives the
end-to-end metrics; a traced pass (rounds run under ``trace.installed``)
gives the per-layer ones.  Load is injected on the simulated clock from this
one process, so the loop is open by construction: the offered load never
waits for the program and generator lateness is zero.
"""

from __future__ import annotations

import gc
import statistics
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from bench.trace import TARGETS, Tracer, installed
from bench.workloads import (Deployment, MachineAudit, Workload,
                             web_responses)

#: rounds every pass makes whatever the budget: two, so that the second can
#: be checked against the first
MIN_ROUNDS = 2
#: audits of each round's recording, each from a newly opened archive
AUDITS_PER_ROUND = 2


@dataclass
class Pass:
    """Everything one pass measured."""

    setup_s: List[float] = field(default_factory=list)
    bare_s: List[float] = field(default_factory=list)
    record_s: List[float] = field(default_factory=list)
    audit_s: List[float] = field(default_factory=list)
    stored_bytes: int = 0
    rtt_p99_ms: float = 0.0
    ops: int = 0
    failed_ops: int = 0
    failures: List[str] = field(default_factory=list)
    #: quantities that repeat bit for bit at one seed, traced or not
    exact: Dict[str, float] = field(default_factory=dict)
    audit_entries: int = 0
    audit_peak_traced_mb: float = 0.0
    verdicts: Dict[str, str] = field(default_factory=dict)
    #: counts read off the stats objects the layers expose
    sim_events: int = 0
    snapshot_bytes: int = 0
    segments_ingested: int = 0
    quarantined: int = 0

    def op(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failed_ops += 1
            self.failures.append(what)


def _phase(tracer: Optional[Tracer], name: str) -> None:
    """Enter a phase; a timed one ("other" is the untimed rest) collects
    garbage first, so that it does not pay for the allocations before it."""
    if name != "other":
        gc.collect()
    if tracer is not None:
        tracer.phase = name


def record(deployment: Deployment) -> bool:
    """Boot, run the offered load, stop, and drain to the archive.

    Returns whether every monitor finished shipping (True without archive).
    """
    scheduler = deployment.scheduler
    monitors = list(deployment.monitors.values())
    for monitor in monitors:
        monitor.start()
    for player in deployment.players:
        player.start(delay=0.5)
    scheduler.run_until(deployment.horizon)
    for player in deployment.players:
        player.stop()
    for monitor in monitors:
        monitor.stop()
    if deployment.ingest is None:
        return True
    # Delivering a straggler can append entries (a RECV and its ack), so
    # ship tails until a whole round ships nothing.
    scheduler.run_until(scheduler.clock.now + 1.0)
    for _ in range(5):
        shipped = [monitor.ship_archive_tail() for monitor in monitors]
        scheduler.run_until(scheduler.clock.now + 1.0)
        if not any(shipped):
            break
    return all(monitor.archive_shipping_complete for monitor in monitors)


def _check_audits(result: Pass, workload: Workload,
                  audits: List[MachineAudit], healthy: bool) -> None:
    for audit in audits:
        verdict = audit.result.verdict.value
        phase = workload.cheaters.get(audit.machine)
        if phase is None:
            ok = verdict == "pass"
        else:
            ok = (verdict == "fail" and audit.result.phase.value == phase
                  and audit.evidence_verified is True)
        result.verdicts[audit.machine] = (
            verdict if audit.evidence_verified is None
            else f"{verdict}@{audit.result.phase.value}"
                 f"(evidence_verified={audit.evidence_verified})")
        result.op(ok, f"audit of {audit.machine}: {audit.result.summary()}")
    result.op(healthy, "archive recovery unclean or a shipment quarantined")
    result.audit_entries = sum(
        audit.result.replay_report.entries_replayed
        for audit in audits if audit.result.replay_report is not None)


def run_rounds(workload: Workload, root: Path, seconds: float,
               tracer: Optional[Tracer] = None) -> Tuple[Pass, Pass]:
    """Rounds of set-up, bare recording, accountable recording and audit.

    Every round is the whole pipeline on a new deployment and a new archive,
    so each timed phase gets a sample per round (the audit several).
    Rounds run while the next one still fits in the ``seconds`` budget, and
    at least ``MIN_ROUNDS`` of them.  All rounds of a seed do the same work:
    a round whose exact quantities differ from the first round's is a failed
    op.

    With a ``tracer`` every untraced round is followed by a traced one, the
    wrappers installed for its duration only, so that the two passes see the
    same minutes of the machine.  Returns ``(untraced, traced)`` passes; the
    second is empty without a tracer.
    """
    began = perf_counter()
    plain, traced = Pass(), Pass()
    rounds = 0
    while rounds < MIN_ROUNDS or (
            (perf_counter() - began) * (rounds + 1) / rounds <= seconds):
        archive_root = root / f"plain-{rounds}"
        deployment = _round(workload, archive_root, None, plain)
        if tracer is not None:
            archive_root = root / f"traced-{rounds}"
            with installed(tracer):
                deployment = _round(workload, archive_root, tracer, traced)
        rounds += 1

    if tracer is not None and workload.has_requests:
        # Peak traced memory of one more audit, outside every timed phase.
        gc.collect()
        tracemalloc.start()
        workload.audit(deployment, archive_root, True)
        traced.audit_peak_traced_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return plain, traced


def _round(workload: Workload, archive_root: Path, tracer: Optional[Tracer],
           result: Pass) -> Deployment:
    _phase(tracer, "setup")
    started = perf_counter()
    deployment = workload.build(True, archive_root)
    result.setup_s.append(perf_counter() - started)

    _phase(tracer, "other")
    reference = workload.build(False, None, trust=deployment.trust)
    _phase(tracer, "bare")
    started = perf_counter()
    record(reference)
    result.bare_s.append(perf_counter() - started)

    _phase(tracer, "record")
    started = perf_counter()
    drained = record(deployment)
    result.record_s.append(perf_counter() - started)
    _phase(tracer, "other")
    result.op(drained, "archive drain did not converge")
    result.stored_bytes = workload.stored_bytes(deployment, archive_root)

    responses = 0
    if workload.has_requests:
        expected, _ = web_responses(reference)
        statuses, result.rtt_p99_ms = web_responses(deployment)
        for request_id in deployment.sent_at:
            ok = (request_id in statuses
                  and statuses[request_id] == expected.get(request_id))
            responses += ok
            result.op(ok, f"request {request_id}: status "
                          f"{statuses.get(request_id)} != bare "
                          f"{expected.get(request_id)}")

    for _ in range(AUDITS_PER_ROUND):
        _phase(tracer, "audit")
        started = perf_counter()
        audits, healthy = workload.audit(deployment, archive_root,
                                         tracer is not None)
        result.audit_s.append(perf_counter() - started)
        _phase(tracer, "other")
        _check_audits(result, workload, audits, healthy)

    monitors = deployment.monitors.values()
    endpoints = list(deployment.monitors)
    result.sim_events = deployment.scheduler.events_run
    result.snapshot_bytes = sum(
        m.snapshots.stats.dirty_bytes_total for m in monitors)
    if deployment.ingest is not None:
        endpoints.append(deployment.ingest.identity)
        result.segments_ingested = deployment.ingest.stats.segments_ingested
        result.quarantined = len(deployment.ingest.quarantine)
    exact = {
        "stored_bytes": result.stored_bytes,
        "model.rtt_p99_ms": result.rtt_p99_ms,
        "responses": responses,
        "monitor.signatures": sum(
            m.stats.signatures_generated for m in monitors),
        "log.entries": sum(len(m.log) for m in monitors),
        "audit.entries": result.audit_entries,
        "network.messages": sum(
            deployment.network.stats_for(e).messages_sent for e in endpoints),
        "network.bytes": sum(
            deployment.network.stats_for(e).bytes_sent for e in endpoints),
    }
    if result.exact:
        result.op(exact == result.exact,
                  f"a round differs from the first: {exact} != {result.exact}")
    else:
        result.exact = exact
    return deployment


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(result: Pass, peak_rss_mb: float) -> Dict[str, dict]:
    """The gated metrics, each with its unit and sample count.

    A timing's value is its fastest round.  The rounds of one seed do the
    same work and whatever else runs on the host only ever adds time, so the
    minimum is the sample least disturbed by the machine; the median and
    the maximum are reported beside it.
    """
    def timing(values: List[float]) -> dict:
        return {"value": min(values), "unit": "s", "samples": len(values),
                "median": statistics.median(values), "max": max(values)}
    return {
        "setup_s": timing(result.setup_s),
        "record_s": timing(result.record_s),
        "audit_s": timing(result.audit_s),
        "stored_bytes": {"value": result.stored_bytes, "unit": "B"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


#: metric -> (unit, phase, spans, span attribute).  ``*_s`` rows are self
#: times.  "audit" rows are per audit, the others per round: the phase's
#: total over the pass divided by how many times the phase ran.
LAYER_ROWS = {
    "crypto.sign_s": ("s", "record", ("crypto.sign",), "self_s"),
    "crypto.sign_calls": ("count", "record", ("crypto.sign",), "calls"),
    "crypto.verify_s": ("s", "record", ("crypto.verify",), "self_s"),
    "crypto.verify_calls": ("count", "record", ("crypto.verify",), "calls"),
    "crypto.audit_verify_s": ("s", "audit", ("crypto.verify",), "self_s"),
    "crypto.keygen_s": ("s", "setup", ("crypto.keygen",), "self_s"),
    "log.append_s": ("s", "record", ("log.append",), "self_s"),
    "log.append_calls": ("count", "record", ("log.append",), "calls"),
    "log.encode_s": ("s", "record", ("log.encode",), "self_s"),
    "log.encode_bytes": ("B", "record", ("log.encode",), "units"),
    "log.ingest_decode_s": ("s", "record", ("log.decode",), "self_s"),
    "log.ingest_chain_verify_s": ("s", "record", ("log.chain_verify",),
                                  "self_s"),
    # the audit cost model compresses the log to price its download
    "log.audit_encode_s": ("s", "audit", ("log.encode",), "self_s"),
    "log.decode_s": ("s", "audit", ("log.decode",), "self_s"),
    "log.decode_entries": ("count", "audit", ("log.decode",), "units"),
    "log.chain_verify_s": ("s", "audit", ("log.chain_verify",), "self_s"),
    "log.auth_verify_s": ("s", "audit", ("log.auth_verify",), "self_s"),
    "vm.exec_s": ("s", "record", ("vm.exec",), "self_s"),
    "vm.events": ("count", "record", ("vm.exec",), "calls"),
    "vm.snapshot_s": ("s", "record", ("vm.snapshot",), "self_s"),
    "vm.snapshot_calls": ("count", "record", ("vm.snapshot",), "calls"),
    "vm.replay_exec_s": ("s", "audit", ("vm.exec",), "self_s"),
    "avmm.deliver_self_s": ("s", "record", ("avmm.deliver",), "self_s"),
    "avmm.net_in_self_s": ("s", "record", ("avmm.net_in",), "self_s"),
    "avmm.snapshot_self_s": ("s", "record", ("avmm.snapshot",), "self_s"),
    "avmm.ship_s": ("s", "record", ("avmm.ship",), "self_s"),
    "avmm.replay_s": ("s", "audit", ("avmm.replay",), "self_s"),
    "avmm.replay_calls": ("count", "audit", ("avmm.replay",), "calls"),
    "network.send_s": ("s", "record", ("network.send",), "self_s"),
    "network.wire_size_s": ("s", "record", ("network.wire_size",), "self_s"),
    "sim.self_s": ("s", "record", ("sim.run",), "self_s"),
    "service.ingest_s": ("s", "record", ("service.ingest",), "self_s"),
    "store.write_s": ("s", "record", ("store.write", "store.file_write"),
                      "self_s"),
    "store.write_bytes": ("B", "record", ("store.file_write",), "units"),
    "store.fsync_s": ("s", "record", ("store.fsync",), "self_s"),
    "store.fsync_calls": ("count", "record", ("store.fsync",), "calls"),
    "store.read_s": ("s", "audit", ("store.read",), "self_s"),
    "store.read_bytes": ("B", "audit", ("store.read",), "units"),
    "audit.self_s": ("s", "audit", ("audit.run", "audit.segment"), "self_s"),
    "audit.crosscheck_s": ("s", "audit", ("audit.crosscheck",), "self_s"),
    "audit.evidence_verify_s": ("s", "audit", ("audit.evidence_verify",),
                                "total_s"),
    # Sums of rows that are zero on a workload without an archive, so the
    # gate has a byte-volume and a read-path figure that exist everywhere.
    "record.bytes_path_s": ("s", "record", (
        "vm.snapshot", "log.encode", "store.write", "store.file_write",
        "store.fsync", "service.ingest"), "self_s"),
    "audit.read_path_s": ("s", "audit", (
        "store.read", "log.decode", "log.chain_verify", "log.auth_verify"),
        "self_s"),
    "audit.segment_calls": ("count", "audit", ("audit.segment",), "calls"),
    "audit.segment_entries": ("count", "audit", ("audit.segment",), "units"),
}


def per_layer(workload: Workload, plain: Pass, traced: Pass,
              tracer: Tracer) -> Dict[str, dict]:
    """The layer ledger from a traced pass and its untraced reference.

    A row none of whose wrap points resolved reads ``None``.
    """
    wrapped = {t.span for t in TARGETS if t.dotted not in tracer.missing}
    rounds = len(traced.record_s)
    per = {"setup": rounds, "record": rounds, "audit": len(traced.audit_s)}
    metrics: Dict[str, dict] = {}
    for name, (unit, phase, spans, attribute) in LAYER_ROWS.items():
        present = [span for span in spans if span in wrapped]
        value = None
        if present:
            value = sum(getattr(tracer.total(phase, span), attribute)
                        for span in present) / per[phase]
        metrics[name] = {"value": value, "unit": unit}

    def add(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    # On an archive every audit_segment call is a serial second pass after
    # the streaming or engine path detected something; a live target's
    # first pass goes through it too and is not a fallback.
    calls = metrics.pop("audit.segment_calls")["value"]
    entries = metrics.pop("audit.segment_entries")["value"]
    live = workload.store_format is None
    if calls is not None:
        calls -= len(traced.verdicts) if live else 0
        entries -= traced.audit_entries if live else 0
    add("audit.fallbacks", calls, "count")
    add("audit.second_pass_entries", entries, "count")
    add("audit.chunks", metrics["avmm.replay_calls"]["value"], "count")
    add("audit.entries", traced.audit_entries, "count")
    add("audit.peak_traced_mb", traced.audit_peak_traced_mb, "MB")
    add("service.segments", traced.segments_ingested, "count")
    add("service.quarantined", traced.quarantined, "count")
    add("vm.snapshot_bytes", traced.snapshot_bytes, "B")
    add("vm.bare_record_s", min(traced.bare_s), "s")
    add("network.messages", traced.exact["network.messages"], "count")
    add("network.bytes", traced.exact["network.bytes"], "B")
    add("sim.events", traced.sim_events, "count")
    add("model.rtt_p99_ms", traced.rtt_p99_ms, "ms")
    add("record.tax_x", min(plain.record_s) / min(plain.bare_s), "x")
    # The ledger: what the rows above leave out (spans no row reports, then
    # time under no span at all), and what it cost to look.
    reported = {(phase, span) for _, phase, spans, _ in LAYER_ROWS.values()
                for span in spans}
    for phase in ("record", "audit"):
        add(f"{phase}.other_s", sum(
            total.self_s for key, total in tracer.totals.items()
            if key[0] == phase and key not in reported) / per[phase], "s")
    add("trace.record_s", statistics.fmean(traced.record_s), "s")
    add("trace.audit_s", statistics.fmean(traced.audit_s), "s")
    add("record.unattributed_s",
        (sum(traced.record_s) - tracer.self_seconds("record")) / rounds, "s")
    add("audit.unattributed_s",
        (sum(traced.audit_s) - tracer.self_seconds("audit")) / per["audit"],
        "s")
    add("trace.overhead_x", min(traced.record_s) / min(plain.record_s), "x")
    return metrics
