"""The sharded fleet audit plane: placement, gossip conviction, handoff.

The contract under test (``docs/fleet-sharding.md``):

* consistent-hash placement is deterministic, balanced, and minimally
  disruptive when shards join;
* an N-shard fleet audit is *structurally identical* to the single-service
  pipeline — same :class:`~repro.audit.verdict.AuditResult` (verdict,
  evidence, modelled cost) per machine, honest and adversarial alike;
* a machine shipping distinct chains to different shards is convicted from
  gossiped authenticators alone, and no honest machine ever is;
* shard handoff is idempotent and resumable — an interrupted migration
  recovers without forking the archived chain.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.adversary.equivocation import alternate_authenticators
from repro.adversary.guests import make_cheating_kvserver_image
from repro.audit.auditor import Auditor
from repro.audit.multiparty import EquivocationProof, find_equivocation
from repro.audit.verdict import AuditPhase, Verdict
from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto import hashing
from repro.crypto.keys import build_trust
from repro.errors import LogFormatError, RetentionError, StoreError
from repro.log.authenticator import make_authenticator
from repro.log.hashchain import ChainCheckpoint
from repro.network.simnet import SimulatedNetwork
from repro.service.fleet import (FleetCoordinator, build_fleet,
                                 drain_fleet_to_archive)
from repro.service.shard import ShardRing, migrate_machine
from repro.sim.scheduler import Scheduler
from repro.store.archive import LogArchive
from repro.workloads.kvstore import make_kvserver_image
from repro.workloads.sqlbench import SqlBenchSettings, make_sqlbench_image

from archive_tools import shipment


def fleet_machine_names(count):
    return [f"db-{kind}-{index:02d}"
            for index in range(count // 2) for kind in ("server", "client")]


class TestShardRing:
    def test_placement_is_deterministic_across_instances(self):
        ids = [f"shard-{i}" for i in range(5)]
        first, second = ShardRing(ids), ShardRing(reversed(ids))
        for machine in fleet_machine_names(64):
            assert first.shard_for(machine) == second.shard_for(machine)

    def test_balance_at_fleet_scale(self):
        ring = ShardRing([f"shard-{i}" for i in range(4)])
        counts = ring.assignment_counts(fleet_machine_names(1000))
        assert sum(counts.values()) == 1000
        # 64 vnodes keep max/mean within ~1.3x at this scale.
        assert max(counts.values()) / (1000 / 4) < 1.35

    def test_adding_a_shard_moves_about_one_nth(self):
        machines = fleet_machine_names(1000)
        ring = ShardRing([f"shard-{i}" for i in range(4)])
        before = {machine: ring.shard_for(machine) for machine in machines}
        ring.add_shard("shard-4")
        moved = sum(1 for machine in machines
                    if ring.shard_for(machine) != before[machine])
        # Consistent hashing: only keys claimed by the new shard move
        # (~1/5th of the fleet), nothing reshuffles between survivors.
        assert 0 < moved < 2 * (1000 / 5)
        for machine in machines:
            new = ring.shard_for(machine)
            assert new == before[machine] or new == "shard-4"

    def test_empty_ring_and_duplicate_shards_are_errors(self):
        ring = ShardRing()
        with pytest.raises(StoreError):
            ring.shard_for("db-server-00")
        ring.add_shard("shard-0")
        with pytest.raises(ValueError):
            ring.add_shard("shard-0")
        ring.remove_shard("shard-0")
        with pytest.raises(ValueError):
            ring.remove_shard("shard-0")


# -- EquivocationProof wire form (satellite: third-party verifiable) ---------

@pytest.fixture(scope="module")
def proof_parts(ca):
    """A genuine equivocation: two valid signatures on conflicting hashes."""
    from repro.crypto.keys import KeyStore
    keypair = ca.issue("mallory")
    keystore = KeyStore(ca)
    keystore.add_certificate(keypair.certificate)
    previous = hashing.hash_bytes(b"prefix")
    auths = []
    for branch in (b"left", b"right"):
        content = hashing.hash_bytes(b"content:" + branch)
        chain = hashing.hash_concat(previous, hashing.encode_int(9),
                                    "send".encode("utf-8"), content)
        auths.append(make_authenticator(keypair, sequence=9, chain_hash=chain,
                                        previous_hash=previous,
                                        entry_type="send",
                                        content_hash=content))
    proof = find_equivocation(auths, keystore)
    assert proof is not None and proof.verify(keystore)
    return proof, keystore


class TestEquivocationProofWire:
    def test_round_trip_preserves_verification(self, proof_parts):
        proof, keystore = proof_parts
        wire = json.dumps(proof.to_dict(), sort_keys=True)
        received = EquivocationProof.from_dict(json.loads(wire))
        assert received == proof
        assert received.verify(keystore)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("machine", "alice"),
        lambda d: d.__setitem__("sequence", 10),
        lambda d: d["first"].__setitem__("chain_hash",
                                         d["second"]["chain_hash"]),
        lambda d: d["first"].__setitem__("signature",
                                         d["second"]["signature"]),
        lambda d: d["second"].__setitem__("sequence", 10),
        lambda d: d["second"].__setitem__("machine", "alice"),
        lambda d: d["second"].__setitem__("content_hash",
                                          d["first"]["content_hash"]),
    ])
    def test_any_mutated_field_fails_verification(self, proof_parts, mutate):
        proof, keystore = proof_parts
        payload = json.loads(json.dumps(proof.to_dict()))
        mutate(payload)
        assert not EquivocationProof.from_dict(payload).verify(keystore)

    def test_malformed_payloads_raise_log_format_error(self, proof_parts):
        proof, _ = proof_parts
        good = proof.to_dict()
        for breakage in (
                {**good, "kind": "not-a-proof"},
                {**good, "sequence": "not-an-int"},
                {key: value for key, value in good.items() if key != "first"},
                {**good, "second": {"machine": "mallory"}},
        ):
            with pytest.raises(LogFormatError):
                EquivocationProof.from_dict(breakage)


# -- per-service metrics / per-network message ids (satellites) --------------

class TestScopedInstruments:
    def test_shard_services_do_not_clobber_each_other(self, tmp_path):
        from repro.obs import Observability
        from repro.service.ingest import AuditIngestService
        obs = Observability.make()
        first = AuditIngestService(LogArchive(tmp_path / "a"),
                                   identity="shard-a", obs=obs)
        second = AuditIngestService(LogArchive(tmp_path / "b"),
                                    identity="shard-b", obs=obs)
        first._m_messages.inc()
        first._m_messages.inc()
        second._m_messages.inc()
        assert obs.metrics.value("ingest.shard-a.messages_total") == 2
        assert obs.metrics.value("ingest.shard-b.messages_total") == 1
        # Distinct instruments, not one shared via the registry name cache.
        assert first._m_messages is not second._m_messages

    def test_default_identity_keeps_historical_bare_names(self, tmp_path):
        from repro.obs import Observability
        from repro.service.ingest import AuditIngestService
        obs = Observability.make()
        service = AuditIngestService(LogArchive(tmp_path / "arch"), obs=obs)
        service._m_messages.inc()
        assert obs.metrics.value("ingest.messages_total") == 1

    def test_scoped_wrapper_reads_back_through_registry(self):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        scoped = registry.scoped("fleet.")
        scoped.counter("migrations_total").inc(3)
        scoped.gauge("shards").set(4)
        assert registry.value("fleet.migrations_total") == 3
        assert scoped.value("shards") == 4
        assert scoped.get("migrations_total") is registry.get(
            "fleet.migrations_total")


class TestPerNetworkMessageIds:
    def test_independent_networks_allocate_independently(self):
        first = SimulatedNetwork(Scheduler())
        second = SimulatedNetwork(Scheduler())
        assert [first.allocate_message_id() for _ in range(3)] == \
            ["m0000000001", "m0000000002", "m0000000003"]
        # A fresh network starts from 1 regardless of traffic elsewhere.
        assert second.allocate_message_id() == "m0000000001"

    def test_same_seed_fleets_identical_without_global_reset(self):
        # Two same-seed recordings in one process must produce identical
        # chains with nothing reset in between — the ids that land in
        # RECV/ACK entries come from each recording's own network, not a
        # process-global counter.
        heads = []
        for _ in range(2):
            fleet = build_fleet(num_machines=2, duration=1.0, seed=13,
                                snapshot_interval=0.5)
            heads.append({machine: fleet.monitors[machine].log.head_hash
                          for machine in fleet.machines})
        assert heads[0] == heads[1]


# -- N shards vs one service: structural identity (satellite) ----------------

def single_service_audit(fleet):
    """The single-service audit policy the coordinator must reproduce."""
    ingest = fleet.ingest
    machines = sorted(set(ingest.archive.machines())
                      | set(ingest.quarantined_machines()))
    results = {}
    for machine in machines:
        if not ingest.archive.segment_records(machine) \
                and machine not in ingest.quarantined_machines():
            continue  # authenticator-only entries: no verdict owed
        auditor = fleet.make_auditor(machine, collect=False)
        auditor.collect_authenticators(
            machine, ingest.archive.authenticators_for(machine))
        quarantined = ingest.quarantine_for(machine)
        if quarantined:
            results[machine] = auditor.suspect(
                machine,
                reason=f"archive quarantined {len(quarantined)} "
                       f"shipment(s): {quarantined[0].reason}")
        else:
            results[machine] = ingest.audit_machine(auditor, machine,
                                                    collect=False)
    return results


def coordinator_audit(fleet):
    return fleet.coordinator.audit_fleet(
        lambda machine: fleet.make_auditor(machine, collect=False),
        fleet.keystore)


def test_sharded_audit_structurally_identical_to_single_service(tmp_path):
    """One staged walk: honest, forged, quarantined, then equivocating.

    Each adversary cell mutates *both* pipelines identically and re-audits;
    the per-machine :class:`AuditResult`\\ s must stay equal (dataclass
    ``==``: verdict, phase, evidence, modelled cost) at every stage.  The
    stages live in one test because they share the two recordings and must
    apply in a fixed order regardless of test-shuffle.
    """
    kwargs = dict(num_machines=8, duration=1.5, seed=23,
                  snapshot_interval=0.5)
    single = build_fleet(archive=LogArchive(tmp_path / "single"), **kwargs)
    coordinator = FleetCoordinator.build(tmp_path / "sharded", 4)
    sharded = build_fleet(coordinator=coordinator, **kwargs)
    # Same-seed recordings are bit-identical, so adversarial injections
    # forged from either fleet's logs/keys agree across the two pipelines.
    assert {m: single.monitors[m].log.head_hash for m in single.machines} \
        == {m: sharded.monitors[m].log.head_hash for m in sharded.machines}

    # Stage 1: honest fleet.
    baseline = single_service_audit(single)
    outcome = coordinator_audit(sharded)
    assert outcome.results == baseline
    assert outcome.all_passed and outcome.convictions == {}
    assert outcome.cross_shard_forks == []
    # The identity is not vacuous: gossip really pooled commitments (an
    # empty pool would also "match" a baseline that skipped collection).
    assert all(result.authenticators_checked > 0
               for result in outcome.results.values())
    # Chains spread over several shards, each machine owned by exactly one.
    assert len(set(outcome.shard_of.values())) > 1
    assert sorted(outcome.shard_of) == single.machines

    # Stage 2: forged authenticator — validly signed, contradicts the log.
    forger = single.machines[1]
    collector = single.peers[forger]
    covered = {auth.sequence
               for auth in single.ingest.archive.authenticators_for(forger)}
    # A committed sequence no genuine authenticator covers: the forgery
    # fails AUTHENTICATOR_CHECK without forming an equivocating pair, so
    # conviction stays reserved for stage 4.
    sequence = next(s for s in range(1, len(single.monitors[forger].log) + 1)
                    if s not in covered)
    for fleet in (single, sharded):
        forged = alternate_authenticators(
            fleet.monitors[forger].log, fleet.keypairs[forger],
            random.Random(99), sequence, 1)
        if fleet.coordinator is None:
            fleet.ingest.ingest_authenticators(forger, forged)
        else:
            # Append where the collector's genuine batches landed, so the
            # pooled order matches the single archive's batch order.
            fleet.coordinator.shard_for_machine(
                collector).service.ingest_authenticators(forger, forged)
    baseline = single_service_audit(single)
    outcome = coordinator_audit(sharded)
    assert outcome.results == baseline
    assert outcome.results[forger].verdict is Verdict.FAIL
    assert outcome.results[forger].phase is AuditPhase.AUTHENTICATOR_CHECK
    assert forger not in outcome.convictions

    # Stage 3: lying shipper — garbage shipment, quarantined, SUSPECTED.
    liar = single.machines[2]
    for fleet in (single, sharded):
        service = (fleet.ingest if fleet.coordinator is None
                   else fleet.coordinator.shard_for_machine(liar).service)
        service.on_message(shipment(liar, service.identity, message_id="mx",
                                    segment=b"not a log segment"))
    baseline = single_service_audit(single)
    outcome = coordinator_audit(sharded)
    assert outcome.results == baseline
    assert outcome.results[liar].verdict is Verdict.SUSPECTED
    assert outcome.quarantined[liar] == 1

    # Stage 4: cross-shard equivocation (sharded-only by nature — a single
    # service holds one pool, so the fork is visible only through gossip).
    equivocator = single.machines[3]
    genuine_home = coordinator.shard_for_machine(
        sharded.peers[equivocator]).identity
    foreign = next(shard for shard in coordinator.shards
                   if shard.identity != genuine_home)
    alternates = alternate_authenticators(
        sharded.monitors[equivocator].log, sharded.keypairs[equivocator],
        random.Random(7), 2, 3)
    foreign.service.ingest_authenticators(equivocator, alternates)
    outcome = coordinator_audit(sharded)
    # Convicted purely from pooled gossip: the foreign shard never held the
    # genuine commitments and the home shard never saw the alternates.
    assert set(outcome.convictions) == {equivocator}
    assert outcome.convictions[equivocator].verify(sharded.keystore)
    assert outcome.verdict_for(equivocator) == "convicted"
    honest = [machine for machine in outcome.results
              if machine not in (equivocator, forger, liar)]
    assert honest and all(outcome.results[machine].verdict is Verdict.PASS
                          for machine in honest)


def test_cheating_guest_fails_semantically_in_both_pipelines(
        tmp_path, monkeypatch):
    from repro.service import fleet as fleet_module

    def build_cheating(which):
        calls = {"count": 0}

        def patched(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 1:  # the first server built cheats
                return make_cheating_kvserver_image()
            return make_kvserver_image(*args, **kwargs)

        monkeypatch.setattr(fleet_module, "make_kvserver_image", patched)
        kwargs = dict(num_machines=4, duration=1.5, seed=31,
                      snapshot_interval=0.5)
        if which == "single":
            fleet = build_fleet(archive=LogArchive(tmp_path / "single"),
                                **kwargs)
        else:
            fleet = build_fleet(
                coordinator=FleetCoordinator.build(tmp_path / "sharded", 4),
                **kwargs)
        # The recorded image cheats; the *reference* must be honest or the
        # replay would just reproduce the cheat.
        fleet.reference_images["db-server-00"] = make_kvserver_image()
        return fleet

    single = build_cheating("single")
    sharded = build_cheating("sharded")
    baseline = single_service_audit(single)
    outcome = coordinator_audit(sharded)
    assert outcome.results == baseline
    assert outcome.results["db-server-00"].verdict is Verdict.FAIL
    assert outcome.results["db-server-00"].phase is AuditPhase.SEMANTIC_CHECK
    assert outcome.convictions == {}


# -- shard handoff: idempotent, resumable, never forks -----------------------

@pytest.fixture()
def small_sharded_fleet(tmp_path):
    coordinator = FleetCoordinator.build(tmp_path / "fleet", 2)
    fleet = build_fleet(num_machines=4, duration=1.5, seed=41,
                        snapshot_interval=0.5, coordinator=coordinator)
    return fleet, coordinator


def audit_one(fleet, coordinator, machine):
    shard = coordinator.shard_for_machine(machine)
    auditor = fleet.make_auditor(machine, collect=False)
    auditor.collect_authenticators(
        machine,
        coordinator.pool_gossip(coordinator.gossip_authenticators(), machine))
    return shard.service.audit_machine(auditor, machine, collect=False)


class TestShardHandoff:
    def test_migration_moves_chain_and_audit_still_passes(
            self, small_sharded_fleet):
        fleet, coordinator = small_sharded_fleet
        machine = fleet.machines[0]
        source = coordinator.shard_for_machine(machine)
        destination = next(shard for shard in coordinator.shards
                           if shard.identity != source.identity)
        before = audit_one(fleet, coordinator, machine)
        snapshots_before = source.archive.snapshot_store(
            machine).snapshot_ids()

        report = coordinator.rebalance(machine, destination.identity,
                                       monitor=fleet.monitors[machine])
        assert coordinator.shard_for_machine(machine) is destination
        assert machine not in source.archived_machines()
        assert machine in destination.archived_machines()
        assert report.segments_copied > 0 and report.source_files_removed > 0
        assert report.snapshots_copied == len(snapshots_before)
        assert destination.archive.snapshot_store(machine).snapshot_ids() \
            == snapshots_before
        # Chain continuity re-proven at ingest; the verdict is unchanged.
        after = audit_one(fleet, coordinator, machine)
        assert after == before
        assert after.verdict is Verdict.PASS

    def test_interrupted_handoff_resumes_without_forking(
            self, small_sharded_fleet, monkeypatch):
        fleet, coordinator = small_sharded_fleet
        machine = fleet.machines[0]
        source = coordinator.shard_for_machine(machine)
        destination = next(shard for shard in coordinator.shards
                           if shard.identity != source.identity)
        before = audit_one(fleet, coordinator, machine)

        real_append = destination.archive.append_segment
        calls = {"count": 0}

        def failing_append(segment, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise OSError("simulated crash mid-handoff")
            return real_append(segment, **kwargs)

        monkeypatch.setattr(destination.archive, "append_segment",
                            failing_append)
        with pytest.raises(OSError):
            migrate_machine(machine, source, destination)
        # Interrupted: the source still owns the chain (forget runs last),
        # the destination holds a verified prefix — nothing forked.
        assert machine in source.archived_machines()
        monkeypatch.setattr(destination.archive, "append_segment", real_append)

        report = migrate_machine(machine, source, destination)
        assert report.segments_already_present > 0
        assert machine not in source.archived_machines()
        coordinator._placement_overrides[machine] = destination.identity
        after = audit_one(fleet, coordinator, machine)
        assert after == before and after.verdict is Verdict.PASS

    def test_migrating_to_the_same_shard_is_refused(self, small_sharded_fleet):
        fleet, coordinator = small_sharded_fleet
        machine = fleet.machines[0]
        home = coordinator.shard_for_machine(machine)
        with pytest.raises(StoreError):
            migrate_machine(machine, home, home)

    def test_quarantined_machine_cannot_migrate(self, small_sharded_fleet):
        fleet, coordinator = small_sharded_fleet
        machine = fleet.machines[0]
        source = coordinator.shard_for_machine(machine)
        destination = next(shard for shard in coordinator.shards
                           if shard.identity != source.identity)
        source.service.on_message(shipment(
            machine, source.identity, message_id="mq", segment=b"garbage"))
        with pytest.raises(StoreError, match="quarantined"):
            migrate_machine(machine, source, destination)

    def test_retention_checkpoint_adoption_guards_forks(self, tmp_path):
        empty = LogArchive(tmp_path / "dst")
        anchor = ChainCheckpoint(sequence=10,
                                 chain_hash=hashing.hash_bytes(b"anchor"))
        empty.adopt_retention_checkpoint("m", anchor)
        empty.adopt_retention_checkpoint("m", anchor)  # idempotent-if-equal
        assert empty.retained_checkpoint("m") == anchor
        conflicting = ChainCheckpoint(
            sequence=10, chain_hash=hashing.hash_bytes(b"other"))
        with pytest.raises(RetentionError):
            empty.adopt_retention_checkpoint("m", conflicting)


def test_mid_run_rebalance_keeps_recording_onto_new_shard(tmp_path):
    """Rebalance while the fleet is live: the chain continues on the new shard.

    The monitors are never stopped.  Phase 1 records and ships to the ring
    home; the machine's traffic is quiesced (tail shipped and delivered),
    the chain migrates, the shipper is repointed; phase 2 keeps recording
    and the destination archive must extend the migrated chain — with the
    first post-handoff snapshot shipped as a keyframe, since the new shard
    has no delta base.
    """
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                          snapshot_interval=0.5)
    server, client = "db-server-00", "db-client-00"
    _, keypairs, keystore = build_trust([server, client, "auditor"],
                                        scheme=config.signature_scheme,
                                        seed=51)
    images = {server: make_kvserver_image(),
              client: make_sqlbench_image(SqlBenchSettings(server=server))}
    monitors = {
        server: AccountableVMM(server, images[server], config, scheduler,
                               network, keypair=keypairs[server],
                               keystore=keystore),
        client: AccountableVMM(client, images[client], config, scheduler,
                               network, keypair=keypairs[client],
                               keystore=keystore, clock_offset=0.0002),
    }
    coordinator = FleetCoordinator.build(tmp_path / "fleet", 2,
                                         network=network)
    coordinator.attach_fleet(monitors.values())
    for monitor in monitors.values():
        monitor.start()

    # Phase 1 — run past a couple of seal boundaries, then quiesce the
    # migrating machine between snapshot ticks (no seal in flight).
    scheduler.run_until(1.23)
    monitor = monitors[server]
    monitor.ship_archive_tail()
    scheduler.run_until(1.40)
    source = coordinator.shard_for_machine(server)
    destination = next(shard for shard in coordinator.shards
                       if shard.identity != source.identity)
    head_at_handoff = len(monitor.log)

    report = coordinator.rebalance(server, destination.identity,
                                   monitor=monitor)
    assert monitor.archive_destination == destination.identity
    assert report.destination_head_sequence == monitor.shipped_through

    # Phase 2 — same run continues; new segments ship to the new home.
    scheduler.run_until(3.0)
    for monitor_ in monitors.values():
        monitor_.stop()
    drain_fleet_to_archive(scheduler, monitors)

    assert len(monitor.log) > head_at_handoff
    assert destination.archive.head_checkpoint(server).sequence \
        == len(monitor.log)
    assert server not in source.archived_machines()
    assert source.service.quarantine_for(server) == []

    auditor = Auditor("auditor", keystore, images[server])
    auditor.collect_authenticators(
        server,
        coordinator.pool_gossip(coordinator.gossip_authenticators(), server))
    result = destination.service.audit_machine(auditor, server, collect=False)
    assert result.verdict is Verdict.PASS, result.reason
