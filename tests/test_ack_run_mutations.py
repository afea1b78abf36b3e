"""The ack run is a field an attacker controls: typed, bounded, all or nothing.

A genuine carrier — a DATA message from ``beta`` whose run acknowledges two
of ``alpha``'s messages across the entries beta logged in between — is
mutated every way a run can be (flip / drop / duplicate / reorder a link, swap
or substitute message ids, shift the start, replay an earlier run on this
message, splice another peer's run, untyped and oversized junk) and delivered
to alpha.  The only outcomes are *refused whole* — ``acks_rejected`` counts
it, nothing is cleared, logged as acknowledged or filed — or *the genuine
acknowledgments*; ``on_network_message`` never raises; and the message's own
RECV commitment is judged exactly as without a run: logged, verified, filed,
delivered.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import build_trust
from repro.log.authenticator import (MAX_ACK_RUN_LINKS, Authenticator,
                                     chain_run)
from repro.log.entries import EntryType
from repro.network.message import MessageKind
from repro.network.simnet import SimulatedNetwork
from repro.sim.scheduler import Scheduler
from repro.vm.events import PacketDelivery
from repro.workloads.echo import make_echo_image, make_ping_sender_image

_, KEYPAIRS, KEYSTORE = build_trust(["alpha", "beta", "gamma"])
CONFIG = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                      snapshot_interval=None)


class World:
    """alpha echoes; beta and gamma only ever send when told to, so what
    they receive from alpha stays owed until their next message to it.  The
    links back to alpha are cut: their carriers are captured, not delivered."""

    def __init__(self):
        self.scheduler = Scheduler()
        self.network = SimulatedNetwork(self.scheduler)
        images = {"alpha": make_echo_image(),
                  "beta": make_ping_sender_image("alpha"),
                  "gamma": make_ping_sender_image("alpha")}
        self.monitors = {
            identity: AccountableVMM(identity, image, CONFIG, self.scheduler,
                                     self.network, keypair=KEYPAIRS[identity],
                                     keystore=KEYSTORE)
            for identity, image in images.items()}
        for identity, monitor in self.monitors.items():
            monitor.start()
            if identity != "alpha":
                self.network.partition(identity, "alpha", bidirectional=False)
        self.alpha = self.monitors["alpha"]
        self.sent = 0

    def alpha_sends(self, peer: str, count: int) -> list:
        """alpha's guest sends ``count`` messages to ``peer``; their ids."""
        receipts = self.alpha._expected_receipts.setdefault(peer, {})  # noqa: SLF001
        before = set(receipts)
        for _ in range(count):
            self.sent += 1
            self.alpha.deliver_event(PacketDelivery(
                source=peer, payload=b"payload %d" % self.sent,
                message_id=f"local-{self.sent}"))
        self.scheduler.run_until(self.scheduler.clock.now + 0.005)
        return sorted(set(receipts) - before)

    def carrier_from(self, peer: str):
        """``peer`` sends alpha a message; the envelope, captured."""
        monitor = self.monitors[peer]
        known = set(monitor.channel.unacknowledged)
        monitor.inject_local_input("ping")
        self.scheduler.run_until(self.scheduler.clock.now + 0.005)
        (message_id,) = set(monitor.channel.unacknowledged) - known
        return monitor.channel._pending[message_id].message  # noqa: SLF001


def scenario():
    world = World()
    earlier_ids = world.alpha_sends("beta", 2)
    earlier = world.carrier_from("beta")
    ids = world.alpha_sends("beta", 2)
    carrier = world.carrier_from("beta")
    world.alpha_sends("gamma", 2)
    other = world.carrier_from("gamma")
    assert [link for link in carrier.ack_run.links if isinstance(link, str)] == ids
    assert len(carrier.ack_run.links) > len(ids)  # opaque links in between
    return world, carrier, ids, earlier, earlier_ids, other


def deliver(world, message):
    """What alpha made of ``message``: ids acknowledged, runs refused."""
    alpha = world.alpha
    in_flight = set(alpha.channel.unacknowledged)
    rejected = alpha.stats.acks_rejected
    alpha.on_network_message(message)
    world.scheduler.run_until(world.scheduler.clock.now + 0.005)
    return (in_flight - set(alpha.channel.unacknowledged),
            alpha.stats.acks_rejected - rejected)


def own_commitment(world, message):
    """How alpha judged the message itself, whatever its run was."""
    alpha = world.alpha
    (recv,) = (entry for entry in alpha.log
               if entry.entry_type is EntryType.RECV
               and entry.content["message_id"] == message.message_id)
    return (recv.content, alpha.authenticators_from(message.source),
            alpha.guest.packets_echoed)


HASH = st.binary(min_size=32, max_size=32)
JUNK = st.one_of(st.none(), st.integers(), st.text(max_size=3), HASH,
                 st.tuples(st.text(max_size=5), st.binary(max_size=40)),
                 st.tuples(st.integers(), HASH, HASH))


@st.composite
def mutations(draw):
    """A function from the scenario to a mutated run (or junk)."""
    kind = draw(st.sampled_from([
        "identity", "flip", "drop", "duplicate", "reorder", "swap-ids",
        "substitute-id", "shift-start", "other-start-hash", "earlier-run",
        "other-peers-run", "junk-link", "junk-run", "too-long", "no-links"]))
    a, b = draw(st.integers(0, 63)), draw(st.integers(0, 63))
    junk, digest = draw(JUNK), draw(HASH)

    def mutate(carrier, ids, earlier, earlier_ids, other):
        run = carrier.ack_run
        links = list(run.links)
        i, j = a % len(links), b % len(links)
        yours = [n for n, link in enumerate(links) if isinstance(link, str)]
        if kind == "flip":
            if isinstance(links[i], str):
                links[i] = links[i][:-1] + ("x" if links[i][-1] != "x" else "y")
            else:
                links[i] = (links[i][0], bytes([links[i][1][0] ^ 1]) + links[i][1][1:])
        elif kind == "drop":
            del links[i]
        elif kind == "duplicate":
            links.insert(i, links[i])
        elif kind == "reorder":
            if links[i] == links[j]:
                j = (i + 1) % len(links)
            links[i], links[j] = links[j], links[i]
        elif kind == "swap-ids":
            links[yours[0]], links[yours[1]] = links[yours[1]], links[yours[0]]
        elif kind == "substitute-id":
            links[yours[a % 2]] = earlier_ids[b % 2]  # in flight, not in this run
        elif kind == "shift-start":
            return replace(run, first_sequence=run.first_sequence + 1 + a % 3)
        elif kind == "other-start-hash":
            return replace(run, start_hash=digest)
        elif kind == "earlier-run":
            return earlier.ack_run
        elif kind == "other-peers-run":
            return other.ack_run
        elif kind == "junk-link":
            links[i] = junk
        elif kind == "junk-run":
            return junk if junk is not None else (run.first_sequence,
                                                  run.start_hash, run.links)
        elif kind == "too-long":
            links = links * (MAX_ACK_RUN_LINKS // len(links) + 1)
        elif kind == "no-links":
            links = []
        return replace(run, links=tuple(links))

    return kind, mutate


@settings(max_examples=80, deadline=None)
@given(mutations())
def test_a_mutated_run_is_refused_whole_or_is_the_genuine_one(mutation):
    kind, mutate = mutation
    world, carrier, ids, earlier, earlier_ids, other = scenario()
    mutated = replace(carrier, ack_run=mutate(carrier, ids, earlier,
                                              earlier_ids, other))
    filed_before = len(world.alpha.authenticators_from("beta"))
    acks_logged = sum(1 for e in world.alpha.log if e.entry_type is EntryType.ACK
                      and e.content["direction"] == "received")

    acknowledged, refused = deliver(world, mutated)

    if mutated.ack_run == carrier.ack_run:
        assert (acknowledged, refused) == (set(ids), 0)
    else:
        assert (acknowledged, refused) == (set(), 1), kind
        assert sum(1 for e in world.alpha.log if e.entry_type is EntryType.ACK
                   and e.content["direction"] == "received") == acks_logged
    # The message itself: logged, its SEND commitment verified and filed —
    # that one authenticator and no other — and delivered to the guest.
    content, filed, echoed = own_commitment(world, mutated)
    reference = scenario()
    deliver(reference[0], reference[1])
    assert (content, filed[filed_before:], echoed) == tuple(
        part if index != 1 else part[filed_before:] for index, part
        in enumerate(own_commitment(reference[0], reference[1])))
    assert len(filed) == filed_before + 1 and filed[-1].entry_type == "send"


def test_standalone_cumulative_ack_from_a_real_monitor_round_trips():
    # The hold timer's ACK, not a hand-built one: beta owes alpha two
    # receipts and says nothing, so one signature over the later RECV entry
    # acknowledges both.
    world = World()
    ids = world.alpha_sends("beta", 2)
    world.network.heal_partition("beta", "alpha")
    world.scheduler.run_until(world.scheduler.clock.now + 2 * world.alpha.ack_hold)
    (ack,) = (m for _, m in world.network.deliveries if m.kind is MessageKind.ACK)
    assert [link for link in ack.ack_run.links if isinstance(link, str)] == ids[:1]
    assert ack.headers["acked_message_id"] == ids[1]
    beta = world.monitors["beta"]
    assert (beta.stats.acks_sent, beta.stats.acks_standalone,
            beta.stats.signatures_generated) == (2, 1, 1)
    assert world.alpha.channel.unacknowledged == []
    assert world.alpha.stats.acks_received == 2
    (filed,) = world.alpha.authenticators_from("beta")
    assert filed.entry_type == "recv" and filed.verify(KEYSTORE)
    assert filed.chain_hash == beta.log.entry_at(filed.sequence).chain_hash


def test_sender_acknowledges_standalone_rather_than_outgrow_a_run():
    world = World()
    beta = world.monitors["beta"]
    world.network.heal_partition("beta", "alpha")

    def busy(entries):
        for index in range(entries):
            beta.log.append(EntryType.ANNOTATION, {"busy": index})

    # A carrier too far past the oldest owed RECV: the acknowledgment goes
    # standalone (signed at the RECV itself) and the carrier carries none.
    (first,) = world.alpha_sends("beta", 1)
    busy(MAX_ACK_RUN_LINKS + 1)
    beta.inject_local_input("ping")
    world.scheduler.run_until(world.scheduler.clock.now + 0.005)
    ack, carrier = (m for _, m in world.network.deliveries if m.source == "beta")
    assert (ack.kind, ack.ack_run, ack.headers) == (
        MessageKind.ACK, None, {"acked_message_id": first})
    assert (carrier.kind, carrier.ack_run) == (MessageKind.DATA, None)
    assert (beta.stats.acks_standalone, beta.stats.acks_piggybacked) == (1, 0)

    # A RECV arriving too far past the oldest owed one acknowledges that one
    # early (with alpha's echo of the ping, which beta also owed); the run
    # of the next carrier stays inside the bound.
    (second,) = world.alpha_sends("beta", 1)
    busy(MAX_ACK_RUN_LINKS)
    (third,) = world.alpha_sends("beta", 1)
    assert beta.stats.acks_standalone == 2
    assert list(beta._owed["alpha"].values()) == [third]  # noqa: SLF001
    busy(MAX_ACK_RUN_LINKS - 20)
    beta.inject_local_input("ping")
    world.scheduler.run_until(world.scheduler.clock.now + 0.005)
    last = [m for _, m in world.network.deliveries if m.source == "beta"][-1]
    assert last.kind is MessageKind.DATA
    assert MAX_ACK_RUN_LINKS - 20 < len(last.ack_run.links) <= MAX_ACK_RUN_LINKS
    assert world.alpha.stats.acks_rejected == 0
    assert not {first, second, third} & set(world.alpha.channel.unacknowledged)


def test_chain_run_refuses_before_hashing(monkeypatch):
    world, carrier, ids, *_ = scenario()
    run = carrier.ack_run
    signed = Authenticator.from_dict(carrier.authenticator)
    receipts = world.alpha._expected_receipts["beta"]  # noqa: SLF001
    assert chain_run(run, signed, receipts.get) == ids
    assert chain_run(None, signed, receipts.get) == []
    assert chain_run(run, replace(signed, previous_hash=b"\1" * 32),
                     receipts.get) is None
    from repro.log import authenticator
    monkeypatch.setattr(authenticator, "entry_link_hash", lambda *args: 1 / 0)
    later = replace(signed, sequence=signed.sequence + 1)
    for bad, entry in [
            (replace(run, links=run.links * MAX_ACK_RUN_LINKS), signed),
            (replace(run, links=()), replace(signed, sequence=run.first_sequence)),
            (run, later), (replace(run, first_sequence=True), signed),
            (replace(run, start_hash=b"short"), signed),
            (replace(run, links=list(run.links)), signed),
            (replace(run, links=run.links[:-1] + (("no-such-type", b"\0" * 32),)),
             signed),
            (replace(run, links=run.links[:-1] + ("not-in-flight",)), signed),
            (tuple(run.links), signed), (7, signed)]:
        assert chain_run(bad, entry, receipts.get) is None
