"""Acknowledgment adversaries: lies in, instead of and about an ack run.

An acknowledgment is a claim about Bob's log that Alice checks with hashes
she computes herself (docs/message-protocol.md).  A forged link or silence
leaves his log clean, her message in flight and him *suspected* (Section
4.3); a run that verifies over a RECV his presented log does not contain (it shows
another payload under that id) convicts him at the next signed entry, which
commits him to every entry before it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.adversary.base import Adversary, ScenarioContext
from repro.adversary.shipping import CorruptingNetworkHandle
from repro.log.authenticator import AckRun
from repro.log.entries import EntryType
from repro.network.message import MessageKind, NetworkMessage


class _SuspectedAtRunTime(Adversary):
    """Seen by the peer while it runs, by no audit."""

    modes = ("full",)
    during_run = True
    expected_phases = ()
    expects_suspicion = True


class ForgedAckLinkAdversary(_SuspectedAtRunTime):
    name = "forged-ack-link"
    description = "forge one link of every ack run it sends"

    def install(self, ctx: ScenarioContext) -> None:
        channel = ctx.monitor.channel
        channel.network = CorruptingNetworkHandle(
            channel.network, (MessageKind.DATA, MessageKind.ACK), self._forge)

    def _forge(self, message: NetworkMessage) -> None:
        run = message.ack_run
        if run is None and message.kind is MessageKind.ACK:
            # a lone ACK signs the RECV itself: chain it to an entry that never was
            run = AckRun(message.authenticator["sequence"] - 1,
                         self.rng.randbytes(32), (None,))
        if run is not None:
            links = list(run.links)
            links[self.rng.randrange(len(links))] = (
                EntryType.ANNOTATION.wire_name, self.rng.randbytes(32))
            message.ack_run = replace(run, links=tuple(links))


class WithheldAcksAdversary(_SuspectedAtRunTime):
    name = "withheld-acks"
    description = "acknowledge nothing, on a carrier or past the hold"

    def install(self, ctx: ScenarioContext) -> None:
        # Bob owns the machine: its monitor never notes what it owes.
        ctx.monitor._owe = lambda *args: None  # noqa: SLF001
        ctx.monitor._acknowledge = lambda *args, **kwargs: None  # noqa: SLF001


class PhantomAckAdversary(Adversary):
    name = "phantom-ack"
    description = "acknowledge a message in a run, present a log with another RECV"
    modes = ("full",)

    def corrupt(self, ctx: ScenarioContext) -> None:
        # A RECV acknowledged through a run only: nobody holds a signature
        # on the entry itself.
        committed = set(ctx.peer_committed_sequences())
        sequence = self.rng.choice([
            entry.content["acked_sequence"] for entry in ctx.monitor.log
            if entry.entry_type is EntryType.ACK
            and entry.content["direction"] == "sent"
            and entry.content["acked_sequence"] not in committed])
        logged = ctx.monitor.log.entry_at(sequence).content
        ctx.monitor.log.tamper_replace_entry(
            sequence, {**logged, "payload": b"never received".hex()},
            recompute_chain=True)
        ctx.notes["phantom_sequence"] = sequence


ACK_ADVERSARIES = (ForgedAckLinkAdversary, PhantomAckAdversary,
                   WithheldAcksAdversary)
