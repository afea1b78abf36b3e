"""Authenticator-forging and equivocating adversaries (Sections 4.3 and 4.6).

A machine's authenticators are its signed commitments to its log.  Bob owns
his key, so he can *sign anything* — what he cannot do is make two different
signed commitments to the same sequence number without convicting himself:

* :class:`ForgedAuthenticatorAdversary` hands a peer an authenticator that is
  internally consistent and validly signed but does not match the log Bob
  later produces — the authenticator check fails, and the (authenticator,
  log segment) pair is third-party-verifiable evidence;
* :class:`EquivocatingPeer` maintains a forked view: the peers receive the
  genuine authenticators during the run, while the auditing party is handed
  commitments to an alternate chain.  Pooling the two views (the multi-party
  collection step of Section 4.6) yields an
  :class:`~repro.audit.multiparty.EquivocationProof` — two valid signatures
  by Bob on conflicting ``(sequence, chain hash)`` pairs — which convicts
  him from his signed authenticators alone, with no log download or replay.

:class:`JunkAuthenticators` hands the auditors of an honest peer spoiled
copies of its authenticators, which must count for nothing.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Tuple

from repro.adversary.base import Adversary, ScenarioContext
from repro.adversary.replay import ALL_MODES
from repro.audit.verdict import AuditPhase
from repro.crypto import hashing
from repro.log.authenticator import Authenticator, make_authenticator
from repro.service.fleet import DRAIN_SETTLE_SECONDS


def alternate_authenticators(log, keypair, rng, start_sequence: int,
                             count: int) -> List[Authenticator]:
    """Validly signed commitments to an alternate chain branching at ``start``.

    Each authenticator is internally consistent (its chain hash really is
    ``H(prev || seq || type || content-hash)``) and signed with the machine's
    certified key — it differs from the genuine history only in the content
    it commits to, which is exactly what equivocation means.  Exposed for
    any harness that needs a forked-but-validly-signed view of a log (the
    scenario matrix's forged-authenticator and equivocating-peer cells do).
    """
    entry = log.entry_at(start_sequence)
    previous = entry.previous_hash
    forged: List[Authenticator] = []
    for offset in range(count):
        sequence = start_sequence + offset
        entry_type = log.entry_at(sequence).entry_type.wire_name
        content_hash = hashing.hash_bytes(
            f"alternate:{sequence}:{rng.randrange(1 << 30)}".encode("utf-8"))
        chain = hashing.hash_concat(
            previous, hashing.encode_int(sequence),
            entry_type.encode("utf-8"), content_hash)
        forged.append(make_authenticator(
            keypair, sequence=sequence, chain_hash=chain,
            previous_hash=previous, entry_type=entry_type,
            content_hash=content_hash))
        previous = chain
    return forged


def flipped_signature(auth: Authenticator, rng: random.Random) -> Authenticator:
    """``auth`` with one bit of its signature flipped."""
    signature = bytearray(auth.signature)
    bit = rng.randrange(len(signature) * 8)
    signature[bit // 8] ^= 1 << bit % 8
    return replace(auth, signature=bytes(signature))


def cancelling_twins(first: Authenticator, second: Authenticator, keys,
                     rng: random.Random) -> Tuple[Authenticator, Authenticator]:
    """``first`` and ``second`` with their RSA signatures blinded into
    ``s₁·r`` and ``s₂·r⁻¹ mod n``: neither verifies, yet their product is
    the product of two valid signatures, so a product screen accepts them.
    ``keys`` supplies the issuer's public modulus."""
    modulus = keys.verify_key_for(first.machine).public.modulus
    factor = rng.randrange(2, modulus - 1)

    def blinded(auth: Authenticator, by: int) -> Authenticator:
        value = int.from_bytes(auth.signature, "big") * by % modulus
        return replace(auth, signature=value.to_bytes(len(auth.signature), "big"))

    return blinded(first, factor), blinded(second, pow(factor, -1, modulus))


class ForgedAuthenticatorAdversary(Adversary):
    """Hands a peer a signed commitment that mismatches the produced log."""

    name = "forged-authenticator"
    description = "give a peer a validly signed commitment the log contradicts"
    modes = ("full", "spot")
    expected_phases = (AuditPhase.AUTHENTICATOR_CHECK,)

    def corrupt(self, ctx: ScenarioContext) -> None:
        sequence = self.pick_committed_sequence(ctx)
        forged = alternate_authenticators(ctx.monitor.log, ctx.keypair,
                                          self.rng, sequence, 1)[0]
        # The peer "received" this with some earlier message; it will hand it
        # to any auditor that collects from it (Section 4.6).
        victim = ctx.monitors[ctx.honest_machines[0]]
        victim.received_authenticators.setdefault(ctx.byzantine, []).append(forged)
        ctx.notes["forged_sequence"] = sequence


class EquivocatingPeer(Adversary):
    """Commits to different histories towards different auditing parties."""

    name = "equivocating-peer"
    description = "send conflicting signed commitments to different auditors"
    modes = ("full", "spot")
    expected_phases = (AuditPhase.AUTHENTICATOR_CHECK,)
    expects_equivocation_proof = True

    #: consecutive sequences the alternate view covers
    FORK_SPAN = 3

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._alternate: List[Authenticator] = []

    def corrupt(self, ctx: ScenarioContext) -> None:
        start = self.pick_committed_sequence(ctx)
        span = min(self.FORK_SPAN, len(ctx.monitor.log) - start + 1)
        self._alternate = alternate_authenticators(
            ctx.monitor.log, ctx.keypair, self.rng, start, span)
        ctx.notes["equivocation_start"] = start

    def extra_auditor_authenticators(self, ctx: ScenarioContext
                                     ) -> List[Authenticator]:
        return list(self._alternate)


class JunkAuthenticators(Adversary):
    """Passes on to the peer's auditors (Section 4.6), and in archive mode
    ships, three of an honest peer's authenticators spoiled: one with a
    signature bit flipped, two blinded into :func:`cancelling_twins`.  None
    verifies, so nobody is detected and nobody is accused."""

    name = "junk-authenticators"
    description = "hand auditors a peer's authenticators with spoiled signatures"
    modes = ALL_MODES
    expects_detection = False
    expected_phases = ()

    def corrupt(self, ctx: ScenarioContext) -> None:
        victim = next(machine for machine in ctx.honest_machines
                      if len(ctx.monitor.authenticators_from(machine)) >= 3)
        first, second, third = self.rng.sample(
            ctx.monitor.authenticators_from(victim), 3)
        ctx.monitor.received_authenticators[victim] += [
            flipped_signature(first, self.rng),
            *cancelling_twins(second, third, ctx.keystore, self.rng)]
        if ctx.ingest is not None:
            ctx.monitor.ship_archive_tail()
            ctx.scheduler.run_until(ctx.scheduler.clock.now
                                    + DRAIN_SETTLE_SECONDS)
        ctx.notes["junk_victim"] = victim
