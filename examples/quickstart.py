"""Quickstart: make a piece of software accountable and audit it.

This walks through the basic two-party scenario of the paper (Figure 1):
Alice relies on software running on Bob's machine.  Bob runs the software
inside an accountable virtual machine; Alice later downloads the log, checks
it against the authenticators she collected, and replays it against her own
reference image.  We then show what happens when Bob tampers with his log.

Run with:  python examples/quickstart.py
"""

from repro.audit import Auditor
from repro.audit.verdict import Verdict
from repro.avmm import AccountableVMM, AvmmConfig, Configuration
from repro.crypto.keys import build_trust
from repro.network import SimulatedNetwork
from repro.sim import Scheduler
from repro.vm.events import PacketDelivery
from repro.workloads.echo import make_echo_image


def main() -> None:
    # --- 1. Infrastructure: simulated time, a network, certified key pairs.
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    ca, keypairs, keystore = build_trust(["alice", "bob"], scheme="rsa768")

    # --- 2. The software S both parties agreed on (here: a tiny echo service).
    reference_image = make_echo_image()

    # --- 3. Bob runs S inside an AVM; Alice runs her own machine too so her
    #        outgoing requests are signed and acknowledged.
    config = AvmmConfig.for_configuration(Configuration.AVMM_RSA768,
                                          snapshot_interval=None)
    bob = AccountableVMM("bob", reference_image, config, scheduler, network,
                         keypair=keypairs["bob"], keystore=keystore)
    alice = AccountableVMM("alice", make_echo_image(), config, scheduler, network,
                           keypair=keypairs["alice"], keystore=keystore)
    bob.start()
    alice.start()

    # --- 4. Alice's machine talks to Bob's machine for a while.
    for i in range(5):
        alice.deliver_event(PacketDelivery(source="bob", payload=f"request {i}".encode(),
                                           message_id=f"req-{i}"))
    scheduler.run_until(2.0)
    print(f"Bob's machine: {len(bob.log)} tamper-evident log entries, "
          f"{bob.stats.messages_sent} messages sent, "
          f"{bob.stats.signatures_generated} signatures generated")

    # --- 5. Alice audits Bob: verify the log against the authenticators she
    #        collected, run the syntactic check, then deterministic replay.
    auditor = Auditor("alice", keystore, reference_image)
    auditor.collect_from_peer(alice, "bob")
    result = auditor.audit(bob)
    print(f"audit of bob: {result.verdict.value} "
          f"({result.authenticators_checked} authenticators checked, "
          f"{result.replay_report.events_injected} events replayed)")
    assert result.verdict is Verdict.PASS

    # --- 6. Bob tampers with his log after the fact...
    victim = bob.log.entries_of_type(bob.log.entries[0].entry_type)[0]
    bob.log.tamper_replace_entry(victim.sequence,
                                 {**victim.content, "forged": True},
                                 recompute_chain=True)

    # --- 7. ...and the next audit produces evidence any third party can check.
    result = auditor.audit(bob)
    print(f"audit after tampering: {result.verdict.value} ({result.phase.value})")
    assert result.verdict is Verdict.FAIL
    confirmed = result.evidence.verify(keystore, reference_image)
    print(f"third party confirms the fault from the evidence alone: {confirmed}")


if __name__ == "__main__":
    main()
