"""Figure 5 — ping round-trip times under the five configurations.

The paper measures the RTT of 100 ICMP echo requests between machines on the
same gigabit switch: ~0.19 ms on bare hardware, ~0.53 ms with the VMM,
~0.62 ms with recording, >2 ms with the logging daemon and ~5 ms with 768-bit
RSA signatures (four signatures per exchange in the paper: ping, pong and
both acknowledgments; three here — the pong carries the ping's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.avmm.config import AvmmConfig, Configuration
from repro.avmm.monitor import AccountableVMM
from repro.experiments.harness import build_trust, format_table
from repro.metrics.latency import LatencyRecorder, RttSummary, summarize_rtts
from repro.network.simnet import SimulatedNetwork
from repro.sim.scheduler import Scheduler
from repro.workloads.echo import make_echo_image, make_ping_sender_image


@dataclass
class LatencyResult:
    """RTT summary per configuration."""

    pings_per_configuration: int
    summaries: Dict[Configuration, RttSummary]

    def median_ms(self, configuration: Configuration) -> float:
        return self.summaries[configuration].median * 1000.0


def run_latency(pings: int = 100, ping_interval: float = 0.1,
                configurations: List[Configuration] = None) -> LatencyResult:
    """Measure echo RTTs under every configuration."""
    configurations = configurations or list(Configuration)
    summaries: Dict[Configuration, RttSummary] = {}
    for configuration in configurations:
        summaries[configuration] = _measure_configuration(configuration, pings,
                                                          ping_interval)
    return LatencyResult(pings_per_configuration=pings, summaries=summaries)


def _measure_configuration(configuration: Configuration, pings: int,
                           ping_interval: float) -> RttSummary:
    scheduler = Scheduler()
    network = SimulatedNetwork(scheduler)
    config = AvmmConfig.for_configuration(configuration, snapshot_interval=None)
    ca, keypairs, keystore = build_trust(["pinger", "echo"],
                                         scheme=config.signature_scheme)

    echo_monitor = AccountableVMM("echo", make_echo_image(), config, scheduler,
                                  network, keypair=keypairs["echo"], keystore=keystore)
    pinger_monitor = AccountableVMM("pinger", make_ping_sender_image("echo"), config,
                                    scheduler, network, keypair=keypairs["pinger"],
                                    keystore=keystore)
    echo_monitor.start()
    pinger_monitor.start()

    recorder = LatencyRecorder()
    # The reply is the echoed payload delivered back to the pinger; watch the
    # network's delivery log for it.
    outstanding: Dict[bytes, str] = {}

    def send_ping(index: int) -> None:
        request_id = f"ping-{index}"
        payload = f"icmp-echo-request:{index + 1}".encode("utf-8")
        outstanding[payload] = request_id
        recorder.note_sent(request_id, scheduler.clock.now)
        pinger_monitor.inject_local_input(f"ping {index}")

    for index in range(pings):
        scheduler.schedule_at(0.05 + index * ping_interval,
                              lambda i=index: send_ping(i), label=f"ping-{index}")
    scheduler.run_until(0.05 + pings * ping_interval + 2.0)

    for time, message in network.deliveries:
        if message.destination == "pinger" and message.source == "echo":
            request_id = outstanding.get(message.payload)
            if request_id is not None:
                recorder.note_received(request_id, time)
    return summarize_rtts(recorder.rtts())


def main(pings: int = 100) -> LatencyResult:
    """Print the Figure 5 medians and percentiles."""
    result = run_latency(pings=pings)
    rows = []
    for configuration, summary in result.summaries.items():
        rows.append((configuration.label, f"{summary.median * 1000:.3f}",
                     f"{summary.p05 * 1000:.3f}", f"{summary.p95 * 1000:.3f}"))
    print(f"Figure 5: ping round-trip times ({result.pings_per_configuration} echoes)")
    print(format_table(["configuration", "median (ms)", "5th pct (ms)", "95th pct (ms)"],
                       rows))
    return result


if __name__ == "__main__":
    main()
