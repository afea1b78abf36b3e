"""A recorded honest fleet, for tests that tamper with one afterwards."""

from __future__ import annotations

from repro.adversary.base import ScenarioContext
from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix


def record_scenario(workload: str = "kv", fleet_size: int = 2, seed: int = 7,
                    duration: float = 4.0, snapshot_interval: float = 1.0
                    ) -> ScenarioContext:
    """Record one honest fleet and return its context."""
    matrix = ScenarioMatrix(duration=duration,
                            snapshot_interval=snapshot_interval)
    spec = CellSpec("honest", workload, "full", fleet_size, seed)
    ctx, run = matrix._build(spec, make_adversary("honest", seed), None)
    run()
    return ctx
