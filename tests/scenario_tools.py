"""A recorded honest fleet, for tests that tamper with one afterwards, and a
downloaded log as an audit target."""

from __future__ import annotations

from typing import List

from repro.adversary.base import ScenarioContext
from repro.adversary.catalog import make_adversary
from repro.adversary.matrix import CellSpec, ScenarioMatrix
from repro.log.segments import LogSegment


def record_scenario(workload: str = "kv", fleet_size: int = 2, seed: int = 7
                    ) -> ScenarioContext:
    """Record one honest fleet, as a matrix cell records it, and return its
    context."""
    matrix = ScenarioMatrix()
    spec = CellSpec("honest", workload, "full", fleet_size, seed)
    ctx, run = matrix._build(spec, make_adversary("honest", seed), None)
    run()
    return ctx


class DownloadedLog:
    """A whole log an auditor already holds, as an audit target
    (``Auditor.audit(DownloadedLog(segment))``): one chunk, replayed from the
    reference image.  It serves no snapshot, so it has no chunk boundary."""

    audit_chunks = 1
    snapshots = ()

    def __init__(self, segment: LogSegment) -> None:
        self.identity = segment.machine
        self.segment = segment

    def segment_records(self) -> List[LogSegment]:
        return [self.segment] if self.segment.entries else []

    def read_segments(self, records) -> LogSegment:
        return self.segment

    def replay_start(self):
        return None, 0
