"""sql-bench-style client workload.

Drives the :class:`~repro.workloads.kvstore.KvServerGuest` through phases of
inserts, selects, updates and deletes, like MySQL's ``sql-bench`` suite.  The
operation sequence is generated from a deterministic counter (no randomness),
so the client guest is replayable like any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict

from repro.vm.events import GuestEvent, PacketDelivery, TimerInterrupt
from repro.vm.guest import GuestProgram, MachineApi
from repro.vm.image import VMImage


@dataclass(frozen=True)
class SqlBenchSettings:
    """Static configuration of the benchmark client (part of the image identity)."""

    server: str
    #: operations issued per timer tick
    operations_per_tick: int = 4
    #: simulated seconds between ticks
    tick_interval: float = 0.25
    #: rows per table before the workload cycles to the next phase
    rows_per_phase: int = 200
    #: bytes of filler payload per inserted/updated row (drives log density:
    #: the streaming-audit bench uses fat rows to grow raw log bytes without
    #: growing entry counts, i.e. without growing recording cost)
    payload_bytes: int = 64


class SqlBenchClientGuest(GuestProgram):
    """Issues a deterministic insert/select/update/delete mix."""

    name = "sql-bench"

    PHASES = ("insert", "select", "update", "delete")

    def __init__(self, settings: SqlBenchSettings) -> None:
        self.settings = settings
        self.sequence = 0
        self.responses = 0
        self.ticks = 0

    # -- guest interface -------------------------------------------------------------

    def on_start(self, api: MachineApi) -> None:
        api.set_timer(self.settings.tick_interval)
        api.consume_cycles(50)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        if isinstance(event, TimerInterrupt):
            self.ticks += 1
            api.consume_cycles(30)
            for _ in range(self.settings.operations_per_tick):
                query = self.next_query()
                api.send_packet(self.settings.server, json.dumps(
                    query, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        elif isinstance(event, PacketDelivery):
            api.consume_cycles(10)
            self.responses += 1

    def get_state(self) -> Dict[str, Any]:
        return {"sequence": self.sequence, "responses": self.responses,
                "ticks": self.ticks}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.sequence = int(state["sequence"])
        self.responses = int(state["responses"])
        self.ticks = int(state["ticks"])

    # -- workload generation ------------------------------------------------------------

    def next_query(self) -> Dict[str, Any]:
        """The next operation in the deterministic benchmark sequence."""
        rows = self.settings.rows_per_phase
        phase = self.PHASES[(self.sequence // rows) % len(self.PHASES)]
        row = self.sequence % rows
        table = f"t{(self.sequence // (rows * len(self.PHASES))) % 4}"
        query: Dict[str, Any] = {
            "request_id": self.sequence,
            "op": phase,
            "table": table,
            "key": f"row{row:06d}",
        }
        if phase in ("insert", "update"):
            query["value"] = {"seq": self.sequence,
                              "payload": "x" * self.settings.payload_bytes}
        self.sequence += 1
        return query


def make_sqlbench_image(settings: SqlBenchSettings,
                        name: str = "sql-bench-official") -> VMImage:
    """Image containing the benchmark client."""
    return VMImage(name=name, guest_factory=partial(SqlBenchClientGuest, settings),
                   disk_blocks={0: b"sql-bench-standin"})
