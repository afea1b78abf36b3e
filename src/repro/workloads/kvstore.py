"""A key-value / SQL-ish server guest.

Stands in for the MySQL 5.0.51 server of the spot-checking experiment
(Section 6.12): it keeps growing in-memory state (so snapshots have realistic
incremental sizes), persists some of it to the virtual disk, and answers the
``sql-bench``-style client's queries deterministically.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import GuestError
from repro.vm.events import GuestEvent, PacketDelivery, TimerInterrupt
from repro.vm.guest import GuestProgram, MachineApi
from repro.vm.image import VMImage


class KvServerGuest(GuestProgram):
    """In-memory table store with simple INSERT/SELECT/UPDATE/DELETE commands.

    The tables are a plain dict of dicts: this guest is the "large, mostly
    idle state" of the Section 6.12 spot-check workload, whose snapshots
    record only the pages an operation changed.
    """

    name = "kv-server"

    TICK_INTERVAL = 0.5
    CHECKPOINT_EVERY_TICKS = 20

    def __init__(self) -> None:
        self.tables: Dict[str, Dict[str, Any]] = {}
        self.operations = 0
        self.ticks = 0

    # -- guest interface ------------------------------------------------------------

    def on_start(self, api: MachineApi) -> None:
        api.set_timer(self.TICK_INTERVAL)
        api.consume_cycles(100)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        if isinstance(event, TimerInterrupt):
            self._on_tick(api)
        elif isinstance(event, PacketDelivery):
            self._on_query(api, event)

    def get_state(self) -> Dict[str, Any]:
        return {"tables": self.tables, "operations": self.operations,
                "ticks": self.ticks}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.tables = dict(state["tables"])
        self.operations = int(state["operations"])
        self.ticks = int(state["ticks"])

    # -- internals ---------------------------------------------------------------------

    def _on_tick(self, api: MachineApi) -> None:
        self.ticks += 1
        api.consume_cycles(50)
        if self.ticks % self.CHECKPOINT_EVERY_TICKS == 0:
            # Checkpoint the row counts to the virtual disk, like a database
            # flushing its buffer pool.
            summary = {table: len(rows) for table, rows in sorted(self.tables.items())}
            api.write_disk(10 + (self.ticks // self.CHECKPOINT_EVERY_TICKS) % 100,
                           json.dumps(summary, sort_keys=True).encode("utf-8"))

    def _on_query(self, api: MachineApi, event: PacketDelivery) -> None:
        api.consume_cycles(80)
        try:
            query = json.loads(event.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GuestError(f"malformed query: {exc}") from exc
        result = self.execute(query)
        self.operations += 1
        api.send_packet(event.source, json.dumps(
            {"request_id": query.get("request_id"), "result": result},
            sort_keys=True, separators=(",", ":")).encode("utf-8"))

    # -- query engine ---------------------------------------------------------------------

    def execute(self, query: Dict[str, Any]) -> Any:
        """Execute one query dictionary and return its result."""
        op = query.get("op")
        table_name = str(query.get("table", "t0"))
        table = self.tables.setdefault(table_name, {})
        key = str(query.get("key", ""))
        if op == "insert":
            table[key] = query.get("value")
            return {"inserted": 1}
        if op == "select":
            return {"row": table.get(key)}
        if op == "update":
            if key in table:
                table[key] = query.get("value")
                return {"updated": 1}
            return {"updated": 0}
        if op == "delete":
            if table.pop(key, None) is not None:
                return {"deleted": 1}
            return {"deleted": 0}
        if op == "count":
            return {"count": len(table)}
        return {"error": f"unknown op {op!r}"}


def make_kvserver_image(name: str = "kv-server-official") -> VMImage:
    """Image containing the database server."""
    return VMImage(name=name, guest_factory=KvServerGuest,
                   disk_blocks={0: b"mysql-5.0.51-standin"})
