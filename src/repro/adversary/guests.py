"""Patched guest images for non-game workloads.

The game workload has a whole cheat catalog (:mod:`repro.game.cheats`); the
hosted workloads get their equivalents here: a kv server whose query engine
quietly sweetens results, and a web service whose response cache serves
entries long past their TTL.  The patched image's behaviour — not its label —
is what convicts it: replaying the recorded inputs against the *reference*
image produces different response packets (and, for the web service, upstream
calls the recorded log never made), so the semantic check diverges on the
first dishonest response.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.vm.image import VMImage
from repro.workloads.kvstore import KvServerGuest
from repro.workloads.webservice import WebServiceGuest, WebServiceSettings


class CheatingKvServerGuest(KvServerGuest):
    """A kv server that returns sweetened rows on SELECT."""

    name = "kv-server-sweetened"

    def execute(self, query: Dict[str, Any]) -> Any:
        result = super().execute(query)
        if query.get("op") == "select" and isinstance(result, dict):
            row = result.get("row")
            if row is not None:
                boosted = dict(row) if isinstance(row, dict) else {"value": row}
                boosted["sweetened"] = True
                return {"row": boosted}
        return result


def make_cheating_kvserver_image(name: str = "kv-server-sweetened") -> VMImage:
    """The patched server image a byzantine operator installs."""
    return VMImage(name=name, guest_factory=CheatingKvServerGuest,
                   disk_blocks={0: b"mysql-5.0.51-standin",
                                66: b"patch-module:row-sweetener"})


class CheatingWebServiceGuest(WebServiceGuest):
    """A web service that serves cached responses past their TTL.

    A profitable cheat for the operator: stale hits skip the handler *and*
    the billed upstream call.  The recorded log is internally consistent
    (the cheat honestly logs what it did), but replaying the same requests
    against the reference image makes the honest guest miss where the cheat
    hit — it performs an upstream call the log never recorded and emits a
    fresher response packet, so replay diverges.
    """

    name = "web-service-stale-cache"

    def _cache_fresh(self, entry: List[Any], now: float) -> bool:
        # Anything cached is "fresh enough" — TTL is never enforced.
        return True


def make_cheating_webservice_image(
        settings: Optional[WebServiceSettings] = None,
        name: str = "web-service-stale-cache") -> VMImage:
    """The patched service image a byzantine operator installs (``settings``
    holds nothing: the benchmark's calls pass one)."""
    return VMImage(name=name,
                   guest_factory=CheatingWebServiceGuest,
                   disk_blocks={0: b"nginx-api-standin",
                                66: b"patch-module:ttl-bypass"})
