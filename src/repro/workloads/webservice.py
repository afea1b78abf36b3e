"""An accountable HTTP-style web-service guest and its open-loop client.

The ROADMAP's "heavy traffic from millions of users" story needs a modern
service workload next to the game and database guests: a request-routed API
server with an internal service layer, a TTL response cache whose hits skip
handler work, and calls to *external* backends (catalog, profile, payment)
whose latency and response bodies are nondeterministic.  Those upstream
responses flow through :meth:`~repro.vm.guest.MachineApi.upstream_call`, so
the AVMM records each one with its execution timestamp and an auditor can
replay the service bit-for-bit without the backends being present.

Determinism contract: the guests below never touch wall clocks or ``random``;
every nondeterministic value they observe (clock reads, upstream responses,
request arrivals) enters through the machine API and is recorded.  The
*backend model* (:class:`SimulatedUpstreamBackend`) lives host-side — it may
use seeded randomness freely because its outputs are recorded inputs, exactly
like the host clock.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import GuestError
from repro.vm.events import GuestEvent, KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.guest import GuestProgram, MachineApi
from repro.vm.image import VMImage
from repro.vm.machine import UpstreamResponse


#: guest-visible seconds a cached response stays fresh
CACHE_TTL = 0.5
#: maximum cached responses before the earliest-expiring one is evicted
CACHE_CAPACITY = 512
#: cycles a handler charges on a cache miss (excludes upstream latency)
HANDLER_CYCLES = 400
#: cycles charged when a cache hit skips the handler entirely
CACHE_HIT_CYCLES = 40
#: simulated seconds between maintenance ticks (expired-entry purge)
TICK_INTERVAL = 0.5


@dataclass(frozen=True)
class WebServiceSettings:
    """The service's settings: none that a run varies (the constants above
    are part of the image identity).  The benchmark still builds one and
    hands it to :func:`make_webservice_image`."""


class WebServiceGuest(GuestProgram):
    """Routed HTTP-style API server with a TTL response cache.

    Requests arrive as JSON packets (``{"id", "method", "path"}``); the
    router dispatches to the service layer, which may consult an upstream
    backend through the machine API.  Cacheable responses are stored in a
    dict keyed by ``"METHOD path"``.
    """

    name = "web-service"

    def __init__(self) -> None:
        self.cache: Dict[str, List[Any]] = {}
        self.orders: Dict[str, Dict[str, str]] = {}
        self.requests = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.ticks = 0
        #: (method, path prefix, handler, cacheable) — first match wins
        self._routes: List[Tuple[str, str, Any, bool]] = [
            ("GET", "/api/item/", self._handle_item, True),
            ("GET", "/api/user/", self._handle_user, True),
            ("POST", "/api/order", self._handle_order, False),
            ("GET", "/api/health", self._handle_health, False),
        ]

    # -- guest interface -----------------------------------------------------

    def on_start(self, api: MachineApi) -> None:
        api.set_timer(TICK_INTERVAL)
        api.consume_cycles(100)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        if isinstance(event, TimerInterrupt):
            self._on_tick(api)
        elif isinstance(event, PacketDelivery):
            self._on_request(api, event)

    def get_state(self) -> Dict[str, Any]:
        return {"cache": self.cache, "orders": self.orders,
                "requests": self.requests, "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses, "ticks": self.ticks}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.cache = dict(state["cache"])
        self.orders = dict(state["orders"])
        self.requests = int(state["requests"])
        self.cache_hits = int(state["cache_hits"])
        self.cache_misses = int(state["cache_misses"])
        self.ticks = int(state["ticks"])

    def config_fingerprint(self) -> Dict[str, Any]:
        return {"cache_ttl": CACHE_TTL,
                "cache_capacity": CACHE_CAPACITY,
                "handler_cycles": HANDLER_CYCLES,
                "cache_hit_cycles": CACHE_HIT_CYCLES}

    # -- request path --------------------------------------------------------

    def _on_request(self, api: MachineApi, event: PacketDelivery) -> None:
        api.consume_cycles(60)  # framing + parse
        try:
            request = json.loads(event.payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GuestError(f"malformed request: {exc}") from exc
        method = str(request.get("method", "GET"))
        path = str(request.get("path", "/"))
        self.requests += 1

        handler, cacheable = self._route(method, path)
        cache_key = f"{method} {path}"
        now = api.read_clock()
        if cacheable:
            entry = self.cache.get(cache_key)
            if entry is not None and self._cache_fresh(entry, now):
                # Cache hit: the handler (and its upstream call) is skipped.
                self.cache_hits += 1
                api.consume_cycles(CACHE_HIT_CYCLES)
                self._respond(api, event, request, int(entry[1]),
                              str(entry[2]), "hit")
                return
            self.cache_misses += 1

        status, body = handler(api, request, path)
        if cacheable:
            self.cache[cache_key] = [now + CACHE_TTL,
                                     status, body]
            self._evict_if_needed()
        self._respond(api, event, request, status, body,
                      "miss" if cacheable else "bypass")

    def _cache_fresh(self, entry: List[Any], now: float) -> bool:
        """Whether a cached entry may still be served (the honest TTL rule)."""
        return now <= float(entry[0])

    def _evict_if_needed(self) -> None:
        while len(self.cache) > CACHE_CAPACITY:
            victim = min(self.cache.items(),
                         key=lambda item: (float(item[1][0]), item[0]))[0]
            self.cache.pop(victim)

    def _route(self, method: str, path: str) -> Tuple[Any, bool]:
        for route_method, prefix, handler, cacheable in self._routes:
            if method == route_method and path.startswith(prefix):
                return handler, cacheable
        return self._handle_not_found, False

    def _respond(self, api: MachineApi, event: PacketDelivery,
                 request: Dict[str, Any], status: int, body: str,
                 cache: str) -> None:
        api.send_packet(event.source, json.dumps(
            {"id": request.get("id"), "status": status, "body": body,
             "cache": cache},
            sort_keys=True, separators=(",", ":")).encode("utf-8"))

    # -- service layer -------------------------------------------------------
    #
    # Handlers return (status, body).  The body is a string so cached and
    # fresh responses are byte-comparable; upstream responses are embedded
    # verbatim — they are recorded nondeterministic inputs, so replay feeds
    # the reference guest the same bytes.

    def _handle_item(self, api: MachineApi, request: Dict[str, Any],
                     path: str) -> Tuple[int, str]:
        api.consume_cycles(HANDLER_CYCLES)
        catalog = api.upstream_call("catalog", path.encode("utf-8"))
        item_id = path.rsplit("/", 1)[-1]
        return 200, json.dumps({"item": item_id,
                                "catalog": catalog.decode("utf-8")},
                               sort_keys=True, separators=(",", ":"))

    def _handle_user(self, api: MachineApi, request: Dict[str, Any],
                     path: str) -> Tuple[int, str]:
        api.consume_cycles(HANDLER_CYCLES)
        profile = api.upstream_call("profile", path.encode("utf-8"))
        user_id = path.rsplit("/", 1)[-1]
        return 200, json.dumps({"user": user_id,
                                "profile": profile.decode("utf-8")},
                               sort_keys=True, separators=(",", ":"))

    def _handle_order(self, api: MachineApi, request: Dict[str, Any],
                      path: str) -> Tuple[int, str]:
        api.consume_cycles(HANDLER_CYCLES * 2)
        payment = api.upstream_call(
            "payment", json.dumps(request.get("body", {}), sort_keys=True,
                                  separators=(",", ":")).encode("utf-8"))
        order_id = f"o{len(self.orders):08d}"
        self.orders[order_id] = {"path": path,
                                 "payment": payment.decode("utf-8")}
        return 201, json.dumps({"order": order_id}, sort_keys=True,
                               separators=(",", ":"))

    def _handle_health(self, api: MachineApi, request: Dict[str, Any],
                       path: str) -> Tuple[int, str]:
        api.consume_cycles(20)
        return 200, json.dumps({"ok": True, "requests": self.requests},
                               sort_keys=True, separators=(",", ":"))

    def _handle_not_found(self, api: MachineApi, request: Dict[str, Any],
                          path: str) -> Tuple[int, str]:
        api.consume_cycles(20)
        return 404, json.dumps({"error": "no route"}, sort_keys=True,
                               separators=(",", ":"))

    # -- maintenance ---------------------------------------------------------

    def _on_tick(self, api: MachineApi) -> None:
        self.ticks += 1
        api.consume_cycles(30)
        now = api.read_clock()
        expired = [key for key, entry in self.cache.items()
                   if not self._cache_fresh(entry, now)]
        for key in expired:
            self.cache.pop(key)


class WebClientGuest(GuestProgram):
    """Forwards injected user requests to the service and counts replies.

    The open-loop harness injects one local input per simulated user request
    (the recorded, unauthenticated nondeterministic surface of Section 4.8);
    the guest relays it to the server so the round trip crosses both
    machines' accountability machinery.
    """

    name = "web-client"

    def __init__(self, server: str) -> None:
        self.server = server
        self.requests_sent = 0
        self.responses_received = 0

    def on_start(self, api: MachineApi) -> None:
        api.consume_cycles(10)

    def on_event(self, api: MachineApi, event: GuestEvent) -> None:
        if isinstance(event, KeyboardInput):
            api.consume_cycles(15)
            api.send_packet(self.server, event.command.encode("utf-8"))
            self.requests_sent += 1
        elif isinstance(event, PacketDelivery):
            api.consume_cycles(10)
            self.responses_received += 1

    def get_state(self) -> Dict[str, Any]:
        return {"requests_sent": self.requests_sent,
                "responses_received": self.responses_received}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.requests_sent = int(state["requests_sent"])
        self.responses_received = int(state["responses_received"])


class SimulatedUpstreamBackend:
    """Host-side model of the service's external dependencies.

    Produces per-call response bodies (unique call number + token) and a
    heavy-tailed (Pareto) service latency in guest cycles, from a seeded
    RNG.  Lives outside the deterministic envelope: its outputs reach the
    guest only through ``upstream_call`` and are therefore recorded, so two
    runs with the same seed *and the same call order* are identical, and
    replay never consults it at all.
    """

    #: cycles every call takes at least
    BASE_LATENCY_CYCLES = 240
    #: scale of the Pareto-distributed extra latency
    JITTER_CYCLES = 600
    #: the Pareto tail's shape
    TAIL_ALPHA = 1.6
    #: no call takes longer than this
    MAX_LATENCY_CYCLES = 50_000

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.calls = 0

    def __call__(self, service: str, request: bytes) -> UpstreamResponse:
        self.calls += 1
        # Pareto-style jitter via inverse CDF; clamped so a single unlucky
        # draw cannot stall the simulated service forever.
        draw = self._rng.random()
        pareto = (1.0 - draw) ** (-1.0 / self.TAIL_ALPHA) - 1.0
        latency = self.BASE_LATENCY_CYCLES + int(self.JITTER_CYCLES * pareto)
        latency = min(latency, self.MAX_LATENCY_CYCLES)
        body = json.dumps({"service": service, "call": self.calls,
                           "token": f"{self._rng.getrandbits(48):012x}"},
                          sort_keys=True, separators=(",", ":"))
        return UpstreamResponse(body=body.encode("utf-8"),
                                latency_cycles=latency)


def make_webservice_image(settings: Optional[WebServiceSettings] = None,
                          name: str = "web-service-official") -> VMImage:
    """Image containing the API server (``settings`` holds nothing: the
    benchmark's calls pass one)."""
    return VMImage(name=name, guest_factory=WebServiceGuest,
                   disk_blocks={0: b"nginx-api-standin"})


def make_webclient_image(server: str,
                         name: str = "web-client-official") -> VMImage:
    """Image containing the request-forwarding client."""
    return VMImage(name=name, guest_factory=partial(WebClientGuest, server),
                   disk_blocks={0: b"web-client-standin"})
