"""Web-service workload, upstream-call nondeterminism, and the webload audit.

Covers the three layers the webservice tentpole added:

* the guest itself — routing, the TTL response cache (hits skip handler and
  upstream work), eviction, state round-trips;
* the upstream-call nondeterminism channel — recorded on the live path,
  re-served by replay, and checked for timing / question / count mismatches;
* the end-to-end differential — the honest open-loop run passes the
  streaming audit under accountability on and off with identical responses,
  while the stale-cache cheat image is convicted with evidence an
  independent third party can verify.
"""

import json

import pytest

from repro.adversary.guests import (CheatingWebServiceGuest,
                                    make_cheating_webservice_image)
from repro.avmm.replayer import _ReplayClockSource, _UpstreamItem
from repro.crypto import hashing
from repro.errors import VMError
from repro.vm.execution import ExecutionTimestamp
from repro.experiments.webload import LoadModel, run_webload
from repro.vm.events import KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.machine import (FixedNondeterminismSource,
                              LiveNondeterminismSource, UpstreamResponse,
                              VirtualMachine)
from repro.workloads.webservice import (SimulatedUpstreamBackend,
                                        WebClientGuest, WebServiceGuest,
                                        WebServiceSettings,
                                        make_webclient_image,
                                        make_webservice_image)


def boot(image, upstream_responses=None, clock_values=None):
    vm = VirtualMachine(image, nondet_source=FixedNondeterminismSource(
        values=clock_values, default=(clock_values or [1.0])[-1],
        upstream_responses=upstream_responses))
    vm.start()
    return vm


def request(vm, request_id, method, path, source="web-client"):
    payload = json.dumps({"id": request_id, "method": method,
                          "path": path}).encode()
    outputs = vm.deliver_event(PacketDelivery(source=source, payload=payload,
                                              message_id=f"m-{request_id}"))
    packets = [o for o in outputs if hasattr(o, "payload")]
    return json.loads(packets[0].payload.decode())


class TestWebServiceGuest:
    def test_routes_and_statuses(self):
        vm = boot(make_webservice_image(), upstream_responses=[
            UpstreamResponse(body=b"catalog-1"),
            UpstreamResponse(body=b"pay-ok"),
        ])
        item = request(vm, "r1", "GET", "/api/item/42")
        assert (item["status"], item["cache"]) == (200, "miss")
        assert json.loads(item["body"])["item"] == "42"
        order = request(vm, "r2", "POST", "/api/order")
        assert (order["status"], order["cache"]) == (201, "bypass")
        health = request(vm, "r3", "GET", "/api/health")
        assert (health["status"], health["cache"]) == (200, "bypass")
        missing = request(vm, "r4", "GET", "/nope")
        assert missing["status"] == 404

    def test_cache_hit_skips_handler_and_upstream(self):
        # One scripted upstream response: the second request must not ask
        # for another, and must cost fewer cycles than the miss did.
        vm = boot(make_webservice_image(),
                  upstream_responses=[UpstreamResponse(body=b"catalog-7")])
        miss = request(vm, "r1", "GET", "/api/item/7")
        before = vm.execution_timestamp.instruction_count
        hit = request(vm, "r2", "GET", "/api/item/7")
        hit_cost = vm.execution_timestamp.instruction_count - before
        assert (miss["cache"], hit["cache"]) == ("miss", "hit")
        assert miss["body"] == hit["body"]
        assert vm.guest.cache_hits == 1
        # FixedNondeterminismSource would have served an empty body had the
        # guest asked upstream again.
        assert json.loads(hit["body"])["catalog"] == "catalog-7"
        assert hit_cost < vm.guest.settings.handler_cycles

    def test_expired_entry_misses_again(self):
        settings = WebServiceSettings(cache_ttl=0.5)
        vm = boot(make_webservice_image(settings),
                  upstream_responses=[UpstreamResponse(body=b"v1"),
                                      UpstreamResponse(body=b"v2")],
                  clock_values=[1.0, 9.0])
        first = request(vm, "r1", "GET", "/api/item/1")
        second = request(vm, "r2", "GET", "/api/item/1")
        assert second["cache"] == "miss"
        assert first["body"] != second["body"]

    def test_cheating_guest_serves_stale(self):
        settings = WebServiceSettings(cache_ttl=0.5)
        vm = boot(make_cheating_webservice_image(settings),
                  upstream_responses=[UpstreamResponse(body=b"v1")],
                  clock_values=[1.0, 9.0])
        first = request(vm, "r1", "GET", "/api/item/1")
        stale = request(vm, "r2", "GET", "/api/item/1")  # honest would miss
        assert isinstance(vm.guest, CheatingWebServiceGuest)
        assert stale["cache"] == "hit"
        assert stale["body"] == first["body"]

    def test_eviction_keeps_capacity(self):
        settings = WebServiceSettings(cache_capacity=3)
        vm = boot(make_webservice_image(settings), upstream_responses=[
            UpstreamResponse(body=f"v{i}".encode()) for i in range(5)])
        for i in range(5):
            request(vm, f"r{i}", "GET", f"/api/item/{i}")
        assert len(vm.guest.cache) == 3

    def test_purge_tick_drops_expired_entries(self):
        settings = WebServiceSettings(cache_ttl=0.5)
        vm = boot(make_webservice_image(settings),
                  upstream_responses=[UpstreamResponse(body=b"v1")],
                  clock_values=[1.0, 9.0])
        request(vm, "r1", "GET", "/api/item/1")
        assert len(vm.guest.cache) == 1
        vm.deliver_event(TimerInterrupt(tick_number=1))
        assert len(vm.guest.cache) == 0

    def test_state_roundtrip(self):
        vm = boot(make_webservice_image(), upstream_responses=[
            UpstreamResponse(body=b"c"), UpstreamResponse(body=b"p")])
        request(vm, "r1", "GET", "/api/item/5")
        request(vm, "r2", "POST", "/api/order")
        state = vm.guest.get_state()
        other = WebServiceGuest()
        other.set_state(state)
        assert other.get_state() == state
        assert other.requests == 2 and len(other.orders) == 1

    def test_client_forwards_and_counts(self):
        guest = WebClientGuest("web-server")
        vm = boot(make_webclient_image("web-server"))
        outputs = vm.deliver_event(KeyboardInput(
            command='{"id":"r1","method":"GET","path":"/api/health"}'))
        packets = [o for o in outputs if hasattr(o, "payload")]
        assert packets[0].destination == "web-server"
        vm.deliver_event(PacketDelivery(source="web-server", payload=b"{}",
                                        message_id="m9"))
        assert vm.guest.requests_sent == 1
        assert vm.guest.responses_received == 1
        state = vm.guest.get_state()
        guest.set_state(state)
        assert guest.get_state() == state


class TestUpstreamChannel:
    def test_backend_is_seed_deterministic(self):
        a = SimulatedUpstreamBackend(seed=9)
        b = SimulatedUpstreamBackend(seed=9)
        responses_a = [a("catalog", b"/api/item/1") for _ in range(5)]
        responses_b = [b("catalog", b"/api/item/1") for _ in range(5)]
        assert responses_a == responses_b
        assert len({r.body for r in responses_a}) == 5  # unique tokens

    def test_live_source_requires_backend(self):
        source = LiveNondeterminismSource(lambda: 0.0)
        vm = VirtualMachine(make_webservice_image(), nondet_source=source)
        vm.start()
        with pytest.raises(VMError, match="no upstream backend"):
            request(vm, "r1", "GET", "/api/item/1")

    def test_fixed_source_serves_in_order_then_empty(self):
        source = FixedNondeterminismSource(upstream_responses=[
            UpstreamResponse(body=b"one"), UpstreamResponse(body=b"two")])
        stamp = ExecutionTimestamp(0, 0)
        assert source.upstream_call(stamp, "s", b"q").body == b"one"
        assert source.upstream_call(stamp, "s", b"q").body == b"two"
        assert source.upstream_call(stamp, "s", b"q").body == b""

    def _item(self, **overrides):
        fields = dict(sequence=3, expected_instructions=100,
                      service="catalog",
                      request_hash=hashing.hash_bytes(b"/api/item/1").hex(),
                      body=b"v1", latency_cycles=7)
        fields.update(overrides)
        return _UpstreamItem(**fields)

    def _stamp(self, instructions):
        return ExecutionTimestamp(instructions, 0)

    def test_replay_source_serves_recorded_response(self):
        source = _ReplayClockSource([], [self._item()])
        response = source.upstream_call(self._stamp(100), "catalog",
                                        b"/api/item/1")
        assert response == UpstreamResponse(body=b"v1", latency_cycles=7)
        assert source.divergence is None
        assert source.upstream_remaining == 0

    def test_replay_source_flags_wrong_execution_point(self):
        source = _ReplayClockSource([], [self._item()])
        source.upstream_call(self._stamp(101), "catalog", b"/api/item/1")
        assert "different execution point" in source.divergence.reason

    def test_replay_source_flags_different_question(self):
        source = _ReplayClockSource([], [self._item()])
        source.upstream_call(self._stamp(100), "catalog", b"/api/item/2")
        assert "differs from the recorded" in source.divergence.reason

    def test_replay_source_flags_unlogged_call(self):
        source = _ReplayClockSource([], [])
        response = source.upstream_call(self._stamp(100), "catalog", b"q")
        assert response.body == b""
        assert "not in the log" in source.divergence.reason


class TestWebloadDifferential:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        model = LoadModel(users=60, seed=11, arrival_rate=400.0)
        return run_webload(model,
                           root=str(tmp_path_factory.mktemp("webload")))

    def test_honest_on_off_structurally_identical(self, result):
        assert result.statuses_identical
        bare = result.point("bare-hw")
        avmm = result.point("avmm-rsa768")
        assert bare.responses_received == avmm.responses_received \
            == result.total_requests

    def test_accountability_costs_latency_not_responses(self, result):
        bare = result.point("bare-hw")
        avmm = result.point("avmm-rsa768")
        assert avmm.rtt.p50 > bare.rtt.p50
        for rtt in (bare.rtt, avmm.rtt):
            assert rtt.p50 <= rtt.p95 <= rtt.p99 <= rtt.p999

    def test_honest_run_passes_streaming_audit(self, result):
        assert result.honest_pass
        assert {o.machine for o in result.honest_audits} == \
            {"web-server", "web-client"}
        assert all(o.chunks >= 1 for o in result.honest_audits)

    def test_cheat_detected_with_verified_evidence(self, result):
        assert result.cheat_detected
        server = next(o for o in result.cheat_audits
                      if o.machine == "web-server")
        assert server.verdict == "fail"
        assert server.evidence_verified is True

    def test_zero_false_accusations(self, result):
        assert result.false_accusations == 0
