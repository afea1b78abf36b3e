"""Web-service workload, upstream-call nondeterminism, and the webload audit.

Covers the three layers the webservice tentpole added:

* the guest itself — routing, the TTL response cache (hits skip handler and
  upstream work), eviction, state round-trips;
* the upstream-call nondeterminism channel — recorded on the live path,
  re-served by replay, and checked for timing / question / count mismatches;
* the end-to-end differential — the benchmark of record's ``web_honest``
  plan gets identical responses with accountability on and off and its
  archive passes the audit, while ``web_cheat``'s stale-cache image is
  convicted with evidence an independent third party can verify.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.adversary.guests import (CheatingWebServiceGuest,
                                    make_cheating_webservice_image)
from repro.avmm.replayer import _ReplayClockSource, _UpstreamItem
from repro.crypto import hashing
from repro.errors import VMError
from repro.vm.execution import ExecutionTimestamp
from repro.vm.events import KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.machine import (LiveNondeterminismSource, UpstreamResponse,
                              VirtualMachine)
from vm_tools import FixedNondeterminismSource
from repro.workloads.webservice import (CACHE_CAPACITY, HANDLER_CYCLES,
                                        SimulatedUpstreamBackend,
                                        WebClientGuest, WebServiceGuest,
                                        make_webclient_image,
                                        make_webservice_image)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # bench/ is a package beside tests/, not under src/
    sys.path.insert(0, str(ROOT))

from bench.harness import record  # noqa: E402
from bench.workloads import CLIENT, SERVER, WORKLOADS, web_responses  # noqa: E402


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
        assert hit_cost < HANDLER_CYCLES

    def test_expired_entry_misses_again(self):
        vm = boot(make_webservice_image(),
                  upstream_responses=[UpstreamResponse(body=b"v1"),
                                      UpstreamResponse(body=b"v2")],
                  clock_values=[1.0, 9.0])
        first = request(vm, "r1", "GET", "/api/item/1")
        second = request(vm, "r2", "GET", "/api/item/1")
        assert second["cache"] == "miss"
        assert first["body"] != second["body"]

    def test_cheating_guest_serves_stale(self):
        vm = boot(make_cheating_webservice_image(),
                  upstream_responses=[UpstreamResponse(body=b"v1")],
                  clock_values=[1.0, 9.0])
        first = request(vm, "r1", "GET", "/api/item/1")
        stale = request(vm, "r2", "GET", "/api/item/1")  # honest would miss
        assert isinstance(vm.guest, CheatingWebServiceGuest)
        assert stale["cache"] == "hit"
        assert stale["body"] == first["body"]

    def test_eviction_keeps_capacity(self):
        count = CACHE_CAPACITY + 2
        vm = boot(make_webservice_image(), upstream_responses=[
            UpstreamResponse(body=f"v{i}".encode()) for i in range(count)])
        for i in range(count):
            request(vm, f"r{i}", "GET", f"/api/item/{i}")
        assert len(vm.guest.cache) == CACHE_CAPACITY

    def test_purge_tick_drops_expired_entries(self):
        vm = boot(make_webservice_image(),
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
    SEED, SCALE = 11, 0.4  # 46 requests

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        runs = {}
        for name in ("web_honest", "web_cheat"):
            workload = WORKLOADS[name](self.SEED, self.SCALE)
            root = tmp_path_factory.mktemp(name) / "archive"
            accountable = workload.build(True, root)
            assert record(accountable)
            bare = workload.build(False, None, trust=accountable.trust)
            record(bare)
            audits, healthy = workload.audit(accountable, root, False)
            runs[name] = (accountable, bare,
                          {audit.machine: audit for audit in audits}, healthy)
        return runs

    def test_honest_on_off_structurally_identical(self, result):
        accountable, bare, _, _ = result["web_honest"]
        statuses, _ = web_responses(accountable)
        bare_statuses, _ = web_responses(bare)
        assert statuses == bare_statuses
        assert set(statuses) == set(accountable.sent_at) == set(bare.sent_at)

    def test_accountability_costs_latency_not_responses(self, result):
        accountable, bare, _, _ = result["web_honest"]
        _, p99 = web_responses(accountable)
        _, bare_p99 = web_responses(bare)
        assert p99 > bare_p99 > 0

    def test_honest_run_passes_streaming_audit(self, result):
        _, _, audits, healthy = result["web_honest"]
        assert healthy
        assert set(audits) == {SERVER, CLIENT}
        for audit in audits.values():
            assert audit.result.verdict.value == "pass", audit.result.reason
            assert audit.result.replay_report.entries_replayed > 0

    def test_cheat_detected_with_verified_evidence(self, result):
        _, _, audits, _ = result["web_cheat"]
        server = audits[SERVER]
        assert server.result.verdict.value == "fail"
        assert server.evidence_verified is True

    def test_zero_false_accusations(self, result):
        assert result["web_cheat"][2][CLIENT].result.verdict.value == "pass"
        assert all(audit.result.verdict.value == "pass"
                   for audit in result["web_honest"][2].values())
