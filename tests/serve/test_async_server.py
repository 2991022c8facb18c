"""The async sharded front end: round trips, admission control, shard
failover, cache affinity, and malformed-HTTP handling."""

from __future__ import annotations

import json
import socket

import pytest

from tests.conftest import build_net
from repro.client import MerlinClient, RetryPolicy
from repro.core.config import MerlinConfig
from repro.net import net_to_dict
from repro.resilience.errors import MerlinInputError
from repro.resilience.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.routing.export import tree_from_dict, tree_signature
from repro.routing.validate import validate_tree
from repro.serve import AsyncShardedServer, build_shard_services
from repro.serve.embedded import EmbeddedAsyncServer
from repro.service import OptimizationService, ResultCache
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()

SERVICE_KWARGS = dict(tech=TECH, config=CONFIG, workers=1)


@pytest.fixture()
def server():
    with EmbeddedAsyncServer(shards=2, **SERVICE_KWARGS) as embedded:
        client = MerlinClient(embedded.base_url,
                              retry=RetryPolicy(max_attempts=1))
        assert client.wait_healthy(timeout_s=10)
        yield embedded


def _no_retry_client(server):
    return MerlinClient(server.base_url,
                        retry=RetryPolicy(max_attempts=1))


def test_v1_optimize_round_trip_and_envelope(server):
    client = _no_retry_client(server)
    net = build_net(3, seed=31)
    response = client.request("POST", "/v1/optimize",
                              {"net": net_to_dict(net)})
    assert response.status == 200 and response.ok
    body = response.body
    assert set(body) == {"api_version", "request_id", "result", "error",
                         "degraded", "timing_ms"}
    assert body["api_version"] == "v1" and body["error"] is None
    tree = tree_from_dict(body["result"]["tree"], net, TECH.buffers)
    validate_tree(tree)
    assert tree_signature(tree) == body["result"]["tree_signature"]


def test_equivalent_requests_share_one_shard_cache(server):
    client = _no_retry_client(server)
    net = build_net(4, seed=32)
    cold = client.optimize(net)
    assert cold["cached"] is False
    # A renamed twin must route to the same shard and hit its LRU.
    twin = net_to_dict(net)
    twin["name"] = "disguised"
    twin["sinks"] = [{**s, "name": f"zz{i}"}
                     for i, s in enumerate(twin["sinks"])]
    warm = client.optimize(twin)
    assert warm["cached"] is True
    assert warm["tree_signature"] == cold["tree_signature"]


def test_probes_bypass_admission_and_stats_reports_the_tier(server):
    client = _no_retry_client(server)
    assert client.healthz() is True
    stats = client.stats()
    assert stats["mode"] == "async-sharded"
    assert stats["shard_count"] == 2
    assert stats["queue_limit"] > 0
    assert len(stats["shards"]) == 2
    assert all("cache" in shard for shard in stats["shards"])


def test_bad_inputs_produce_the_v1_error_envelope(server):
    client = _no_retry_client(server)
    response = client.request("POST", "/v1/optimize",
                              {"net": {"name": "broken"}})
    assert response.status == 400
    assert response.error["code"] == "malformed_net"
    assert response.body["result"] is None
    record = response.error_record()
    assert record is not None and record.category == "input"


def test_unknown_paths_answer_the_envelope_404(server):
    client = _no_retry_client(server)
    response = client.request("GET", "/nowhere")
    assert response.status == 404
    assert response.error["code"] == "unknown_path"
    response = client.request("GET", "/v1/optimize")  # wrong method
    assert response.status == 404


def test_pre_v1_paths_answer_the_unknown_path_404(server):
    client = _no_retry_client(server)
    net = build_net(3, seed=33)
    for method, path, body in (
            ("POST", "/optimize", {"net": net_to_dict(net)}),
            ("POST", "/closure", {"circuit": "b9"}),
            ("GET", "/stats", None),
            ("GET", "/healthz", None)):
        response = client.request(method, path, body)
        assert response.status == 404
        assert response.body["api_version"] == "v1"
        assert response.error["code"] == "unknown_path"
        assert "Deprecation" not in response.headers


# ----------------------------------------------------------------------
# malformed HTTP: every request read gets a status line
# ----------------------------------------------------------------------

def _raw_exchange(server, payload):
    """Send raw bytes, half-close, and read until the server closes."""
    host, port = server.base_url[len("http://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _assert_400_envelope(reply):
    head, _, blob = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
    assert b"Content-Type: application/json" in head
    body = json.loads(blob)
    assert body["api_version"] == "v1" and body["result"] is None
    assert body["error"]["category"] == "input"
    assert body["error"]["detail"]["stage"] == "http"
    return body


def test_short_request_line_is_a_400_not_a_silent_close(server):
    body = _assert_400_envelope(_raw_exchange(server, b"GARBAGE\r\n\r\n"))
    assert "malformed request line" in body["error"]["message"]


def test_header_past_the_line_limit_is_a_400(server):
    huge = b"X-Filler: " + b"a" * (70 * 1024) + b"\r\n"
    reply = _raw_exchange(
        server, b"GET /v1/healthz HTTP/1.1\r\n" + huge + b"\r\n")
    body = _assert_400_envelope(reply)
    assert "too long" in body["error"]["message"]


@pytest.mark.parametrize("value", [b"ten", b"-5", b"1e3"])
def test_non_integer_content_length_is_a_400(server, value):
    reply = _raw_exchange(
        server, b"POST /v1/optimize HTTP/1.1\r\nContent-Length: " + value
        + b"\r\n\r\n{}")
    body = _assert_400_envelope(reply)
    assert "Content-Length" in body["error"]["message"]


def test_oversized_content_length_is_refused_unread(server):
    from repro.service.protocol import MAX_BODY_BYTES

    # The declared body is never sent: the server must answer from the
    # header alone instead of waiting for (or buffering) 8 MiB.
    reply = _raw_exchange(
        server, b"POST /v1/optimize HTTP/1.1\r\nContent-Length: "
        + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n")
    body = _assert_400_envelope(reply)
    assert "exceeds" in body["error"]["message"]


def test_admission_fault_forces_429_with_retry_after(server):
    client = _no_retry_client(server)
    net = build_net(3, seed=34)
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.admission", kind="error", times=None),))
    with use_fault_plan(plan):
        response = client.request("POST", "/v1/optimize",
                                  {"net": net_to_dict(net)})
    assert response.status == 429
    assert response.error["code"] == "admission_rejected"
    retry_after = response.headers.get("Retry-After")
    assert retry_after is not None and int(retry_after) >= 1
    # Probes stay green while the gate rejects work.
    with use_fault_plan(plan):
        assert client.healthz() is True
    stats = client.stats()
    assert stats["counters"]["serve.rejected"] >= 1


def test_client_retries_through_a_bounded_admission_fault(server):
    # The fault clears after one hit; a retrying client recovers on the
    # second attempt without caller involvement.
    sleeps = []
    client = MerlinClient(
        server.base_url,
        retry=RetryPolicy(max_attempts=3, sleep=sleeps.append))
    net = build_net(3, seed=35)
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.admission", kind="error", times=1),))
    with use_fault_plan(plan):
        response = client.request("POST", "/v1/optimize",
                                  {"net": net_to_dict(net)})
    assert response.status == 200 and response.retries == 1
    # Retry-After floors the backoff delay at >= 1 s.
    assert len(sleeps) == 1 and sleeps[0] >= 1.0


def test_downed_shard_fails_over_to_the_next_on_the_ring(server):
    client = _no_retry_client(server)
    nets = [build_net(3, seed=40 + i) for i in range(4)]
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.shard", kind="error", times=None,
                  match="0"),))
    with use_fault_plan(plan):
        for net in nets:
            result = client.optimize(net)
            assert result["ok"]
    stats = client.stats()
    counters = stats["counters"]
    # Shard 0 took nothing; every request landed on shard 1, and the
    # requests originally routed to shard 0 were counted as failovers.
    assert counters.get("serve.shard.0.requests", 0) == 0
    assert counters["serve.shard.1.requests"] == len(nets)
    assert counters.get("serve.shard.failovers", 0) >= 1


def test_all_shards_down_is_a_structured_503(server):
    client = _no_retry_client(server)
    net = build_net(3, seed=44)
    plan = FaultPlan(specs=(
        FaultSpec(site="serve.shard", kind="error", times=None),))
    with use_fault_plan(plan):
        response = client.request("POST", "/v1/optimize",
                                  {"net": net_to_dict(net)})
    assert response.status == 503
    assert response.error["code"] == "shard_unavailable"
    assert response.error["category"] == "resource"


def test_mixed_technology_shards_are_refused():
    thin = TECH.with_buffers(TECH.buffers.subset(4))
    services = [
        OptimizationService(tech=TECH, config=CONFIG, workers=1,
                            cache=ResultCache()),
        OptimizationService(tech=thin, config=CONFIG, workers=1,
                            cache=ResultCache()),
    ]
    try:
        with pytest.raises(MerlinInputError, match="one technology"):
            AsyncShardedServer(services)
    finally:
        for service in services:
            service.close()


def test_build_shard_services_gives_each_shard_its_own_cache():
    services = build_shard_services(3, cache_capacity=8, **SERVICE_KWARGS)
    try:
        assert len(services) == 3
        caches = [s.cache for s in services]
        assert all(caches[i] is not caches[j]
                   for i in range(len(caches))
                   for j in range(i + 1, len(caches)))
        fingerprints = {s.tech_fingerprint for s in services}
        assert len(fingerprints) == 1
    finally:
        for service in services:
            service.close()
