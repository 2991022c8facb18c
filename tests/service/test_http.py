"""The v1 HTTP surface end to end: status mapping, envelopes, closure.

Round trips against a one-shard in-process front end
(:class:`repro.serve.embedded.EmbeddedAsyncServer` over a single
:class:`OptimizationService`), over plain ``urllib`` so the raw status
line, headers and body are what is asserted.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from tests.conftest import build_net
from repro.core.config import MerlinConfig
from repro.net import net_to_dict
from repro.routing.export import tree_from_dict, tree_signature
from repro.routing.validate import validate_tree
from repro.serve.embedded import EmbeddedAsyncServer
from repro.service import OptimizationService, ResultCache
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()


@contextmanager
def _serve(service):
    """One shard over ``service``; the service is closed on exit."""
    try:
        with EmbeddedAsyncServer([service]) as embedded:
            yield embedded
    finally:
        service.close()


@pytest.fixture()
def server():
    with _serve(OptimizationService(
            tech=TECH, config=CONFIG, cache=ResultCache(),
            workers=1)) as embedded:
        yield embedded


def _url(embedded, path):
    return f"{embedded.base_url}{path}"


def _get_full(embedded, path):
    try:
        with urllib.request.urlopen(_url(embedded, path),
                                    timeout=10) as response:
            return (response.status,
                    json.loads(response.read().decode("utf-8")),
                    dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()), \
            dict(error.headers)


def _get(embedded, path):
    status, body, _ = _get_full(embedded, path)
    return status, body


def _post_full(embedded, path, body):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(
        _url(embedded, path), data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return (response.status, json.loads(response.read().decode()),
                    dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode()), \
            dict(error.headers)


def _post(embedded, path, body):
    status, payload, _ = _post_full(embedded, path, body)
    return status, payload


def test_healthz(server):
    status, body = _get(server, "/v1/healthz")
    assert status == 200
    assert body["result"]["status"] == "ok"


def test_optimize_round_trip_returns_a_valid_tree(server):
    net = build_net(3, seed=11)
    status, body = _post(server, "/v1/optimize", {"net": net_to_dict(net)})
    assert status == 200
    result = body["result"]
    assert result["ok"] and not result["cached"]
    tree = tree_from_dict(result["tree"], net, TECH.buffers)
    validate_tree(tree)
    assert tree_signature(tree) == result["tree_signature"]


def test_second_post_is_a_cache_hit_with_identical_signature(server):
    net = build_net(3, seed=12)
    payload = {"net": net_to_dict(net)}
    _, cold = _post(server, "/v1/optimize", payload)
    status, warm = _post(server, "/v1/optimize", payload)
    cold, warm = cold["result"], warm["result"]
    assert status == 200
    assert warm["cached"] is True
    assert warm["tree_signature"] == cold["tree_signature"]
    assert warm["tree"] == cold["tree"]

    _, stats = _get(server, "/v1/stats")
    shard = stats["result"]["shards"][0]
    assert shard["cache"]["hits"] == 1
    assert shard["cache"]["misses"] == 1
    assert shard["counters"]["service.cache.hits"] == 1


def test_bare_net_payload_is_accepted(server):
    net = build_net(2, seed=13)
    status, body = _post(server, "/v1/optimize", net_to_dict(net))
    assert status == 200 and body["result"]["ok"]


def test_bad_json_is_rejected(server):
    status, body = _post(server, "/v1/optimize", b"{not json")
    assert status == 400
    assert "not valid JSON" in body["error"]["message"]


def test_malformed_net_is_rejected(server):
    status, body = _post(server, "/v1/optimize", {"net": {"name": "broken"}})
    assert status == 400
    assert "malformed" in body["error"]["message"]


def test_empty_body_is_rejected(server):
    status, body = _post(server, "/v1/optimize", b"")
    assert status == 400
    assert body["error"]["category"] == "input"


def test_unknown_paths_are_404_in_the_v1_envelope(server):
    status, body, headers = _get_full(server, "/nope")
    assert status == 404
    assert headers["Content-Type"] == "application/json"
    assert body["api_version"] == "v1"
    assert body["result"] is None
    assert body["error"]["code"] == "unknown_path"
    assert body["error"]["category"] == "input"
    assert "/nope" in body["error"]["message"]
    status, body = _post(server, "/nope", {})
    assert status == 404
    assert body["error"]["code"] == "unknown_path"


def test_v1_paths_reject_wrong_methods_as_unknown(server):
    status, body, _ = _get_full(server, "/v1/optimize")
    assert status == 404
    assert body["error"]["code"] == "unknown_path"


def test_stats_reports_execution_mode(server):
    status, stats = _get(server, "/v1/stats")
    assert status == 200
    shard = stats["result"]["shards"][0]
    assert shard["execution_mode"] == "serial"
    assert shard["workers"] == 1


def test_every_response_is_json_content_type(server):
    net = build_net(2, seed=14)
    for status, _, headers in (
        _get_full(server, "/v1/healthz"),
        _get_full(server, "/v1/stats"),
        _post_full(server, "/v1/optimize", {"net": net_to_dict(net)}),
        _post_full(server, "/v1/optimize", b"{not json"),
        _post_full(server, "/v1/closure", {"circuit": "nope"}),
        _get_full(server, "/nope"),
        _post_full(server, "/optimize", {"net": net_to_dict(net)}),
    ):
        assert headers["Content-Type"] == "application/json"
        assert int(headers["Content-Length"]) > 0


# ----------------------------------------------------------------------
# the v1 surface: envelope goldens
# ----------------------------------------------------------------------

ENVELOPE_KEYS = {"api_version", "request_id", "result", "error",
                 "degraded", "timing_ms"}


def _assert_envelope(body):
    assert set(body) == ENVELOPE_KEYS
    assert body["api_version"] == "v1"
    assert isinstance(body["request_id"], str) and body["request_id"]
    assert isinstance(body["timing_ms"], (int, float))
    assert (body["result"] is None) != (body["error"] is None)


def test_v1_optimize_success_envelope(server):
    net = build_net(3, seed=21)
    status, body, headers = _post_full(
        server, "/v1/optimize", {"net": net_to_dict(net)})
    assert status == 200
    _assert_envelope(body)
    assert body["error"] is None and body["degraded"] is False
    result = body["result"]
    assert result["ok"] and not result["cached"]
    tree = tree_from_dict(result["tree"], net, TECH.buffers)
    validate_tree(tree)
    assert tree_signature(tree) == result["tree_signature"]


def test_v1_optimize_error_envelope(server):
    status, body, _ = _post_full(
        server, "/v1/optimize", {"net": {"name": "broken"}})
    assert status == 400
    _assert_envelope(body)
    assert body["result"] is None
    error = body["error"]
    assert set(error) == {"category", "code", "message", "detail"}
    assert error["category"] == "input"
    assert error["code"] == "malformed_net"
    assert error["detail"]["kind"] == "MalformedNetError"


def test_v1_healthz_and_stats_envelopes(server):
    status, body, _ = _get_full(server, "/v1/healthz")
    assert status == 200
    _assert_envelope(body)
    assert body["result"]["status"] == "ok"
    status, body, _ = _get_full(server, "/v1/stats")
    assert status == 200
    _assert_envelope(body)
    assert body["result"]["shard_count"] == 1


def test_v1_closure_success_envelope(server):
    status, body, _ = _post_full(
        server, "/v1/closure",
        {"circuit": "b9", "order": "criticality", "batch_size": 4})
    assert status == 200
    _assert_envelope(body)
    assert body["result"]["converged"] is True
    assert body["result"]["circuit"] == "b9"


def test_v1_closure_error_envelope(server):
    status, body, _ = _post_full(server, "/v1/closure",
                                 {"circuit": "nope"})
    assert status == 400
    _assert_envelope(body)
    assert body["error"]["category"] == "input"
    assert "unknown circuit" in body["error"]["message"]


# ----------------------------------------------------------------------
# Error-taxonomy status mapping
# ----------------------------------------------------------------------

def test_input_errors_are_400_with_a_field_precise_detail(server):
    net_payload = net_to_dict(build_net(3, seed=15))
    del net_payload["sinks"][1]["load"]
    status, body = _post(server, "/v1/optimize", {"net": net_payload})
    assert status == 400
    assert "invalid net payload" in body["error"]["message"]
    detail = body["error"]["detail"]
    assert detail["category"] == "input"
    assert "sink #1" in detail["message"]
    assert "'load'" in detail["message"]


def _resource_error_runner(job):
    from repro.resilience.errors import PoolUnavailableError

    raise PoolUnavailableError("pool exhausted", stage="pool")


def _internal_error_runner(job):
    from repro.resilience.errors import MerlinInternalError

    raise MerlinInternalError("invariant violated", stage="engine")


def _status_for_runner(runner):
    from repro.service import engine as engine_mod

    service = OptimizationService(
        tech=TECH, config=CONFIG, cache=ResultCache(), workers=1)
    original = engine_mod._JOB_RUNNER
    engine_mod._JOB_RUNNER = runner
    try:
        with _serve(service) as embedded:
            net = build_net(3, seed=16)
            return _post(embedded, "/v1/optimize",
                         {"net": net_to_dict(net)})
    finally:
        engine_mod._JOB_RUNNER = original


def test_resource_errors_are_503():
    status, body = _status_for_runner(_resource_error_runner)
    assert status == 503
    assert body["result"] is None
    assert body["error"]["category"] == "resource"
    assert body["error"]["detail"]["kind"] == "PoolUnavailableError"


def test_internal_errors_are_500():
    status, body = _status_for_runner(_internal_error_runner)
    assert status == 500
    assert body["result"] is None
    assert body["error"]["category"] == "internal"


def test_degraded_results_are_200_and_carry_the_degradation_detail():
    from repro.baselines.star import buffered_star

    service = OptimizationService(
        tech=TECH, config=CONFIG, cache=ResultCache(), workers=1,
        budget_ops=1)
    net = build_net(3, seed=17)
    with _serve(service) as embedded:
        status, body = _post(embedded, "/v1/optimize",
                             {"net": net_to_dict(net)})
    assert status == 200
    assert body["degraded"] is True
    result = body["result"]
    assert result["ok"] and result["degraded"]
    assert result["degradation"]["rung"] == "buffered_star"
    assert result["tree_signature"] == \
        tree_signature(buffered_star(net, TECH))


# ----------------------------------------------------------------------
# POST /v1/closure
# ----------------------------------------------------------------------

def test_closure_endpoint_runs_a_named_circuit(server):
    status, body = _post(server, "/v1/closure",
                         {"circuit": "b9", "order": "criticality",
                          "batch_size": 4})
    assert status == 200
    body = body["result"]
    assert body["converged"] is True
    assert body["circuit"] == "b9"
    assert body["policy"] == "criticality"
    assert body["iterations"]
    slacks = [it["worst_slack"] for it in body["iterations"]]
    assert all(slacks[i] <= slacks[i + 1] + 1e-6
               for i in range(len(slacks) - 1))
    assert body["nets_optimized"] == len(body["signatures"])
    assert "trees" not in body  # opt-in via include_trees


def test_closure_endpoint_accepts_an_inline_netlist(server):
    from repro.netlist.generator import CircuitSpec, generate_circuit
    from repro.netlist.io import netlist_to_dict

    spec = CircuitSpec(name="http_inline", primary_inputs=4,
                       primary_outputs=3, logic_gates=10, levels=3,
                       max_fanout=4, seed=7)
    status, body = _post(server, "/v1/closure",
                         {"netlist": netlist_to_dict(generate_circuit(spec)),
                          "include_trees": True})
    assert status == 200
    body = body["result"]
    assert body["circuit"] == "http_inline"
    assert body["converged"] is True
    assert sorted(body["trees"]) == sorted(body["signatures"])


def test_closure_endpoint_rejects_unknown_circuit(server):
    status, body = _post(server, "/v1/closure", {"circuit": "nope"})
    assert status == 400
    assert "unknown circuit" in body["error"]["message"]
    assert body["error"]["category"] == "input"


def test_closure_endpoint_rejects_unknown_order(server):
    status, body = _post(server, "/v1/closure",
                         {"circuit": "b9", "order": "bogus"})
    assert status == 400
    assert "unknown ordering policy" in body["error"]["message"]


def test_closure_endpoint_rejects_bad_knobs(server):
    status, body = _post(server, "/v1/closure",
                         {"circuit": "b9", "target_scale": 2.0})
    assert status == 400
    assert body["error"]["category"] == "input"
