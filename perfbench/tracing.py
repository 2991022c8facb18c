"""The traced run: replay a workload's inputs at each layer boundary.

For served-mix and hot-cache the distinct nets go, in turn, through

1. ``merlin()`` without and then with a ``Recorder`` (curves, core and
   the tracing overhead; the recorder must not change a tree);
2. ``OptimizationService.optimize_many``, cold and then cached;
3. ``canonical_key_for`` and the ``routing`` calls on each tree;
4. HTTP through ``MerlinClient``: the workload's own traffic against a
   fresh server, with ``/v1/stats`` read before and after.

For closure, ``run_closure`` runs once plain and once with a recorder
and a service whose ``optimize_many`` calls are timed; each net it
optimized is then solved again by a direct ``merlin()`` call.

Every call is wrapped in a span of :class:`common.SpanLog`.  Time a
layer spends in the layer below it becomes a child span: the kernel
time the program's own ``Recorder`` reports under ``merlin``, the
``merlin`` time under ``optimize_many``, and the service time a
response reports (``elapsed_s``) under its HTTP request.  Self time is
then a span's duration minus its children.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Tuple

from checks import check_classes
import closure_wl
from closure_wl import (TimedService, check_closure, closure_config,
                        new_service, replay_hits)
from common import OUT_DIR, SpanLog, check, median, percentile, \
    use_checkout_sources
from inputs import closure_netlist
import served

use_checkout_sources()

from repro.core.config import MerlinConfig  # noqa: E402
from repro.core.merlin import merlin  # noqa: E402
from repro.instrument import Recorder, use_recorder  # noqa: E402
from repro.net import net_from_dict  # noqa: E402
from repro.netlist.sta import run_sta  # noqa: E402
from repro.pipeline.closure import run_closure  # noqa: E402
from repro.routing.evaluate import evaluate_tree  # noqa: E402
from repro.routing.export import (tree_from_dict, tree_signature,  # noqa: E402
                                  tree_to_dict)
from repro.routing.validate import validate_tree  # noqa: E402
from repro.service import OptimizationService  # noqa: E402
from repro.tech import default_technology  # noqa: E402

#: Kernel span names the program's Recorder reports (path suffixes).
KERNELS = ("join", "buffer", "relocate", "prune")
#: Repetitions of the cheap per-tree and per-net calls.
ROUTING_REPEATS = 20
CANONICAL_REPEATS = 200
HIT_REPEATS = 50

#: Per-layer metrics of layers a workload never enters (reported as 0).
_SERVE_CLIENT = ("serve.hit_behind_solve_ms", "serve.handle_ms",
                 "serve.rejected",
                 "serve.queue_depth_max", "serve.shard_balance",
                 "serve.cpu_util", "client.transport_ms", "client.retries",
                 "loadgen.late_ms_p99", "layer.http_self_s")
_PIPELINE = ("pipeline.self_s", "pipeline.service_s", "pipeline.iterations",
             "pipeline.nets_reoptimized", "pipeline.rollbacks",
             "netlist.sta_ms")


def engine_totals(rec: Recorder) -> Tuple[float, float]:
    """Cumulative (merlin, kernel) span seconds in ``rec``."""
    merlin_s = kernel_s = 0.0
    for path, stats in rec.spans.items():
        if path == "merlin":
            merlin_s += stats.total_s
        elif path.rsplit("/", 1)[-1].startswith("curves.kernel."):
            kernel_s += stats.total_s
    return merlin_s, kernel_s


def recorder_metrics(rec: Recorder) -> Dict[str, float]:
    """curves and core counts from the program's own instrumentation."""
    kernels = {name: 0.0 for name in KERNELS}
    for path, stats in rec.spans.items():
        leaf = path.rsplit("/", 1)[-1]
        if leaf.startswith("curves.kernel."):
            kernels[leaf[len("curves.kernel."):]] += stats.total_s
    ratio = rec.series.get("curve.prune.survivor_ratio")
    metrics = {f"curves.{name}_s": kernels[name] for name in KERNELS}
    metrics.update({
        "curves.join_pairs": rec.counter("ptree.join.pairs"),
        "curves.buffer_offers": rec.counter("ptree.buffer.offers"),
        "curves.prune_removed": rec.counter("curve.prune.removed"),
        "curves.survivor_ratio": ratio.mean if ratio is not None else 0.0,
        "core.iterations": rec.counter("merlin.iterations"),
        "core.range_memo_hits": rec.counter("bubble.range_memo_hits"),
        "core.gamma_memo_hits": rec.counter("bubble.gamma_memo_hits"),
    })
    return metrics


def mean_ms(call: Callable[[], Any], repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - started) * 1000.0 / repeats


def routing_metrics(trees: List[Any], tech: Any, spans: SpanLog
                    ) -> Dict[str, float]:
    """Median per-tree cost of evaluate, validate and the export round
    trip (``tree_to_dict`` + ``tree_from_dict``)."""
    costs: Dict[str, List[float]] = {"evaluate": [], "validate": [],
                                      "export": []}
    calls = {
        "evaluate": lambda tree: evaluate_tree(tree, tech),
        "validate": validate_tree,
        "export": lambda tree: tree_from_dict(tree_to_dict(tree), tree.net,
                                              tech.buffers),
    }
    with spans.span("phase.routing"):
        for index, tree in enumerate(trees):
            for name, call in calls.items():
                with spans.span(f"routing.{name}", f"tree{index}"):
                    costs[name].append(mean_ms(lambda: call(tree),
                                               ROUTING_REPEATS))
    return {f"routing.{name}_ms": median(values)
            for name, values in costs.items()}


def direct_merlin(jobs: List[Tuple[Any, Any]], spans: SpanLog,
                  name: str) -> Tuple[List[float], List[str]]:
    """Solve each (net, objective) with a plain ``merlin()`` call."""
    tech, config = default_technology(), MerlinConfig.fast_preset()
    seconds, signatures = [], []
    for index, (net, objective) in enumerate(jobs):
        with spans.span(name, f"net{index}") as span:
            result = merlin(net, tech, config, objective=objective)
        seconds.append(span["end"] - span["start"])
        signatures.append(tree_signature(result.tree))
    return seconds, signatures


def engine_and_service(nets: List[Any], spans: SpanLog,
                       failures: List[str]) -> Dict[str, Any]:
    """Steps 1 to 3 of the module docstring on ``nets``."""
    tech = default_technology()
    config = MerlinConfig.fast_preset()
    with spans.span("phase.engine.untraced"):
        plain, signatures = direct_merlin([(net, None) for net in nets],
                                          spans, "merlin.untraced")

    rec = Recorder()
    traced, trees = [], []
    with spans.span("phase.engine"):
        for index, net in enumerate(nets):
            before = engine_totals(rec)[1]
            with spans.span("merlin", f"net{index}") as span:
                result = merlin(net, tech, config.with_(recorder=rec))
            spans.child(span, "curves.kernel",
                        engine_totals(rec)[1] - before, f"net{index}")
            traced.append(span["end"] - span["start"])
            trees.append(result.tree)
            check(tree_signature(result.tree) == signatures[index], failures,
                  f"trace: the Recorder changed the tree of net {index}")

    # The service runs singleton misses inline, so a recorder installed
    # around the call times the merlin() inside it: the service's own
    # cost is the call minus that, measured in the same call.
    service = OptimizationService(tech=tech, config=config, workers=1)
    service_rec = Recorder()
    overhead, hit_us, canonical_us = [], [], []
    with spans.span("phase.service"):
        for index, net in enumerate(nets):
            rid = f"net{index}"
            before = engine_totals(service_rec)[0]
            with use_recorder(service_rec), \
                    spans.span("service.optimize_many", rid) as span:
                answer = service.optimize_many([net])[0]
            engine = engine_totals(service_rec)[0] - before
            spans.child(span, "merlin.in_service", engine, rid)
            overhead.append(span["end"] - span["start"] - engine)
            check(answer.ok and not answer.cached
                  and answer.signature == signatures[index], failures,
                  f"trace: service answer for net {index} differs")
        for index, net in enumerate(nets):
            with spans.span("service.optimize_many.cached", f"net{index}"):
                hit_us.append(1000.0 * mean_ms(
                    lambda: service.optimize_many([net]), HIT_REPEATS))
            with spans.span("service.canonical_key_for", f"net{index}"):
                canonical_us.append(1000.0 * mean_ms(
                    lambda: service.canonical_key_for(net),
                    CANONICAL_REPEATS))
    service.close()

    metrics = recorder_metrics(rec)
    metrics.update(routing_metrics(trees, tech, spans))
    metrics.update({
        "core.merlin_s": sum(plain),
        "core.merlin_max_s": max(plain),
        "service.canonical_us": median(canonical_us),
        "service.hit_us": median(hit_us),
        "service.cold_overhead_s": sum(overhead),
        "trace.overhead_frac": (sum(traced) - sum(plain)) / sum(plain),
    })
    return {"metrics": metrics, "signatures": signatures}


def http_metrics(run: Dict[str, Any], spans: SpanLog) -> Dict[str, float]:
    """serve, client and service-cache numbers from one HTTP run.  The
    first answer per distinct net is the ``http.optimize`` span of the
    layer table; later ones are ``http.optimize.again``."""
    answered = [o for o in run["outcomes"] if o["ok"]]
    seen = set()
    with spans.span("phase.http"):
        for outcome in answered:
            base = outcome["base"]
            name = "http.optimize" if base not in seen else \
                "http.optimize.again"
            seen.add(base)
            rid = outcome["request_id"]
            span = spans.add(name, outcome["start"], outcome["end"], rid)
            spans.add("service", outcome["start"], outcome["start"]
                      + outcome["result"]["elapsed_s"], rid, parent=span)
    before, after = run["stats_before"], run["stats_after"]

    def delta(name: str, shard: int = -1) -> float:
        old, new = (before, after) if shard < 0 else \
            (before["shards"][shard], after["shards"][shard])
        return new["counters"].get(name, 0) - old["counters"].get(name, 0)

    shards = range(after["shard_count"])
    per_shard = [delta(f"serve.shard.{i}.requests") for i in shards]
    hits = sum(delta("service.cache.hits", i) for i in shards)
    misses = sum(delta("service.cache.misses", i) for i in shards)
    return {
        "serve.handle_ms": median([o["timing_ms"]
                                   - o["result"]["elapsed_s"] * 1000.0
                                   for o in answered]),
        "serve.rejected": delta("serve.rejected"),
        "serve.queue_depth_max": after["latency"].get(
            "serve.queue.depth", {}).get("max", 0.0),
        "serve.shard_balance": max(per_shard)
        / (sum(per_shard) / len(per_shard)),
        "serve.cpu_util": run["cpu_s"] / run["wall_s"],
        "service.cache_hit_ratio": hits / max(1, hits + misses),
        "client.transport_ms": median([o["latency_s"] * 1000.0
                                       - o["timing_ms"] for o in answered]),
        "client.retries": sum(o["retries"] for o in run["outcomes"]),
    }


def layer_table(spans: SpanLog, top: Tuple[str, str, str]
                ) -> Dict[str, float]:
    """Print self time per layer and what each layer adds over the one
    below; returns the ``layer.*`` metrics.  ``top`` is the front layer
    (label, span name, metric name)."""
    totals, own = spans.totals(), spans.self_times()
    rows = [("kernel", "curves.kernel", "layer.kernel_self_s"),
            ("merlin", "merlin", "layer.merlin_self_s"),
            ("service", "service.optimize_many", "layer.service_self_s"),
            top]
    print(f"{'layer':10s} {'span':22s} {'total s':>10s} {'self s':>10s} "
          f"{'adds over below':>16s}")
    metrics = {}
    for label, name, key in rows:
        total, self_s = totals.get(name, 0.0), own.get(name, 0.0)
        below = total - self_s
        adds = f"{self_s / below:16.1%}" if below > 0 else f"{'-':>16s}"
        print(f"{label:10s} {name:22s} {total:10.4f} {self_s:10.4f} {adds}")
        metrics[key] = self_s
    return metrics


def finish(spans: SpanLog, workload: str, seed: int) -> None:
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    spans.write(path)
    print(f"{len(spans.spans)} spans written to {os.path.relpath(path)}")


def _tag_bases(run: Dict[str, Any], requests: List[Dict[str, Any]]) -> None:
    for outcome, request in zip(run["outcomes"], requests):
        outcome["base"] = request["base"]


def trace_served_mix(inputs: Dict[str, Any], seconds: float
                     ) -> Dict[str, Any]:
    spans, failures = SpanLog(), []
    nets = [net_from_dict(n) for n in inputs["nets"]]
    layered = engine_and_service(nets, spans, failures)
    run = served.served_mix(inputs, seconds)
    _tag_bases(run, inputs["requests"])
    failures.extend(run["failures"])
    metrics = layered["metrics"]
    metrics.update(http_metrics(run, spans))
    metrics["hit_p99_ms"] = run["metrics"]["hit_p99_ms"]
    metrics["serve.hit_behind_solve_ms"] = \
        run["metrics"]["serve.hit_behind_solve_ms"]
    check_classes({base: sigs + [layered["signatures"][base]]
                   for base, sigs in run["signatures"].items()},
                  failures, "trace: HTTP vs merlin()")
    metrics["service.designed_hit_ratio"] = \
        1.0 - len(inputs["nets"]) / len(inputs["requests"])
    metrics["loadgen.late_ms_p99"] = 0.0
    metrics.update({name: 0.0 for name in _PIPELINE})
    metrics.update(layer_table(
        spans, ("HTTP", "http.optimize", "layer.http_self_s")))
    finish(spans, "served-mix", inputs["seed"])
    return {"metrics": metrics, "failures": failures,
            "attempted": run["attempted"], "failed": run["failed"]}


def trace_hot_cache(inputs: Dict[str, Any], seconds: float
                    ) -> Dict[str, Any]:
    spans, failures = SpanLog(), []
    nets = [net_from_dict(n) for n in inputs["nets"]]
    layered = engine_and_service(nets, spans, failures)
    run = served.hot_cache(inputs, seconds,
                           only_rate=inputs["reference_rate"])
    reference = next(s for s in inputs["steps"]
                     if s["rate"] == inputs["reference_rate"])
    _tag_bases(run, reference["requests"])
    failures.extend(run["failures"])
    metrics = layered["metrics"]
    metrics.update(http_metrics(run, spans))
    metrics["hit_p99_ms"] = run["metrics"]["hit_p99_ms"]
    metrics["serve.hit_behind_solve_ms"] = 0.0
    primed = [o["result"]["tree_signature"] for o in run["primed"]
              if o["ok"]]
    check(primed == layered["signatures"], failures,
          "trace: HTTP priming trees differ from merlin() trees")
    metrics["service.designed_hit_ratio"] = 1.0
    metrics["loadgen.late_ms_p99"] = percentile(
        [o["late_s"] * 1000.0 for o in run["reference"]], 99)
    metrics.update({name: 0.0 for name in _PIPELINE})
    metrics.update(layer_table(
        spans, ("HTTP", "http.optimize", "layer.http_self_s")))
    finish(spans, "hot-cache", inputs["seed"])
    return {"metrics": metrics, "failures": failures,
            "attempted": run["attempted"], "failed": run["failed"]}


def trace_closure(inputs: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    spans, failures = SpanLog(), []
    tech = default_technology()
    plain_service = TimedService(new_service())
    with spans.span("closure.untraced") as span:
        plain = run_closure(closure_netlist(inputs),
                            closure=closure_config(inputs),
                            service=plain_service)
    plain_service.service.close()
    plain_s = span["end"] - span["start"]

    rec = Recorder()
    service = TimedService(new_service(), spans,
                           engine_s=lambda: engine_totals(rec))
    netlist = closure_netlist(inputs)
    with use_recorder(rec), spans.span("pipeline.run_closure") as span:
        result = run_closure(netlist, closure=closure_config(inputs),
                             service=service, recorder=rec)
    wall = span["end"] - span["start"]
    check(result.signatures() == plain.signatures(), failures,
          "trace: the Recorder changed closure's trees")
    checked = check_closure(result, service.calls, tech, failures,
                            "closure")

    jobs = [(net, objective) for call in service.calls
            for net, objective in zip(call["nets"], call["objectives"])]
    answers = [answer for call in service.calls
               for answer in call["results"]]
    with spans.span("phase.engine.untraced"):
        solo, signatures = direct_merlin(jobs, spans, "merlin.untraced")
    check(signatures == [a.signature for a in answers], failures,
          "trace: closure's service trees differ from merlin() trees")
    service_s = sum(c["end"] - c["start"] for c in service.calls)
    with spans.span("netlist.run_sta"):
        sta_ms = mean_ms(lambda: run_sta(netlist, tech), ROUTING_REPEATS)
    with spans.span("service.canonical_key_for"):
        canonical_us = 1000.0 * mean_ms(
            lambda: [service.service.canonical_key_for(net, objective)
                     for net, objective in jobs], 10) / len(jobs)
    replay = replay_hits(service.service, service.calls,
                         closure_wl.REPLAY_HITS, failures)
    counters = service.service.stats()["counters"]
    service.service.close()
    hits = counters.get("service.cache.hits", 0)
    misses = counters.get("service.cache.misses", 0)

    metrics = recorder_metrics(rec)
    metrics.update(routing_metrics(list(result.trees.values()), tech,
                                   spans))
    metrics.update({
        "core.merlin_s": sum(solo),
        "core.merlin_max_s": max(solo),
        "service.canonical_us": canonical_us,
        "service.hit_us": median(replay) * 1000.0,
        "hit_p99_ms": percentile(replay, 99),
        "service.cold_overhead_s": service_s - engine_totals(rec)[0],
        "service.cache_hit_ratio": hits / max(1, hits + misses),
        "service.designed_hit_ratio": 0.0,
        "pipeline.service_s": service_s,
        "pipeline.iterations": rec.counter("pipeline.iterations"),
        "pipeline.nets_reoptimized": rec.counter(
            "pipeline.nets.reoptimized"),
        "pipeline.rollbacks": rec.counter("pipeline.rollbacks"),
        "netlist.sta_ms": sta_ms,
        "trace.overhead_frac": (wall - plain_s) / plain_s,
    })
    metrics.update({name: 0.0 for name in _SERVE_CLIENT})
    metrics.update(layer_table(spans, ("pipeline", "pipeline.run_closure",
                                       "pipeline.self_s")))
    finish(spans, "closure", inputs["seed"])
    return {"metrics": metrics, "failures": failures,
            "attempted": checked["attempted"],
            "failed": checked["attempted"] - checked["checked"]}


TRACED = {"served-mix": trace_served_mix, "hot-cache": trace_hot_cache,
          "closure": trace_closure}
