"""The ``closure`` workload: in-process ``run_closure`` on the pinned
circuit, repeated for the run's seconds, plus a cached replay of its
nets through the service."""

from __future__ import annotations

import os
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

from checks import check_tree
from common import check, median, percentile, use_checkout_sources
from inputs import closure_inputs, closure_netlist
from speed import SpeedProbe

use_checkout_sources()

from repro.core.config import MerlinConfig  # noqa: E402
from repro.netlist.placement import place_netlist  # noqa: E402
from repro.netlist.sta import run_sta  # noqa: E402
from repro.pipeline.closure import ClosureConfig, run_closure  # noqa: E402
from repro.routing.evaluate import evaluate_tree  # noqa: E402
from repro.service import OptimizationService  # noqa: E402
from repro.tech import default_technology  # noqa: E402

#: Set-up repetitions (median reported).
SETUP_REPEATS = 25
#: Per-net hit samples of the cached replay (about 2 s of them).
REPLAY_HITS = 15000
#: Critical-delay tolerance (ps) of the never-rises check.
DELAY_TOLERANCE_PS = 1e-6


class TimedService:
    """An :class:`OptimizationService` whose ``optimize_many`` calls are
    timed from outside; ``run_closure`` sees only ``tech`` and
    ``optimize_many``.  With ``spans`` each call becomes a span; with
    ``engine_s`` (a function returning the program's cumulative
    ``merlin`` and kernel span seconds) the engine time inside each call
    becomes its child spans."""

    def __init__(self, service: OptimizationService,
                 spans: Optional[Any] = None,
                 engine_s: Optional[Any] = None) -> None:
        self.service = service
        self.tech = service.tech
        self.calls: List[Dict[str, Any]] = []
        self._spans = spans
        self._engine_s = engine_s

    def optimize_many(self, nets, objectives=None, **kwargs):
        before = self._engine_s() if self._engine_s else (0.0, 0.0)
        started = time.perf_counter()
        results = self.service.optimize_many(nets, objectives=objectives,
                                             **kwargs)
        end = time.perf_counter()
        self.calls.append({"nets": list(nets),
                           "objectives": list(objectives)
                           if objectives is not None else [None] * len(nets),
                           "results": results, "start": started,
                           "end": end})
        if self._spans is not None:
            call = self._spans.add("service.optimize_many", started, end)
            if self._engine_s is not None:
                after = self._engine_s()
                engine = self._spans.add(
                    "merlin", started, started + after[0] - before[0],
                    parent=call)
                self._spans.add("curves.kernel", started,
                                started + after[1] - before[1],
                                parent=engine)
        return results


def new_service() -> OptimizationService:
    return OptimizationService(tech=default_technology(),
                               config=MerlinConfig.fast_preset(), workers=1)


def closure_config(inputs: Dict[str, Any]) -> ClosureConfig:
    return ClosureConfig(order=inputs["order"],
                         batch_size=inputs["batch_size"])


def setup_once(seed: int) -> Tuple[float, float]:
    """Generate, place and time the circuit once, as closure would;
    returns the ``(start, end)`` window."""
    started = time.perf_counter()
    inputs = closure_inputs(seed)
    netlist = place_netlist(closure_netlist(inputs))
    run_sta(netlist, default_technology())
    new_service().close()
    return started, time.perf_counter()


def check_closure(result: Any, calls: List[Dict[str, Any]], tech: Any,
                  failures: List[str], what: str) -> Dict[str, Any]:
    """Convergence, monotone critical delay, and an independent check
    of every tree the service returned."""
    check(result.converged, failures, f"{what}: did not converge")
    previous = result.estimate_delay
    for iteration in result.iterations:
        check(iteration.critical_delay <= previous + DELAY_TOLERANCE_PS,
              failures, f"{what}: critical delay rose at iteration "
                        f"{iteration.index}")
        previous = iteration.critical_delay
    attempted = checked = 0
    for call in calls:
        for net, answer in zip(call["nets"], call["results"]):
            attempted += 1
            if not check(answer.ok, failures,
                         f"{what}: net {net.name} failed: {answer.error}"):
                continue
            if check_tree(answer.tree, answer.evaluation, tech, failures,
                          f"{what}: net {net.name}") is not None:
                checked += 1
    delays = [evaluate_tree(tree, tech).delay
              for tree in result.trees.values()]
    return {"attempted": attempted, "checked": checked,
            "delay_ps_mean": sum(delays) / len(delays) if delays else 0.0}


def replay_hits(service: Any, calls: List[Dict[str, Any]], samples: int,
                failures: List[str]) -> List[float]:
    """Send every net closure optimized back through the (warm) service
    one at a time until ``samples`` hits are timed; returns their ms
    (as measured)."""
    jobs = [(net, objective) for call in calls
            for net, objective in zip(call["nets"], call["objectives"])]
    times: List[float] = []
    while len(times) < samples:
        for net, objective in jobs:
            started = time.perf_counter()
            answer = service.optimize_many([net], objectives=[objective])[0]
            times.append((time.perf_counter() - started) * 1000.0)
            check(answer.ok and answer.cached, failures,
                  "closure: replayed net was not a cache hit")
    return times


def closure(inputs: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    """Run closure on one CPU, with the speed probe pinned to the same
    CPU: the host slows its cores unequally, and a probe on another core
    than this single-threaded workload does not see the same host."""
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        return _closure(inputs, seconds, cpu)
    finally:
        os.sched_setaffinity(0, allowed)


def _closure(inputs: Dict[str, Any], seconds: float,
             cpu: int) -> Dict[str, Any]:
    tech = default_technology()
    failures: List[str] = []
    runs: List[Dict[str, Any]] = []
    with SpeedProbe(cpu) as probe:
        setups = [setup_once(inputs["seed"]) for _ in range(SETUP_REPEATS)]
        started = time.perf_counter()
        while not runs or (time.perf_counter() - started < seconds
                           and len(runs) < 16):
            service = TimedService(new_service())
            netlist = closure_netlist(inputs)
            t0 = time.perf_counter()
            result = run_closure(netlist, closure=closure_config(inputs),
                                 service=service)
            runs.append({"result": result, "window": (t0, time.perf_counter()),
                         "service": service})
        last = runs[-1]
        replay_start = time.perf_counter()
        replay = replay_hits(last["service"].service, last["service"].calls,
                             REPLAY_HITS, failures)
        replay_end = time.perf_counter()
    signatures = {tuple(sorted(run["result"].signatures().items()))
                  for run in runs}
    check(len(signatures) == 1, failures,
          "closure: repeated runs produced different trees")

    checked = check_closure(last["result"], last["service"].calls, tech,
                            failures, "closure")
    for run in runs:
        run["service"].service.close()
    # Per run: the time its optimize_many calls took per net.  A run's
    # calls are spread over its whole window, so they are scaled by it.
    per_net_ms = []
    for run in runs:
        calls = run["service"].calls
        seconds = sum(call["end"] - call["start"] for call in calls)
        nets = sum(len(call["nets"]) for call in calls)
        per_net_ms.append((seconds * 1000.0 / nets, run["window"]))
    result = last["result"]
    closure_s = median([probe.span(*run["window"]) for run in runs])
    walls = [end - start for start, end in (run["window"] for run in runs)]
    optimized = sum(it.reoptimized for it in result.iterations)
    metrics = {
        "setup_s": probe.scale(median([e - s for s, e in setups]),
                               *setups),
        "throughput_rps": optimized / closure_s,
        "cold_p50_ms": median([probe.scale(ms, window)
                               for ms, window in per_net_ms]),
        "hit_p50_ms": probe.scale(percentile(replay, 50),
                                  (replay_start, replay_end)),
        "hit_p99_ms": percentile(replay, 99),
        # Closure always has the next batch ready, so the rate it runs at
        # is the rate it can sustain.
        "max_rate_rps": optimized / closure_s,
        "ok_share": checked["checked"] / max(1, checked["attempted"]),
        "delay_ps_mean": checked["delay_ps_mean"],
        "buffer_area_um2": result.buffer_area,
        "closure_s": closure_s,
        "critical_delay_ps": result.critical_delay,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {"metrics": metrics, "failures": failures,
            "attempted": checked["attempted"],
            "failed": checked["attempted"] - checked["checked"],
            "runs": runs,
            "result": result,
            "report": [f"as measured: setup "
                       f"{median([e - s for s, e in setups]):.3f} s, "
                       f"closure {median(walls):.3f} s over {len(runs)} "
                       f"runs, cold {median(ms for ms, _ in per_net_ms):.2f} "
                       f"ms per net, "
                       f"hit p50 {percentile(replay, 50):.4f} ms",
                       probe.describe()]}
