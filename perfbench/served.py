"""The two HTTP workloads: ``served-mix`` (closed loop) and ``hot-cache``
(open loop), each against ``merlin-repro serve --async`` in its own
process."""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import check, median, percentile, use_checkout_sources
from checks import check_classes, check_served
from server import ServerProcess
from speed import SpeedProbe

use_checkout_sources()

from repro.client import MerlinClient  # noqa: E402
from repro.resilience.errors import MerlinError  # noqa: E402
from repro.tech import default_technology  # noqa: E402

#: Callers (threads and connections) of both loops: the box has 2 CPUs.
CALLERS = 2
#: Set-ups per run (served-mix: server starts; hot-cache: start and
#: prime); set-up time is their median.
SERVER_STARTS = 9
PRIMED_STARTS = 5
#: hot-cache: p99 latency limit a ladder rung must meet, and the p99
#: generator lag above which a rung is invalid (not counted).  Hits take
#: a few ms, but a slow spell of the shared host stalls the server for
#: 100 ms or more now and then, enough to lift a short rung's p99 past
#: 100 ms; an overloaded rung's p99 is 500 ms and up.  The generator
#: shares 2 CPUs with the server, so its p99 lag reaches about 7 ms on a
#: healthy rung; a generator that cannot keep up lags by more.
LATENCY_LIMIT_MS = 250.0
LATE_LIMIT_MS = 25.0
#: Hits replayed one at a time after the served-mix loop, on the then
#: quiet server.  With two callers both CPUs are busy and the speed
#: probe's readings stop following the hits' latency; one caller leaves
#: a CPU free.
WARM_HITS = 2000


def start_server(starts: int,
                 prime: Optional[Callable[[ServerProcess], Any]] = None
                 ) -> Tuple[ServerProcess, List[Tuple[float, float]],
                            List[Any]]:
    """Set up ``starts`` servers one after the other (start to healthy,
    then ``prime(server)``) and keep the last one running.  Returns it,
    the ``(start, end)`` window of each set-up and every ``prime``
    result."""
    windows, primed = [], []
    for attempt in range(starts):
        started = time.perf_counter()
        server = ServerProcess().start()
        try:
            if prime is not None:
                primed.append(prime(server))
        except BaseException:
            server.stop()
            raise
        windows.append((started, time.perf_counter()))
        if attempt < starts - 1:
            server.stop()
    return server, windows, primed


def post(client: MerlinClient, net: Dict[str, Any]) -> Dict[str, Any]:
    """One optimize request; the client's view of it."""
    started = time.perf_counter()
    try:
        response = client.request("POST", "/v1/optimize", {"net": net})
    except MerlinError as exc:
        return {"ok": False, "error": str(exc), "start": started,
                "end": time.perf_counter(), "retries": 0}
    end = time.perf_counter()
    result = response.result if response.ok else None
    return {"ok": result is not None, "status": response.status,
            "start": started, "end": end, "latency_s": end - started,
            "retries": response.retries,
            "timing_ms": response.body.get("timing_ms"),
            "request_id": response.request_id, "result": result,
            "error": None if response.ok else response.error}


def closed_loop(url: str, nets: List[Dict[str, Any]], callers: int = CALLERS
                ) -> Tuple[List[Dict[str, Any]], float]:
    """``callers`` callers work through ``nets`` in order, each sending
    its next request when its previous answer arrives."""
    outcomes: List[Optional[Dict[str, Any]]] = [None] * len(nets)
    cursor = [0]
    lock = threading.Lock()

    def caller(index: int) -> None:
        client = MerlinClient(url, timeout_s=600.0)
        while True:
            with lock:
                position = cursor[0]
                cursor[0] += 1
            if position >= len(nets):
                return
            outcomes[position] = post(client, nets[position])

    started = time.perf_counter()
    run_threads(caller, callers)
    return [o for o in outcomes if o is not None], \
        time.perf_counter() - started


def open_loop(url: str, requests: List[Dict[str, Any]]
              ) -> Tuple[List[Dict[str, Any]], float]:
    """Send each request at its ``due`` offset (s) from the start, on
    ``CALLERS`` connections.  Latency counts from the due time, so time
    spent waiting for a free connection counts.  ``late_s`` is the
    generator's own lag: how long after the later of the due time and
    the moment a connection was free the request actually went out."""
    outcomes: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    cursor = [0]
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def caller(index: int) -> None:
        client = MerlinClient(url, timeout_s=60.0)
        while True:
            with lock:
                position = cursor[0]
                cursor[0] += 1
            if position >= len(requests):
                return
            free = time.perf_counter()
            due = origin + requests[position]["due"]
            if due > free:
                time.sleep(due - free)
            outcome = post(client, requests[position]["net"])
            outcome["late_s"] = outcome["start"] - max(due, free)
            outcome["latency_s"] = outcome["end"] - due
            outcomes[position] = outcome

    run_threads(caller)
    done = [o for o in outcomes if o is not None]
    return done, max(o["end"] for o in done) - origin


def run_threads(target: Callable[[int], None], count: int = CALLERS
                ) -> None:
    threads = [threading.Thread(target=target, args=(i,), daemon=True)
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=900)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")


# -- shared result handling ----------------------------------------------

def checked_answers(outcomes: List[Dict[str, Any]],
                    requests: List[Dict[str, Any]],
                    bases: List[Dict[str, Any]], tech: Any,
                    failures: List[str], what: str
                    ) -> Tuple[Dict[int, Any], Dict[int, List[str]]]:
    """Check every answer; returns the first re-evaluation per base net
    and the signatures seen per base net."""
    evaluations: Dict[int, Any] = {}
    signatures: Dict[int, List[str]] = {}
    for index, (outcome, request) in enumerate(zip(outcomes, requests)):
        label = f"{what} request {index}"
        if not check(outcome["ok"], failures,
                     f"{label}: failed: {outcome.get('error')}"):
            outcome["checked"] = False
            continue
        checked = check_served(request["net"], outcome["result"], tech,
                               failures, label,
                               frame=bases[request["base"]])
        outcome["checked"] = checked is not None
        if checked is None:
            continue
        signatures.setdefault(request["base"], []).append(
            checked["signature"])
        evaluations.setdefault(request["base"], checked["evaluation"])
    check_classes(signatures, failures, what)
    return evaluations, signatures


def quality(evaluations: Dict[int, Any], count: int,
            failures: List[str], what: str) -> Dict[str, float]:
    check(len(evaluations) == count, failures,
          f"{what}: {count - len(evaluations)} distinct net(s) unanswered")
    delays = [e.delay for e in evaluations.values()] or [0.0]
    return {
        "delay_ps_mean": sum(delays) / len(delays),
        "critical_delay_ps": max(delays),
        "buffer_area_um2": sum(e.buffer_area for e in evaluations.values()),
    }


def ok_share(outcomes: List[Dict[str, Any]]) -> float:
    return sum(1 for o in outcomes if o.get("checked")) / len(outcomes)


# -- served-mix ------------------------------------------------------------

def hits_behind_solves_ms(outcomes: List[Dict[str, Any]]) -> List[float]:
    """Latencies of hits that overlapped at least one cold request."""
    cold = [(o["start"], o["end"]) for o in outcomes
            if o["ok"] and not o["result"]["cached"]]
    return [o["latency_s"] * 1000.0 for o in outcomes
            if o["ok"] and o["result"]["cached"]
            and any(start < o["end"] and o["start"] < end
                    for start, end in cold)]


def served_mix(inputs: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    """Closed loop of ``CALLERS`` callers over the request list, then a
    warm replay of the same list by one caller (all hits, on a quiet
    server).

    ``hit_p50_ms`` comes from the warm replay.  Hits that wait behind
    solves during the loop are reported as ``serve.hit_behind_solve_ms``
    but not gated: whether the solving thread lets them through within
    about 2 ms or about 45 ms changes from run to run with the
    interpreter's lock hand-offs, so their median is bimodal."""
    tech = default_technology()
    failures: List[str] = []
    requests = inputs["requests"]
    with SpeedProbe() as probe:
        server, windows, _ = start_server(SERVER_STARTS)
        try:
            client = MerlinClient(server.url)
            stats_before = client.stats()
            cpu_before = server.cpu_seconds()
            loop_start = time.perf_counter()
            outcomes, wall = closed_loop(server.url,
                                         [r["net"] for r in requests])
            loop_end = time.perf_counter()
            cpu_s = server.cpu_seconds() - cpu_before
            stats_after = client.stats()
            warm_requests = [requests[i % len(requests)]
                             for i in range(WARM_HITS)]
            warm_start = time.perf_counter()
            warm, warm_wall = closed_loop(
                server.url, [r["net"] for r in warm_requests], callers=1)
            warm_end = time.perf_counter()
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()

    evaluations, signatures = checked_answers(
        outcomes, requests, inputs["nets"], tech, failures, "served-mix")
    for outcome in warm:
        check(outcome["ok"] and outcome["result"]["cached"], failures,
              "served-mix: warm replay request was not a cache hit")
    cold = [o for o in outcomes if o["ok"] and not o["result"]["cached"]]
    cold_ms = [o["latency_s"] * 1000.0 for o in cold]
    behind = hits_behind_solves_ms(outcomes)
    warm_ms = [o["latency_s"] * 1000.0 for o in warm if o["ok"]]
    check(bool(cold) and bool(behind) and len(warm_ms) >= WARM_HITS,
          failures, "served-mix: missing cold, hit or warm samples")
    answered = len([o for o in outcomes if o["ok"]])
    loop_s = probe.span(loop_start, loop_end)
    throughput = answered / loop_s
    metrics = {
        "setup_s": probe.scale(median([e - s for s, e in windows]),
                               *windows),
        "throughput_rps": throughput,
        # Each cold answer takes seconds, long enough to be scaled by the
        # probe over its own window.
        "cold_p50_ms": median([probe.span(o["start"], o["end"]) * 1000.0
                               for o in cold]) if cold else 0.0,
        "hit_p50_ms": probe.scale(median(warm_ms), (warm_start, warm_end))
        if warm_ms else 0.0,
        "hit_p99_ms": percentile(warm_ms, 99) if warm_ms else 0.0,
        "serve.hit_behind_solve_ms": median(behind) if behind else 0.0,
        # Both callers always wait on the server, so the loop runs the
        # server at its capacity for this mix.
        "max_rate_rps": throughput,
        "ok_share": ok_share(outcomes),
        "closure_s": loop_s,
        "peak_rss_mb": peak_rss,
    }
    metrics.update(quality(evaluations, len(inputs["nets"]), failures,
                           "served-mix"))
    return {"metrics": metrics, "failures": failures,
            "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if not o.get("checked")),
            "outcomes": outcomes,
            "signatures": signatures, "wall_s": wall, "cpu_s": cpu_s,
            "stats_before": stats_before, "stats_after": stats_after,
            "report": [f"{len(cold)} cold answers, {len(behind)} hits "
                       f"behind solves, {len(warm_ms)} warm hits in "
                       f"{warm_wall:.2f} s",
                       f"as measured: setup "
                       f"{median([e - s for s, e in windows]):.3f} s, "
                       f"{answered / wall:.4f} req/s, cold p50 "
                       f"{median(cold_ms) if cold_ms else 0.0:.1f} ms, "
                       f"warm hit p50 "
                       f"{median(warm_ms) if warm_ms else 0.0:.3f} ms, "
                       f"loop {wall:.2f} s",
                       probe.describe()]}


# -- hot-cache --------------------------------------------------------------

def ladder_step(step: Dict[str, Any], outcomes: List[Dict[str, Any]],
                wall: float) -> Dict[str, Any]:
    """Summarize one rung: its latencies, lateness and whether it
    counts toward ``max_rate_rps``."""
    latency = [o["latency_s"] * 1000.0 for o in outcomes]
    late = [o["late_s"] * 1000.0 for o in outcomes]
    answered = sum(1 for o in outcomes if o.get("checked"))
    last_due = step["requests"][-1]["due"]
    p99 = percentile(latency, 99)
    late_p99 = percentile(late, 99)
    valid = late_p99 <= LATE_LIMIT_MS
    # No growing backlog: the last answer lands within the limit of the
    # last due time.  Failed or refused requests miss the limit.
    meets = (p99 <= LATENCY_LIMIT_MS and answered == len(outcomes)
             and wall - last_due <= LATENCY_LIMIT_MS / 1000.0)
    return {"rate": step["rate"], "requests": len(outcomes),
            "achieved_rps": answered / wall,
            "p50_ms": percentile(latency, 50), "p99_ms": p99,
            "late_p99_ms": late_p99, "valid": valid, "meets": meets}


def hot_cache(inputs: Dict[str, Any], seconds: float,
              only_rate: Optional[float] = None) -> Dict[str, Any]:
    """Set up (start, then prime every distinct net) five times, then run
    the rate ladder against the last server."""
    tech = default_technology()
    failures: List[str] = []
    bases = inputs["nets"]

    def prime(server: ServerProcess) -> List[Dict[str, Any]]:
        client = MerlinClient(server.url, timeout_s=600.0)
        return [post(client, net) for net in bases]

    # Set-up runs on one CPU, with the probe on the same CPU: the server
    # solves each priming net on one thread, and the host slows the two
    # cores unequally, so a probe on the other core misreads the speed
    # the solves ran at.  The ladder then gets every CPU back.
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    with SpeedProbe(cpu) as probe:
        os.sched_setaffinity(0, {cpu})
        try:
            server, windows, primings = start_server(PRIMED_STARTS, prime)
        finally:
            os.sched_setaffinity(0, allowed)
        try:
            server.pin(allowed)
            probe.pin(allowed)
            client = MerlinClient(server.url)
            stats_before = client.stats()
            cpu_before = server.cpu_seconds()
            steps = []
            ladder_wall = 0.0
            for step in inputs["steps"]:
                if only_rate is not None and step["rate"] != only_rate:
                    continue
                started = time.perf_counter()
                outcomes, wall = open_loop(server.url, step["requests"])
                steps.append((step, outcomes, wall,
                              (started, time.perf_counter())))
                ladder_wall += wall
            cpu_s = server.cpu_seconds() - cpu_before
            stats_after = client.stats()
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()

    primed = [answer for answers in primings for answer in answers]
    prime_requests = [{"net": net, "base": i}
                      for _ in primings for i, net in enumerate(bases)]
    evaluations, _ = checked_answers(primed, prime_requests, bases, tech,
                                     failures, "hot-cache priming")
    all_outcomes, rungs = [], []
    signatures: Dict[int, List[str]] = {}
    for step, outcomes, wall, _ in steps:
        _, seen = checked_answers(outcomes, step["requests"], bases, tech,
                                  failures, f"hot-cache {step['rate']:g}/s")
        for base, sigs in seen.items():
            signatures.setdefault(base, []).extend(sigs)
        for outcome in outcomes:
            check(not outcome["ok"] or outcome["result"]["cached"],
                  failures, "hot-cache: a request missed the cache")
        rungs.append(ladder_step(step, outcomes, wall))
        all_outcomes.extend(outcomes)
    for request, answer in zip(prime_requests, primed):
        if answer.get("checked"):
            signatures.setdefault(request["base"], []).append(
                answer["result"]["tree_signature"])
    check_classes(signatures, failures, "hot-cache")

    reference, ref_window = next(
        ((o, w) for (s, o, _, w) in steps
         if s["rate"] == inputs["reference_rate"]), ([], (0.0, 0.0)))
    ref_ms = [o["latency_s"] * 1000.0 for o in reference if o["ok"]]
    # Per set-up: its mean priming latency, scaled by the probe over the
    # set-up.  The 8 nets' solve times differ by 2x, so a median over
    # single requests falls between nets and jumps from run to run.
    primed_ms = [(sum(o["end"] - o["start"] for o in answers) * 1000.0
                  / len(answers), window)
                 for answers, window in zip(primings, windows)]
    passing = [r for r in rungs if r["valid"] and r["meets"]]
    report = [f"{'rate':>6s} {'n':>5s} {'achieved':>9s} {'p50 ms':>8s} "
              f"{'p99 ms':>8s} {'late p99':>9s} valid meets"]
    report += [f"{r['rate']:6g} {r['requests']:5d} {r['achieved_rps']:9.1f} "
               f"{r['p50_ms']:8.2f} {r['p99_ms']:8.2f} "
               f"{r['late_p99_ms']:9.2f} {str(r['valid']):5s} {r['meets']}"
               for r in rungs]
    report.append(f"as measured: setup "
                  f"{median([e - s for s, e in windows]):.3f} s, priming mean "
                  f"{median(ms for ms, _ in primed_ms):.2f} ms, hit p50 "
                  f"{percentile(ref_ms, 50) if ref_ms else 0.0:.3f} ms")
    report.append(probe.describe())
    # The ladder's rates and wall are set by its schedule, not by the
    # host's speed, so they are not scaled.
    metrics = {
        "setup_s": probe.scale(median([e - s for s, e in windows]),
                               *windows),
        "throughput_rps": sum(1 for o in all_outcomes if o["ok"])
        / ladder_wall,
        "cold_p50_ms": median([probe.scale(ms, window)
                               for ms, window in primed_ms]),
        "hit_p50_ms": probe.scale(percentile(ref_ms, 50), ref_window)
        if ref_ms else 0.0,
        "hit_p99_ms": percentile(ref_ms, 99) if ref_ms else 0.0,
        "max_rate_rps": max((r["achieved_rps"] for r in passing),
                            default=0.0),
        "ok_share": ok_share(all_outcomes + primed),
        "closure_s": ladder_wall,
        "peak_rss_mb": peak_rss,
    }
    metrics.update(quality(evaluations, len(bases), failures, "hot-cache"))
    return {"metrics": metrics, "failures": failures,
            "attempted": len(all_outcomes) + len(primed),
            "failed": sum(1 for o in all_outcomes + primed
                          if not o.get("checked")),
            "rungs": rungs, "report": report,
            "outcomes": all_outcomes, "primed": primings[-1],
            "reference": reference, "wall_s": ladder_wall, "cpu_s": cpu_s,
            "stats_before": stats_before, "stats_after": stats_after}
