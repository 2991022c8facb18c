"""The repository's benchmark: one command, three workloads, every
metric by name and unit.

    python3 perfbench/run.py --workload served-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that replays the workload's
inputs at each layer boundary and prints the per-layer metrics and the
layer table.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Any failed
correctness check makes the run exit non-zero.  See README.md in this
directory for the workloads, the metrics and their predicted movers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import result_line, use_checkout_sources  # noqa: E402

WORKLOADS = ("served-mix", "hot-cache", "closure")


def metric_units() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    BENCHMARK.json, the single list of metric names."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from inputs import make_inputs

    inputs = make_inputs(workload, seed, seconds)
    if trace:
        import tracing

        return tracing.TRACED[workload](inputs, seconds)
    if workload == "closure":
        from closure_wl import closure

        return closure(inputs, seconds)
    import served

    if workload == "served-mix":
        return served.served_mix(inputs, seconds)
    return served.hot_cache(inputs, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the finally blocks stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    use_checkout_sources()
    kinds = metric_units()
    units = kinds["per_layer" if args.trace else "end_to_end"]

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = outcome["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"benchmark bug: metrics not measured: {missing}")
    for line in outcome.get("report", []):
        print(line)
    failures = outcome["failures"]
    for failure in failures[:50]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    attempted = max(1, int(outcome["attempted"]))
    # A check that fails across requests (one net, two trees) still
    # counts as at least one failed operation.
    failed = min(attempted, max(int(outcome["failed"]),
                                1 if failures else 0))
    if not args.trace:
        # Measured end to end but not gated (see README.md).
        for name in sorted(set(metrics) & set(kinds["per_layer"])):
            print(f"{name:28s} {metrics[name]:14.6g} "
                  f"{kinds['per_layer'][name]} (not gated)")
        print(f"{'fail_share':28s} {failed / attempted:14.6g} ratio "
              "(not gated; gated as ok_share)")
    metrics = {name: float(metrics[name]) for name in units}
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(result_line(not failures, attempted, failed, metrics, units))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
