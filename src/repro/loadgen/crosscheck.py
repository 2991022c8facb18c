"""The in-process-vs-HTTP bit-identity gate, as one callable.

Solves one workload twice: in-process through
:meth:`OptimizationService.optimize_many` (no transport, no sharding),
and over HTTP through the sharded front end
(:class:`~repro.serve.embedded.EmbeddedAsyncServer`).  The engine is
deterministic, so the two must agree request by request; any
divergence means a routing, caching or serialization bug in the serving
stack, not noise, and the gate treats a single mismatch as failure.

Used three ways, same code: the ``merlin-repro loadgen --cross-check``
CLI flag, the ``tests/loadgen`` suite, and the ``async-serve-smoke`` CI
job.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.loadgen.harness import (
    check_equivalence,
    compare_signature_maps,
    run_workload,
)
from repro.loadgen.workload import Workload


def in_process_signatures(workload: Workload,
                          **service_kwargs: Any) -> Dict[str, str]:
    """Request index -> tree signature, solved by one in-process
    :class:`OptimizationService` (successes only, the same keying as
    :meth:`LoadReport.signature_map`)."""
    from repro.net import net_from_dict
    from repro.service import OptimizationService

    nets = [net_from_dict(request["body"].get("net", request["body"]))
            for request in workload.requests]
    with OptimizationService(**service_kwargs) as service:
        results = service.optimize_many(nets)
    return {str(index): result.signature
            for index, result in enumerate(results)
            if result.ok and result.signature is not None}


def run_cross_check(workload: Workload, shards: int = 2,
                    concurrency: int = 4,
                    queue_limit: Optional[int] = None,
                    **service_kwargs: Any) -> Dict[str, Any]:
    """Solve ``workload`` in-process and over HTTP; return the verdict.

    ``service_kwargs`` configure every :class:`OptimizationService`
    (the in-process one and each HTTP shard) so both sides optimize
    under identical tech/config/objective.

    Returns ``{"identical", "failures", "in_process", "http"}``:
    the in-process signature map and the HTTP :class:`LoadReport`,
    which carries full latency detail for whoever wants it.
    """
    from repro.serve import DEFAULT_QUEUE_LIMIT
    from repro.serve.embedded import EmbeddedAsyncServer

    local = in_process_signatures(workload, **service_kwargs)
    with EmbeddedAsyncServer(
            shards=shards,
            queue_limit=queue_limit or DEFAULT_QUEUE_LIMIT,
            **service_kwargs) as server:
        report = run_workload(server.base_url, workload,
                              concurrency=concurrency)
    served = report.signature_map()

    failures = [f"http: {f}" for f in check_equivalence(workload, report)]
    failures += [f"in-process vs http: {f}"
                 for f in compare_signature_maps(local, served)]
    if set(local) != set(served):
        failures.append(
            "success sets differ: in-process-only="
            f"{sorted(set(local) - set(served), key=int)} "
            f"http-only={sorted(set(served) - set(local), key=int)}")
    return {
        "identical": not failures,
        "failures": failures,
        "in_process": local,
        "http": report,
    }
