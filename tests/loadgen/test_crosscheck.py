"""End-to-end: a real workload solved in-process and over HTTP must agree.

This is the in-suite (small) version of the ``async-serve-smoke`` CI
gate: same engine preset, fewer requests.
"""

from __future__ import annotations

from repro.core.config import MerlinConfig
from repro.loadgen import (
    WorkloadSpec,
    check_equivalence,
    generate_workload,
    in_process_signatures,
    run_cross_check,
)

SPEC = WorkloadSpec(requests=6, distinct_nets=2, min_sinks=2, max_sinks=3,
                    seed=3, twin_fraction=0.3, repeat_fraction=0.3)
SERVICE_KWARGS = dict(config=MerlinConfig.test_preset(), workers=1)


def test_sync_and_async_paths_answer_bit_identically():
    """The synchronous in-process path (``optimize_many``) and the async
    HTTP tier answer every request with the same tree signature."""
    workload = generate_workload(SPEC)
    verdict = run_cross_check(workload, shards=2, concurrency=2,
                              **SERVICE_KWARGS)
    assert verdict["failures"] == []
    assert verdict["identical"] is True
    report = verdict["http"]
    counts = report.counts()
    assert counts["ok"] == counts["requests"] == len(workload)
    assert check_equivalence(workload, report) == []
    assert report.throughput_rps > 0
    # Both sides answered every request — the signature maps must be
    # keyed identically and agree entry for entry.
    assert verdict["in_process"] == report.signature_map()
    assert len(verdict["in_process"]) == len(workload)
    # One signature per cache-equivalence class.
    classes = workload.equivalence_classes()
    assert len(set(verdict["in_process"].values())) == len(classes)


def test_a_divergent_answer_fails_the_gate(monkeypatch):
    import repro.loadgen.crosscheck as crosscheck

    workload = generate_workload(SPEC)
    honest = in_process_signatures(workload, **SERVICE_KWARGS)

    def tampered(workload, **kwargs):
        return {**honest, "0": "not-a-real-signature"}

    monkeypatch.setattr(crosscheck, "in_process_signatures", tampered)
    verdict = run_cross_check(workload, shards=1, concurrency=2,
                              **SERVICE_KWARGS)
    assert verdict["identical"] is False
    assert any(failure.startswith("in-process vs http: request 0:")
               for failure in verdict["failures"])
