"""Tests for the process-parallel outer-search driver and report merge.

The contract: worker count is a pure scheduling knob — every result,
the best-pick, and the merged instrumentation report are identical for
any ``workers`` value (including the inline ``workers=1`` path).
"""

from __future__ import annotations

import pytest

from conftest import build_net
from repro import parallel
from repro.core.config import MerlinConfig
from repro.core.objective import Objective
from repro.instrument import Recorder, SpanStats, merge_reports
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()


def _multi_start(workers):
    net = build_net(4, seed=8)
    return parallel.run_multi_start(net, TECH, config=CONFIG,
                                    seeds=(None, 1), workers=workers)


def test_worker_count_is_invisible():
    inline = _multi_start(workers=1)
    pooled = _multi_start(workers=2)
    assert [r.signature for r in inline.results] == \
        [r.signature for r in pooled.results]
    assert [r.cost for r in inline.results] == \
        [r.cost for r in pooled.results]
    assert inline.best.label == pooled.best.label
    assert inline.report["counters"] == pooled.report["counters"]
    assert inline.report["spans"].keys() == pooled.report["spans"].keys()


def test_results_follow_submission_order():
    outcome = _multi_start(workers=2)
    assert [r.label for r in outcome.results] == ["tsp", "seed=1"]
    assert outcome.best in outcome.results
    assert outcome.best.cost == min(r.cost for r in outcome.results)


def test_parent_recorder_never_crosses_the_pool():
    """A live parent recorder is stripped; workers record independently."""
    net = build_net(3, seed=4)
    config = CONFIG.with_(recorder=Recorder())
    outcome = parallel.run_multi_start(net, TECH, config=config,
                                       seeds=(None,), workers=1)
    assert config.recorder.counters == {}  # parent recorder untouched
    assert outcome.results[0].report["counters"]  # worker's own report


def test_resolve_workers():
    assert parallel.resolve_workers(None, CONFIG, 8) == 1
    assert parallel.resolve_workers(None, CONFIG.with_(workers=4), 8) == 4
    assert parallel.resolve_workers(3, CONFIG.with_(workers=4), 8) == 3
    assert parallel.resolve_workers(16, CONFIG, 3) == 3  # clamped
    with pytest.raises(ValueError):
        parallel.resolve_workers(0, CONFIG, 3)


def test_workers_config_validation():
    with pytest.raises(ValueError, match="workers"):
        MerlinConfig(workers=0)


def test_run_tasks_rejects_empty():
    with pytest.raises(ValueError, match="no tasks"):
        parallel.run_tasks([])


def test_multi_start_orders_labels():
    net = build_net(4, seed=1)
    labels = [label for label, _ in
              parallel.multi_start_orders(net, (None, 7))]
    assert labels == ["tsp", "seed=7"]


# ----------------------------------------------------------------------
# merge_reports
# ----------------------------------------------------------------------

def _report(counter=0, series=(), events=(), span=None):
    rec = Recorder(clock=lambda: 0.0)
    if counter:
        rec.incr("c", counter)
    for value in series:
        rec.record("s", value)
    for payload in events:
        rec.event("e", **payload)
    if span is not None:
        rec.spans["sp"] = SpanStats(count=1, total_s=span)
    return rec.report()


def test_merge_reports_sums_and_concatenates():
    r1 = _report(counter=2, series=(1.0, 5.0), events=({"i": 1},),
                 span=0.5)
    r2 = _report(counter=3, series=(4.0,), events=({"i": 2}, {"i": 3}),
                 span=1.5)
    merged = merge_reports([r1, r2])
    assert merged["counters"]["c"] == 5
    s = merged["series"]["s"]
    assert s["count"] == 3
    assert s["total"] == 10.0
    assert s["min"] == 1.0 and s["max"] == 5.0
    assert s["last"] == 4.0  # from the later report, submission order
    assert merged["spans"]["sp"] == {"count": 2, "total_s": 2.0}
    assert [e["i"] for e in merged["events"]["e"]] == [1, 2, 3]


def test_merge_reports_is_order_sensitive_only_in_stream_fields():
    r1 = _report(counter=1, series=(2.0,))
    r2 = _report(counter=4, series=(9.0,))
    ab = merge_reports([r1, r2])
    ba = merge_reports([r2, r1])
    assert ab["counters"] == ba["counters"]
    assert ab["series"]["s"]["total"] == ba["series"]["s"]["total"]
    assert ab["series"]["s"]["last"] == 9.0
    assert ba["series"]["s"]["last"] == 2.0


def test_merge_reports_rejects_bad_version():
    with pytest.raises(ValueError):
        merge_reports([{"version": 99, "counters": {}, "series": {},
                        "spans": {}, "events": {}}])
