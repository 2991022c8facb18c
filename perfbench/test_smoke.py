"""Smoke test of the benchmark itself (about two minutes).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that one seed always yields byte-identical inputs, that a
shrunken run of every workload, plain and traced, passes every
correctness check, that the traced per-layer counts repeat exactly,
and that the benchmark refuses to report without program sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import closure_wl  # noqa: E402
import inputs  # noqa: E402
import served  # noqa: E402
import tracing  # noqa: E402
from common import BENCH_DIR, ROOT  # noqa: E402

WORKLOADS = ("served-mix", "hot-cache", "closure")
SEED = 5
#: Counts the traced run must reproduce exactly.
EXACT_COUNTS = ("curves.join_pairs", "curves.prune_removed",
                "core.iterations", "pipeline.iterations")


@pytest.fixture
def shrunk(monkeypatch):
    """3-sink nets, a short ladder, a small circuit and few replays."""
    monkeypatch.setattr(inputs, "MIX_DISTINCT", 3)
    monkeypatch.setattr(inputs, "MIX_REQUESTS", 12)
    monkeypatch.setattr(inputs, "MIX_SINKS", (3, 3))
    monkeypatch.setattr(inputs, "HOT_DISTINCT", 2)
    monkeypatch.setattr(inputs, "HOT_SINKS", (3, 3))
    monkeypatch.setattr(inputs, "CLOSURE_CIRCUIT", "b9")
    monkeypatch.setattr(served, "WARM_HITS", 40)
    monkeypatch.setattr(served, "SERVER_STARTS", 1)
    monkeypatch.setattr(served, "PRIMED_STARTS", 1)
    monkeypatch.setattr(closure_wl, "REPLAY_HITS", 40)
    monkeypatch.setattr(closure_wl, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = inputs.inputs_blob(inputs.make_inputs(workload, SEED, 4.0))
    again = inputs.inputs_blob(inputs.make_inputs(workload, SEED, 4.0))
    other = inputs.inputs_blob(inputs.make_inputs(workload, SEED + 1, 4.0))
    assert first == again
    assert first != other


def _assert_clean(outcome):
    assert outcome["failures"] == []
    assert outcome["failed"] == 0
    assert outcome["attempted"] > 0


def test_served_mix_shrunk(shrunk):
    _assert_clean(served.served_mix(inputs.make_inputs("served-mix", SEED,
                                                       1.0), 1.0))


def test_hot_cache_shrunk(shrunk):
    outcome = served.hot_cache(inputs.make_inputs("hot-cache", SEED, 1.0),
                               1.0)
    _assert_clean(outcome)
    assert outcome["metrics"]["max_rate_rps"] > 0


def test_closure_shrunk(shrunk):
    _assert_clean(closure_wl.closure(inputs.make_inputs("closure", SEED,
                                                        0.0), 0.0))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_shrunk_repeats_counts(shrunk, workload):
    runs = []
    for _ in range(2):
        outcome = tracing.TRACED[workload](
            inputs.make_inputs(workload, SEED, 1.0), 1.0)
        _assert_clean(outcome)
        runs.append(outcome["metrics"])
    for name in EXACT_COUNTS:
        assert runs[0][name] == runs[1][name], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
