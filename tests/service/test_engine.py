"""OptimizationService: cache semantics, isolation, timeouts, fallback.

Failure injection works by swapping the module-level ``_JOB_RUNNER``
indirection: the pool entry point resolves it at call time, and worker
processes inherit the patched value via fork.  The pool-path injection
tests are skipped on platforms whose default start method is not fork
(the serial-path twins still run everywhere).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from tests.conftest import build_net
from repro.core.config import MerlinConfig
from repro.instrument import names as metric
from repro.net import Net, Sink
from repro.routing.validate import validate_tree
from repro.service import OptimizationService, ResultCache
from repro.service import engine as engine_mod
from repro.tech.technology import default_technology

TECH = default_technology()
CONFIG = MerlinConfig.test_preset()

FORK = multiprocessing.get_start_method() == "fork"
needs_fork = pytest.mark.skipif(
    not FORK, reason="pool-path injection relies on fork inheritance")


def _service(**kwargs):
    kwargs.setdefault("tech", TECH)
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("cache", ResultCache())
    kwargs.setdefault("workers", 1)
    return OptimizationService(**kwargs)


def _poison_runner(job):
    if "poison" in job.net.name:
        raise RuntimeError("injected failure")
    return engine_mod._run_job(job)


def _slow_runner(job):
    if "slow" in job.net.name:
        time.sleep(1.5)
    return engine_mod._run_job(job)


# ----------------------------------------------------------------------
# Cache semantics (the acceptance criterion)
# ----------------------------------------------------------------------

def test_cache_hit_is_bit_identical_to_cold_run():
    with _service() as service:
        net = build_net(3, seed=5)
        cold = service.optimize(net)
        hit = service.optimize(net)
    assert cold.ok and not cold.cached
    assert hit.ok and hit.cached
    assert hit.signature == cold.signature  # bit-identical topology
    assert hit.cost == cold.cost
    assert hit.evaluation == cold.evaluation
    validate_tree(hit.tree)


def test_cache_counters_track_hits_and_misses():
    with _service() as service:
        net = build_net(3, seed=5)
        service.optimize(net)
        service.optimize(net)
        stats = service.stats()
    assert stats["counters"][metric.SERVICE_CACHE_MISSES] == 1
    assert stats["counters"][metric.SERVICE_CACHE_HITS] == 1
    assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1
    assert stats["latency"][metric.SERVICE_REQUEST_LATENCY_S]["count"] == 2


def test_translated_net_hits_and_rebuilds_in_its_own_frame():
    with _service() as service:
        net = build_net(3, seed=6)
        moved = Net(
            name="moved",
            source=net.source.translated(500.0, -250.0),
            sinks=tuple(
                Sink(s.name, s.position.translated(500.0, -250.0),
                     s.load, s.required_time)
                for s in net.sinks
            ),
        )
        cold = service.optimize(net)
        hit = service.optimize(moved)
    assert hit.cached
    # Same topology, shifted frame: signatures differ by the offset but
    # the rebuilt tree is structurally valid for the *new* net ...
    validate_tree(hit.tree)
    assert hit.tree.net is moved
    # ... and translation-invariant metrics are preserved exactly.
    assert hit.evaluation == cold.evaluation
    assert hit.cost == cold.cost


def test_disk_cache_survives_service_restart(tmp_path):
    disk = str(tmp_path / "results")
    net = build_net(3, seed=7)
    with _service(cache=ResultCache(disk_dir=disk)) as first:
        cold = first.optimize(net)
    with _service(cache=ResultCache(disk_dir=disk)) as second:
        warm = second.optimize(net)
    assert warm.cached
    assert warm.signature == cold.signature


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------

def test_optimize_many_returns_results_in_order():
    nets = [build_net(3, seed=s, name=f"net{s}") for s in (1, 2, 3)]
    with _service(workers=2) as service:
        results = service.optimize_many(nets)
    assert [r.net_name for r in results] == ["net1", "net2", "net3"]
    assert all(r.ok for r in results)
    for result in results:
        validate_tree(result.tree)


def test_pool_and_serial_agree():
    nets = [build_net(3, seed=s, name=f"net{s}") for s in (4, 5)]
    with _service(workers=1) as serial:
        inline = serial.optimize_many(nets)
    with _service(workers=2) as pooled:
        warm = pooled.optimize_many(nets)
    assert [r.signature for r in inline] == [r.signature for r in warm]


def test_duplicate_nets_in_one_batch_hit_within_the_batch():
    net = build_net(3, seed=8)
    with _service() as service:
        results = service.optimize_many([net, net])
    assert not results[0].cached and results[1].cached
    assert results[0].signature == results[1].signature


# ----------------------------------------------------------------------
# Error isolation and timeouts
# ----------------------------------------------------------------------

def test_worker_exception_is_isolated_serial(monkeypatch):
    monkeypatch.setattr(engine_mod, "_JOB_RUNNER", _poison_runner)
    nets = [build_net(3, seed=1, name="ok1"),
            build_net(3, seed=2, name="poison"),
            build_net(3, seed=3, name="ok2")]
    with _service() as service:
        results = service.optimize_many(nets)
        stats = service.stats()
    assert [r.ok for r in results] == [True, False, True]
    assert "injected failure" in results[1].error
    assert stats["counters"][metric.SERVICE_JOB_FAILURES] == 1
    assert stats["counters"][metric.SERVICE_ERRORS] == 1


@needs_fork
def test_worker_exception_is_isolated_in_the_pool(monkeypatch):
    monkeypatch.setattr(engine_mod, "_JOB_RUNNER", _poison_runner)
    nets = [build_net(3, seed=1, name="ok1"),
            build_net(3, seed=2, name="poison"),
            build_net(3, seed=3, name="ok2")]
    with _service(workers=2) as service:
        results = service.optimize_many(nets)
    assert [r.ok for r in results] == [True, False, True]
    assert "injected failure" in results[1].error
    for result in (results[0], results[2]):
        validate_tree(result.tree)


@needs_fork
def test_job_timeout_does_not_fail_the_batch(monkeypatch):
    monkeypatch.setattr(engine_mod, "_JOB_RUNNER", _slow_runner)
    nets = [build_net(3, seed=1, name="slow"),
            build_net(3, seed=2, name="fast")]
    with _service(workers=2) as service:
        results = service.optimize_many(nets, timeout_s=0.25)
        stats = service.stats()
    assert not results[0].ok
    assert "timed out" in results[0].error
    assert results[1].ok
    assert stats["counters"][metric.SERVICE_JOB_TIMEOUTS] == 1


def test_failed_jobs_are_not_cached(monkeypatch):
    monkeypatch.setattr(engine_mod, "_JOB_RUNNER", _poison_runner)
    net = build_net(3, seed=2, name="poison")
    with _service() as service:
        first = service.optimize(net)
        monkeypatch.setattr(engine_mod, "_JOB_RUNNER", engine_mod._run_job)
        second = service.optimize(net)
    assert not first.ok
    assert second.ok and not second.cached  # the failure never cached


# ----------------------------------------------------------------------
# Degradation and lifecycle
# ----------------------------------------------------------------------

def test_serial_fallback_when_pool_unavailable():
    with _service(workers=4) as service:
        service._pool_disabled = "forced by test"
        results = service.optimize_many(
            [build_net(3, seed=s) for s in (1, 2)])
        stats = service.stats()
    assert all(r.ok for r in results)
    assert stats["execution_mode"] == "serial"
    assert stats["pool_disabled_reason"] == "forced by test"


def test_workers_default_comes_from_config():
    service = _service(config=CONFIG.with_(workers=3), workers=None)
    assert service.workers == 3
    service.close()


def test_workers_validation():
    with pytest.raises(ValueError):
        _service(workers=0)


def test_close_is_idempotent():
    service = _service(workers=2)
    service.optimize(build_net(3, seed=1))
    service.close()
    service.close()


def test_one_shot_optimize_many_helper():
    from repro.service import optimize_many

    nets = [build_net(3, seed=s, name=f"n{s}") for s in (1, 2)]
    results = optimize_many(nets, tech=TECH, config=CONFIG, workers=2)
    assert [r.net_name for r in results] == ["n1", "n2"]
    assert all(r.ok for r in results)


# ----------------------------------------------------------------------
# The served curve kernel
# ----------------------------------------------------------------------

def test_service_without_a_backend_runs_the_numpy_kernel(monkeypatch):
    """With NumPy present, a service whose config names no backend
    solves on the numpy kernel."""
    pytest.importorskip("numpy")
    from repro.curves import kernels

    frozen = []
    freeze = kernels.PendingCurve.freeze

    def spy(curve, memo=None):
        frozen.append(curve)
        return freeze(curve, memo)

    monkeypatch.setattr(kernels.PendingCurve, "freeze", spy)
    with _service() as service:
        assert service.config.backend is None
        assert service.config.curve.resolved_backend() == "numpy"
        result = service.optimize(build_net(3, seed=5))
    assert not result.cached
    assert frozen
