"""Property tests for the curve-kernel contract (:mod:`repro.curves.contract`).

Two families of guarantees:

* **Registry** — backends register like staticcheck rules, resolve by
  name, and degrade gracefully when NumPy is absent.
* **Bit-identity** — for every registered backend, the block-level
  ``merge / join / add_buffer / prune / freeze / traceback`` pipeline
  must equal a solution-object reference path written directly against
  :class:`~repro.curves.curve.SolutionCurve` (no kernels involved), on
  random curves.  The reference here is deliberately naive — the point
  is that neither the deferred SoA entries nor the shadow-table skips
  may change a single surviving solution, its attributes, or its
  traceback topology.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.curves import contract
from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import Buffered, Extend, Join, SinkLeaf, Solution
from repro.geometry.point import Point
from repro.tech.technology import default_technology

P = Point(0, 0)


def _sig(s: Solution) -> tuple:
    """Structural signature: attributes plus the full traceback tree.

    Solutions compare by identity (they are ``__slots__`` hot-path
    objects), so bit-identity across independently materialized paths is
    asserted on this recursive value instead.
    """
    d = s.detail
    if isinstance(d, SinkLeaf):
        tail = ("sink", d.sink_index)
    elif isinstance(d, Extend):
        tail = ("extend", d.length, d.width, _sig(d.child))
    elif isinstance(d, Join):
        tail = ("join", _sig(d.left), _sig(d.right))
    elif isinstance(d, Buffered):
        tail = ("buffered", d.buffer.name, _sig(d.child))
    else:  # pragma: no cover - DriverArm never appears below the root
        tail = ("driver", _sig(d.child))
    return (s.root, s.load, s.required_time, s.area, tail)


def _sigs(solutions) -> list:
    return [_sig(s) for s in solutions]

BACKENDS = ["python", "numpy"] if contract.numpy_available() else ["python"]


def _random_solutions(rng, n, span=30):
    """Integer-valued attributes force heavy bucket collisions."""
    return [
        Solution(P, float(rng.randint(0, span)),
                 float(rng.randint(-span, span)),
                 float(rng.randint(0, span)), SinkLeaf(i))
        for i in range(n)
    ]


def _buffer_params(n=6):
    """Affine (buffer, input_cap, area, d0, slope) tuples from the
    default library — including repeated-cap cells so the shadow table
    is non-trivial when quantization is coarse."""
    tech = default_technology()
    bufs = list(tech.buffers)[:n]
    return [(b, b.input_cap, b.area, b.intrinsic_delay, b.drive_resistance)
            for b in bufs]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def test_builtin_backends_are_registered():
    names = contract.kernel_names()
    assert "python" in names
    if contract.numpy_available():
        assert "numpy" in names
    for name in names:
        kernel = contract.get_kernel(name)
        assert isinstance(kernel, contract.CurveKernel)
        assert kernel.name == name


def test_get_kernel_is_idempotent_singleton():
    assert contract.get_kernel("python") is contract.get_kernel("python")


def test_get_kernel_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown curve kernel"):
        contract.get_kernel("fortran")  # staticcheck: ignore[REG-DANGLING-KEY]


def test_register_kernel_requires_a_name():
    with pytest.raises(ValueError, match="non-empty name"):
        @contract.register_kernel
        class Nameless(contract.CurveKernel):
            pass


def test_numpy_request_degrades_without_numpy(monkeypatch):
    from repro.curves import kernels
    monkeypatch.setattr(kernels, "_np", None)
    monkeypatch.setattr(kernels, "_fallback_logged", True)
    assert contract.get_kernel("numpy").name == "python"


def test_default_backend_without_numpy_is_python_and_logs_nothing():
    """Without NumPy the default kernel is python and nothing is logged;
    only an explicit numpy request logs the fallback, once."""
    snippet = (
        "import logging, sys\n"
        "sys.modules['numpy'] = None\n"
        "records = []\n"
        "class Keep(logging.Handler):\n"
        "    def emit(self, record):\n"
        "        records.append(record)\n"
        "logging.getLogger('repro.curves.kernels').addHandler(Keep())\n"
        "from repro.core.config import MerlinConfig\n"
        "from repro.curves import contract\n"
        "backend = MerlinConfig().curve.backend\n"
        "assert backend == 'python', backend\n"
        "assert contract.get_kernel(backend).name == 'python'\n"
        "assert not records, records\n"
        "contract.get_kernel('numpy')\n"
        "contract.get_kernel('numpy')\n"
        "assert len(records) == 1, records\n"
    )
    repro_root = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": repro_root},
        timeout=120)
    assert result.returncode == 0, result.stderr


def test_library_shadow_table_marks_same_bucket_predecessors():
    params = _buffer_params(6)
    coarse = CurveConfig(load_step=1e9)  # every cap lands in bucket 0
    lib = contract.KernelLibrary(params, coarse)
    assert lib.has_shadows
    assert lib.shadows[0] == ()
    assert all(lib.shadows[j] == tuple(range(j))
               for j in range(len(params)))

    fine = CurveConfig(load_step=1e-6)  # every cap in its own bucket
    lib = contract.KernelLibrary(params, fine)
    assert not lib.has_shadows
    assert all(s == () for s in lib.shadows)


# ----------------------------------------------------------------------
# Block pipeline vs solution-object reference
# ----------------------------------------------------------------------

def _ref_join(curve: SolutionCurve, lefts, rights) -> None:
    for a in lefts:
        for b in rights:
            load = a.load + b.load
            req = min(a.required_time, b.required_time)
            area = a.area + b.area
            key = curve.accept_key(load, req, area)
            if key is not None:
                curve.add_keyed(key, Solution(curve.root, load, req, area,
                                              Join(a, b)))


def _ref_buffer(curve: SolutionCurve, params) -> None:
    for s in list(curve):
        for buffer, input_cap, buf_area, d0, slope in params:
            req = s.required_time - d0 - slope * s.load
            area = s.area + buf_area
            key = curve.accept_key(input_cap, req, area)
            if key is not None:
                curve.add_keyed(key, Solution(curve.root, input_cap, req,
                                              area, Buffered(s, buffer)))


def _reference(lefts, rights, params, config) -> list:
    """The whole pipeline on materialized Solution objects only."""
    def folded(sols):
        c = SolutionCurve(P, config)
        for s in sols:
            c.add(s)
        c.prune()
        return c.solutions

    curve = SolutionCurve(P, config)
    _ref_join(curve, folded(lefts), folded(rights))
    curve.prune()
    _ref_buffer(curve, params)
    curve.prune()
    merged = SolutionCurve(P, config)
    merged.extend(curve.solutions)
    merged.prune()
    return merged.solutions


def _block_of(kernel, sols, config):
    curve = kernel.new_curve(P, config)
    for s in sols:
        curve.add(s)
    kernel.prune(curve)
    return kernel.freeze(curve)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_block_pipeline_matches_solution_reference(backend, seed):
    """join -> prune -> add_buffer -> prune -> freeze -> merge ->
    traceback on kernel blocks == the naive Solution-object path.

    Sizes are drawn to straddle the scalar/vector dispatch thresholds,
    and the coarse load step makes several buffers share a load bucket,
    so the Li & Shi shadow skip actually fires on at least one seed.
    """
    rng = random.Random(seed)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=24,
                         backend=backend)
    lefts = _random_solutions(rng, rng.randint(2, 40))
    rights = _random_solutions(rng, rng.randint(2, 40))
    params = _buffer_params()

    kernel = contract.get_kernel(backend)
    library = kernel.make_library(params, config)
    curve = kernel.new_curve(P, config)
    kernel.join(curve, _block_of(kernel, lefts, config),
                _block_of(kernel, rights, config))
    kernel.prune(curve)
    kernel.add_buffer(curve, library)
    kernel.prune(curve)
    merged = kernel.new_curve(P, config)
    kernel.merge(merged, kernel.freeze(curve))
    kernel.prune(merged)
    got = kernel.traceback(kernel.freeze(merged))

    want = _reference(lefts, rights, params,
                      CurveConfig(load_step=2.0, area_step=3.0,
                                  max_solutions=24))
    # Attributes AND the traceback topology (Join/Buffered trees)
    # must match, in curve order.
    assert _sigs(got) == _sigs(want)


@pytest.mark.parametrize("backend", BACKENDS)
def test_thaw_round_trips_the_live_curve(backend):
    rng = random.Random(11)
    config = CurveConfig(load_step=2.0, area_step=3.0, max_solutions=16,
                         backend=backend)
    kernel = contract.get_kernel(backend)
    curve = kernel.new_curve(P, config)
    for s in _random_solutions(rng, 60):
        curve.add(s)
    kernel.prune(curve)
    thawed = kernel.thaw(curve)
    assert isinstance(thawed, SolutionCurve)
    assert _sigs(thawed.solutions) == \
        _sigs(kernel.traceback(kernel.freeze(curve)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_shadow_skip_never_changes_the_curve(backend):
    """With a huge load step every buffer shares one load bucket — the
    adversarial case for the predecessor skip.  The surviving curve must
    equal the no-shadow reference exactly."""
    rng = random.Random(17)
    config = CurveConfig(load_step=500.0, area_step=3.0, max_solutions=24,
                         backend=backend)
    params = _buffer_params()
    sources = _random_solutions(rng, 30)

    kernel = contract.get_kernel(backend)
    library = kernel.make_library(params, config)
    assert library.has_shadows
    curve = kernel.new_curve(P, config)
    for s in sources:
        curve.add(s)
    kernel.prune(curve)
    pruned_sources = kernel.traceback(kernel.freeze(curve))
    kernel.add_buffer(curve, library)
    kernel.prune(curve)
    got = kernel.traceback(kernel.freeze(curve))

    ref = SolutionCurve(P, CurveConfig(load_step=500.0, area_step=3.0,
                                       max_solutions=24))
    for s in pruned_sources:
        ref.add(s)
    ref.prune()
    _ref_buffer(ref, params)
    ref.prune()
    assert _sigs(got) == _sigs(ref.solutions)
