"""Memory guard for the numpy curve kernel, the one that is served.

The numpy kernel defers building :class:`Solution` objects while a range
generates and culls candidates, and builds its survivors when the range
is frozen.  Two things must hold after a solve of a pinned 4-sink net on
the served ``fast`` preset:

* every frozen block kept in the cross-iteration memos is a plain list
  of built solutions — no pending entry, traceback context or candidate
  stream outlives its range;
* the solve's traced peak memory stays within 10% of the python
  kernel's on the same net.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.bubble_construct import bubble_construct, make_context
from repro.core.config import MerlinConfig
from repro.curves import kernels
from repro.curves.solution import Buffered, Extend, Join, SinkLeaf, Solution
from repro.geometry.point import Point
from repro.orders.order import Order
from repro.tech.technology import default_technology
from tests.conftest import build_net

pytest.importorskip("numpy")

#: Small enough to solve in well under a second untraced.
NET = build_net(4, seed=2, box=200.0)
TECH = default_technology()


def _solve(backend: str):
    config = MerlinConfig.fast_preset().with_(backend=backend)
    context = make_context(NET, TECH, config)
    bubble_construct(NET, Order.from_sequence(range(len(NET))), TECH,
                     config, context=context)
    return context


def _traced_peak(backend: str) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        _solve(backend)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frozen_blocks_hold_built_solutions_only():
    context = _solve("numpy")
    assert context.kernel.name == "numpy"
    blocks = [block
              for memo in (context.range_memo, context.gamma_memo)
              for cell in memo.values() for block in cell]
    assert any(blocks)
    stack = []
    for block in blocks:
        assert type(block) is kernels.CurveSoA
        # A block references its solutions and nothing else: no entry
        # tuples, no cached columns.
        held = [r for r in gc.get_referents(block)
                if not isinstance(r, type)]
        assert all(type(r) is Solution for r in held)
        stack.extend(block)
    # Nor does any solution reachable from a block reference pending
    # state: every field is a plain value or another built solution.
    seen = set()
    while stack:
        sol = stack.pop()
        if id(sol) in seen:
            continue
        seen.add(id(sol))
        assert type(sol.root) is Point
        assert all(type(x) is float
                   for x in (sol.load, sol.required_time, sol.area))
        detail = sol.detail
        assert type(detail) in (SinkLeaf, Extend, Join, Buffered)
        for name in ("child", "left", "right"):
            child = getattr(detail, name, None)
            if child is not None:
                assert type(child) is Solution
                stack.append(child)


def test_numpy_peak_memory_stays_within_ten_percent_of_python():
    _solve("numpy")  # NumPy builds some internals on first use
    python_peak = _traced_peak("python")
    numpy_peak = _traced_peak("numpy")
    assert numpy_peak <= 1.1 * python_peak, (numpy_peak, python_peak)
