"""Shared plumbing: import path, statistics, spans and the result line.

The benchmark times the program only from outside.  Every layer is
entered through its public functions, and :class:`SpanLog` records one
span (name, start, end, parent, request id) around each such call; the
spans stay in memory until :meth:`SpanLog.write` at the end of a run.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write their span files (git-ignored).
OUT_DIR = os.path.join(BENCH_DIR, "out")


def use_checkout_sources() -> None:
    """Import ``repro`` from the checkout's ``src/`` (nothing is
    installed); fail loudly when the checkout has no sources."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for a child process running the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # A fixed hash seed keeps the server's set and dict layouts, and so
    # its timings, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics ---------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def check(condition: bool, failures: List[str], message: str) -> bool:
    """Record ``message`` as a failed correctness check when
    ``condition`` is false; returns ``condition``."""
    if not condition:
        failures.append(message)
    return condition


# -- spans ---------------------------------------------------------------

class SpanLog:
    """In-memory span recorder for the traced run.

    ``span(name, request_id)`` nests: a span opened inside another gets
    it as parent.  Self time is a span's duration minus the time its
    children cover.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None
             ) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": request_id, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            request_id: Optional[str] = None,
            parent: Optional[int] = None) -> int:
        """Record a span measured elsewhere (``start``/``end`` are
        ``time.perf_counter`` readings) as a child of ``parent`` (default:
        the open span); returns its id."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append({
            "id": len(self.spans), "name": name, "parent": parent,
            "request_id": request_id,
            "start": start - self._origin, "end": end - self._origin})
        return len(self.spans) - 1

    def child(self, parent: Dict[str, Any], name: str, seconds: float,
              request_id: Optional[str] = None) -> None:
        """Record ``seconds`` spent in the layer below ``parent`` as its
        child span, placed at the parent's start."""
        self.spans.append({
            "id": len(self.spans), "name": name, "parent": parent["id"],
            "request_id": request_id, "start": parent["start"],
            "end": parent["start"] + seconds})

    def self_times(self) -> Dict[str, float]:
        """Total self time (s) per span name."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = children.get(span["parent"], 0.0) \
                    + span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - children.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def totals(self) -> Dict[str, float]:
        """Total duration (s) per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) \
                + span["end"] - span["start"]
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)
            handle.write("\n")


# -- output --------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    """The single JSON line the benchmark ends its output with."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })
