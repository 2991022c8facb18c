"""Host-speed probe: scale measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host, whose speed drifts
by up to 2x between seconds and minutes as other tenants come and go.
That drift moves every timing alike, the program's and any other code's,
so :class:`SpeedProbe` measures it while the program runs: a separate
process (this file run as a script) times a fixed pure-Python snippet
(:func:`snippet`, about 1.3 ms) every :data:`PERIOD_S` seconds, using
its own thread CPU time, so time it spends waiting for a core does not
count.  It uses about 6% of one CPU.

:meth:`SpeedProbe.scale` turns a time measured over some windows into
reference seconds: ``seconds * REFERENCE_S / probe``, where ``probe`` is
the median probe time in those windows and :data:`REFERENCE_S` the
probe's time on an unloaded host.  A program that does twice the work
still reports twice the time; a host running at half speed does not.
The probe and the program may run on different cores, which are slowed
unequally over fractions of a second, so the windows should add up to
a few seconds: a median over many short requests is scaled once, by
the probe over all of their windows, not request by request.

    with SpeedProbe() as probe:
        started = time.perf_counter()
        work()
        end = time.perf_counter()
    print(probe.scale(end - started, (started, end)))
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Set, Tuple

#: Probe period.
PERIOD_S = 0.02
#: Median probe time (s) on the 2-vCPU Xeon VM the benchmark was built
#: on, in the host's fast state; reported times are in seconds at this
#: speed.
REFERENCE_S = 0.00125
#: Fewest probe samples a window's median is taken over; shorter
#: windows are widened around their middle.
MIN_SAMPLES = 25

#: Size of the tree the snippet builds and of the list it walks (4 MB
#: of references, more than a core's private cache).
_TREE_NODES = 300
_WALK_ITEMS = 500_000
_WALK_STRIDE = 61


class _Node:
    __slots__ = ("x", "y", "kids", "cost")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y, self.kids, self.cost = x, y, [], 0.0


def _walk(node: _Node) -> float:
    cost = 0.0
    for kid in node.kids:
        cost += _walk(kid) + abs(kid.x - node.x) + abs(kid.y - node.y)
    node.cost = cost
    return cost


def snippet(items: List[float]) -> float:
    """A fixed mix of the interpreter work the program does: build and
    walk a small tree of slotted objects, sort tuples, fill a dict keyed
    by tuples, then walk ``items`` with a stride that misses the cache.
    A bare arithmetic loop tracks the program's speed less well: on
    this host it slows by 1.6x when the program slows by 1.3x."""
    rng = random.Random(1)
    nodes = [_Node(rng.random(), rng.random()) for _ in range(_TREE_NODES)]
    for index in range(1, len(nodes)):
        nodes[(index - 1) // 2].kids.append(nodes[index])
    _walk(nodes[0])
    pairs = sorted(((node.cost, node.x) for node in nodes), reverse=True)
    table = {(round(a, 2), round(b, 2)): a * b for a, b in pairs}
    total = float(len(table))
    for index in range(0, len(items), _WALK_STRIDE):
        total += items[index]
    return total


class SpeedProbe:
    """The probe process, running while the context is open; with
    ``cpu``, pinned to that CPU."""

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._cpu = cpu
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        if self._cpu is not None:
            self.pin({self._cpu})
        # Wait out the probe's own start-up, which would otherwise slow
        # the first thing measured.
        if self._proc.stdout.readline() != b"ready\n":
            self.stop()
            raise RuntimeError("speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def pin(self, cpus: Set[int]) -> None:
        """Move the running probe onto ``cpus``."""
        os.sched_setaffinity(self._proc.pid, cpus)

    def stop(self) -> None:
        """Stop the probe and collect its samples (idempotent)."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("speed probe did not stop")
        self.samples.extend(tuple(s) for s in json.loads(out or b"[]"))
        if proc.returncode != 0:
            raise RuntimeError("speed probe failed")

    def probe_s(self, windows: Sequence[Tuple[float, float]]) -> float:
        """Median probe time over the ``(start, end)`` windows
        (``perf_counter`` readings), widened around their middle to at
        least :data:`MIN_SAMPLES` samples."""
        if len(self.samples) < MIN_SAMPLES:
            raise RuntimeError(f"speed probe took only {len(self.samples)} "
                               "samples")
        inside = [d for t, d in self.samples
                  if any(start <= t <= end for start, end in windows)]
        if len(inside) < MIN_SAMPLES:
            middle = statistics.median(
                (start + end) / 2.0 for start, end in windows)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        return statistics.median(inside)

    def scale(self, seconds: float,
              *windows: Tuple[float, float]) -> float:
        """``seconds`` measured over the ``(start, end)`` windows, in
        reference seconds."""
        return seconds * REFERENCE_S / self.probe_s(windows)

    def describe(self) -> str:
        """One report line: the host's speed over the whole run."""
        everything = sorted(d for _, d in self.samples)
        return (f"host speed: probe median "
                f"{statistics.median(everything) * 1e3:.3f} ms, "
                f"quartiles {everything[len(everything) // 4] * 1e3:.3f}-"
                f"{everything[3 * len(everything) // 4] * 1e3:.3f} ms "
                f"over {len(everything)} samples (reference "
                f"{REFERENCE_S * 1e3:.3f} ms)")

    def span(self, start: float, end: float) -> float:
        """The window ``[start, end]`` itself, in reference seconds."""
        return self.scale(end - start, (start, end))


def main() -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    signal.signal(signal.SIGINT, lambda *_: stopping.append(True))
    samples = []
    parent = os.getppid()
    items = [float(i) for i in range(_WALK_ITEMS)]
    snippet(items)
    print("ready", flush=True)
    # A short run still gets enough samples for one window; an orphaned
    # probe (its benchmark killed) stops by itself.
    while (not stopping or len(samples) < MIN_SAMPLES) \
            and os.getppid() == parent:
        time.sleep(PERIOD_S)
        started = time.thread_time()
        snippet(items)
        samples.append((time.perf_counter(), time.thread_time() - started))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
