"""Run ``merlin-repro serve --async`` (default flags) in its own process
and read its resource use from ``/proc``."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import List, Optional, Set

from common import ROOT, program_env, use_checkout_sources

use_checkout_sources()

from repro.client import MerlinClient  # noqa: E402

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Longest wait for a starting server to answer ``/v1/healthz``.
STARTUP_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(p) for p in handle.read().split()]
    except OSError:
        return []


def _tree(pid: int) -> List[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        frontier.extend(_children(current))
    return pids


class ServerProcess:
    """One server process: :meth:`start` it, always :meth:`stop` it."""

    def __init__(self) -> None:
        self.port = _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> "ServerProcess":
        """Launch the server and wait until ``/v1/healthz`` answers."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--async",
             "--port", str(self.port)],
            cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        client = MerlinClient(self.url, timeout_s=5.0)
        deadline = started + STARTUP_TIMEOUT_S
        while not client.wait_healthy(timeout_s=0.5, interval_s=0.01):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server did not become healthy")
        return self

    def stop(self) -> None:
        if self.proc is None:
            return
        pids = _tree(self.proc.pid)
        # SIGINT is the server's immediate stop; SIGTERM would drain.
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        for pid in pids[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc = None

    def pin(self, cpus: Set[int]) -> None:
        """Move every thread of the server process tree onto ``cpus``."""
        for pid in _tree(self.proc.pid):
            for tid in os.listdir(f"/proc/{pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), cpus)
                except ProcessLookupError:
                    pass

    def cpu_seconds(self) -> float:
        """User + system CPU seconds of the server process tree."""
        total = 0
        for pid in _tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
        return total / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """Sum of peak resident sizes (VmHWM) over the process tree."""
        total_kb = 0
        for pid in _tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

