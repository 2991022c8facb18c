""":class:`MerlinClient` — the typed v1 API client (stdlib only).

Retry semantics: a request is retried only when retrying can plausibly
change the answer — HTTP **429** (queue full; the server names a
``Retry-After``) , **503** (transient resource exhaustion), and
transport-level failures (connection refused/reset while a server
restarts).  Input errors (4xx other than 429) and internal errors (500)
are *not* retried: the same request would fail the same way, and
hammering a broken server helps nobody.

Backoff between attempts is exponential with full jitter, drawn from a
**seeded** ``random.Random`` (the repo-wide determinism rule: replayed
load runs sleep the same schedule).  A server-provided ``Retry-After``
floors the computed delay — the server knows its queue better than the
client's guess.

Hedging (off by default; pass a :class:`HedgePolicy`): for idempotent
requests — ``GET``\\ s and ``POST /v1/optimize``, whose answer is a
deterministic, cache-backed function of the body — the client fires a
*second* identical attempt when the first has been in flight longer
than the observed p95 latency (seeded initial guess until enough
samples accumulate), and takes whichever answer lands first.  A hedge
budget caps extra load at a fraction of eligible traffic, so tail
trimming cannot double the fleet's work.
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Mapping, Optional, Tuple, \
    Union

from repro.net import Net, net_to_dict
from repro.resilience.errors import (
    ErrorRecord,
    MerlinError,
    MerlinResourceError,
    error_from_record,
)

#: Statuses worth retrying (see module docstring).
RETRYABLE_STATUSES = (429, 503)


class ClientTransportError(MerlinResourceError):
    """The server could not be reached (or retries ran out trying)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded jittered exponential backoff.

    ``sleep`` is injectable so tests assert the schedule without
    actually sleeping.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    seed: int = 1999
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def delay_s(self, attempt: int, rng: random.Random,
                retry_after_s: Optional[float] = None) -> float:
        """Delay before retry number ``attempt`` (1-based): full-jitter
        exponential backoff, floored by the server's ``Retry-After``."""
        ceiling = min(self.max_delay_s,
                      self.base_delay_s * (2 ** (attempt - 1)))
        delay = rng.uniform(0.0, ceiling)
        if retry_after_s is not None:
            delay = max(delay, retry_after_s)
        return delay


@dataclass(frozen=True)
class HedgePolicy:
    """When and how aggressively to hedge idempotent requests.

    The hedge fires after the rolling ``percentile`` latency of past
    successes (``delay_s`` until ``min_samples`` have been observed).
    ``budget_fraction`` bounds issued hedges as a fraction of
    hedge-eligible requests — the classic tail-at-scale guard against a
    slow server turning every request into two.
    """

    #: Hedge delay before enough latency samples exist (seconds).
    delay_s: float = 0.05
    #: Latency percentile that arms the hedge once samples accumulate.
    percentile: float = 0.95
    #: Samples required before the percentile replaces ``delay_s``.
    min_samples: int = 8
    #: Rolling latency-sample window.
    window: int = 64
    #: Max fraction of eligible requests that may grow a hedge.
    budget_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.delay_s <= 0.0:
            raise ValueError("delay_s must be positive")
        if not 0.0 < self.percentile < 1.0:
            raise ValueError("percentile must be in (0, 1)")
        if self.min_samples < 1 or self.window < self.min_samples:
            raise ValueError("need 1 <= min_samples <= window")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")


@dataclass
class ClientResponse:
    """One decoded v1 response."""

    status: int
    body: Dict[str, Any]
    headers: Dict[str, str]
    #: Retries performed before this answer arrived (0 = first try).
    retries: int = 0

    @property
    def result(self) -> Optional[Dict[str, Any]]:
        return self.body.get("result")

    @property
    def error(self) -> Optional[Dict[str, Any]]:
        return self.body.get("error")

    @property
    def request_id(self) -> Optional[str]:
        return self.body.get("request_id")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.error is None

    def error_record(self) -> Optional[ErrorRecord]:
        """The structured failure, rebuilt from the envelope's error."""
        error = self.body.get("error")
        if isinstance(error, dict) and isinstance(error.get("detail"), dict):
            return ErrorRecord.from_dict(error["detail"])
        return None

    def raise_for_error(self) -> None:
        """Raise the typed taxonomy error this response carries, if any."""
        if self.ok:
            return
        record = self.error_record()
        if record is not None:
            raise error_from_record(record)
        raise MerlinError(f"HTTP {self.status}: {self.body!r}",
                          stage="client")


class MerlinClient:
    """Talk v1 to a MERLIN front end at ``base_url``.

    The client is stateless apart from its RNG, so one instance may be
    shared across threads for *distinct* requests; the load harness
    gives each worker its own (seeded) client so replayed schedules
    stay per-worker deterministic.
    """

    def __init__(self, base_url: str,
                 timeout_s: float = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 hedge: Optional[HedgePolicy] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.hedge = hedge
        self._rng = random.Random(self.retry.seed)
        self._hedge_lock = threading.Lock()
        self._latencies: Deque[float] = deque(
            maxlen=hedge.window if hedge is not None else 64)
        self._hedge_eligible = 0
        self._hedge_issued = 0
        self._hedge_wins = 0

    # -- endpoint methods ----------------------------------------------

    def optimize(self, net: Union[Net, Mapping[str, Any]],
                 timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """Optimize one net; returns the result payload (tree, signature,
        evaluation, ``cached``) or raises the typed taxonomy error."""
        payload: Dict[str, Any] = {
            "net": net_to_dict(net) if isinstance(net, Net) else dict(net)}
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        response = self.request("POST", "/v1/optimize", payload)
        response.raise_for_error()
        assert response.result is not None
        return response.result

    def closure(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Run full-netlist timing closure; returns the closure report."""
        response = self.request("POST", "/v1/closure", dict(body))
        response.raise_for_error()
        assert response.result is not None
        return response.result

    def stats(self) -> Dict[str, Any]:
        response = self.request("GET", "/v1/stats")
        response.raise_for_error()
        assert response.result is not None
        return response.result

    def healthz(self) -> bool:
        try:
            response = self.request("GET", "/v1/healthz")
        except MerlinError:
            return False
        return response.ok

    def wait_healthy(self, timeout_s: float = 10.0,
                     interval_s: float = 0.05) -> bool:
        """Poll ``/v1/healthz`` until it answers ok or ``timeout_s``
        passes (servers bind asynchronously in tests and CI)."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if self._request_once("GET", "/v1/healthz").ok:
                    return True
            except (ClientTransportError, MerlinError):
                pass
            if time.monotonic() >= deadline:
                return False
            self.retry.sleep(interval_s)

    # -- transport ------------------------------------------------------

    def request(self, method: str, path: str,
                payload: Optional[Mapping[str, Any]] = None
                ) -> ClientResponse:
        """One logical request, with the retry policy applied."""
        attempts = max(1, self.retry.max_attempts)
        last: Optional[ClientResponse] = None
        last_exc: Optional[Exception] = None
        for attempt in range(1, attempts + 1):
            try:
                response = self._attempt(method, path, payload)
            except ClientTransportError as exc:
                last, last_exc = None, exc
                if attempt < attempts:
                    self.retry.sleep(self.retry.delay_s(attempt, self._rng))
                continue
            if response.status not in RETRYABLE_STATUSES:
                response.retries = attempt - 1
                return response
            last, last_exc = response, None
            if attempt < attempts:
                retry_after = _parse_retry_after(response.headers)
                self.retry.sleep(
                    self.retry.delay_s(attempt, self._rng, retry_after))
        if last is not None:
            last.retries = attempts - 1
            return last
        raise ClientTransportError(
            f"{method} {self.base_url}{path} failed after {attempts} "
            f"attempts: {last_exc}", stage="client")

    # -- hedging --------------------------------------------------------

    def hedge_delay_s(self) -> float:
        """The current hedge trigger: the policy's rolling-percentile
        latency once enough samples exist, its fixed guess before."""
        assert self.hedge is not None
        with self._hedge_lock:
            samples = sorted(self._latencies)
        if len(samples) < self.hedge.min_samples:
            return self.hedge.delay_s
        rank = int(self.hedge.percentile * (len(samples) - 1))
        return samples[rank]

    def hedge_stats(self) -> Dict[str, Any]:
        """Hedge accounting for the load harness and tests."""
        with self._hedge_lock:
            return {
                "enabled": self.hedge is not None,
                "eligible": self._hedge_eligible,
                "issued": self._hedge_issued,
                "wins": self._hedge_wins,
                "latency_samples": len(self._latencies),
            }

    def _hedgeable(self, method: str, path: str) -> bool:
        """Only idempotent work is hedged: GETs, and ``/v1/optimize``
        whose answer is a deterministic function of the body (the
        engine is seeded and cache-backed, so a duplicate is free on
        the server and identical on the wire)."""
        if self.hedge is None:
            return False
        return method == "GET" or path == "/v1/optimize"

    def _hedge_budget_ok(self) -> bool:
        """Issued hedges must stay under ``budget_fraction`` of the
        eligible traffic (with a one-hedge floor so the budget is not
        permanently zero at startup).  Caller holds the lock."""
        assert self.hedge is not None
        cap = max(1.0, self.hedge.budget_fraction * self._hedge_eligible)
        return self._hedge_issued < cap

    def _attempt(self, method: str, path: str,
                 payload: Optional[Mapping[str, Any]] = None
                 ) -> ClientResponse:
        """One attempt of the retry loop: plain, or raced with a hedge."""
        if not self._hedgeable(method, path):
            return self._request_once(method, path, payload)
        with self._hedge_lock:
            self._hedge_eligible += 1
            may_hedge = self._hedge_budget_ok()

        started = time.monotonic()
        outcomes: "queue.Queue[Tuple[str, Optional[ClientResponse], " \
            "Optional[Exception]]]" = queue.Queue()

        def run(which: str) -> None:
            try:
                outcomes.put((which,
                              self._request_once(method, path, payload),
                              None))
            except Exception as exc:  # first-wins needs both outcomes
                outcomes.put((which, None, exc))

        threading.Thread(target=run, args=("primary",),
                         name="merlin-client-primary", daemon=True).start()
        racers = 1
        if may_hedge:
            try:
                which, response, exc = outcomes.get(
                    timeout=self.hedge_delay_s())
            except queue.Empty:
                with self._hedge_lock:
                    self._hedge_issued += 1
                threading.Thread(target=run, args=("hedge",),
                                 name="merlin-client-hedge",
                                 daemon=True).start()
                racers = 2
                which, response, exc = outcomes.get()
        else:
            which, response, exc = outcomes.get()
        if response is None and racers == 2:
            # First finisher failed; the straggler may still answer.
            which, response, second_exc = outcomes.get()
            exc = exc if response is None else None
        if response is None:
            assert exc is not None
            raise exc
        with self._hedge_lock:
            self._latencies.append(time.monotonic() - started)
            if which == "hedge":
                self._hedge_wins += 1
        return response

    def _request_once(self, method: str, path: str,
                      payload: Optional[Mapping[str, Any]] = None
                      ) -> ClientResponse:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as raw:
                return _decode(raw.status, raw.read(), raw.headers)
        except urllib.error.HTTPError as exc:
            # Non-2xx still carries a JSON envelope — decode, don't raise.
            return _decode(exc.code, exc.read(), exc.headers)
        except (urllib.error.URLError, ConnectionError, TimeoutError,
                OSError) as exc:
            raise ClientTransportError(
                f"{method} {url}: {exc}", stage="client")


def _decode(status: int, blob: bytes, headers: Any) -> ClientResponse:
    try:
        body = json.loads(blob) if blob else {}
    except json.JSONDecodeError:
        body = {"raw": blob.decode("utf-8", "replace")}
    if not isinstance(body, dict):
        body = {"raw": body}
    return ClientResponse(status=status, body=body,
                          headers={k: v for k, v in headers.items()})


def _parse_retry_after(headers: Mapping[str, str]) -> Optional[float]:
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return float(value)
            except ValueError:
                return None
    return None
