"""A circuit breaker around the execution stack's failure modes.

A long-lived service must not hammer a process pool that is actively
dying: repeated :class:`BrokenProcessPool` rebuilds and exhausted-chunk
retries burn latency budget batch after batch. The breaker watches for
those *infrastructure* failures (a request asking for an unknown sweep
is not one) and, after ``failure_threshold`` consecutive trips, opens:
execution switches to the degraded path (inline, skip mode)
without attempting the primary one. After ``reset_timeout_s`` the
breaker half-opens and admits a single probe batch; one success closes
it, one failure re-opens it.

The clock is injectable so tests drive state transitions
deterministically — the default is :func:`time.monotonic`.
"""

from __future__ import annotations

import concurrent.futures.process
import threading
import time
from typing import Any, Callable

from ..errors import ChunkFailedError, CorruptChunkError

__all__ = ["CircuitBreaker", "is_infrastructure_error"]

#: Failure classes that indicate the execution substrate — not the
#: request — is unhealthy, and therefore count against the breaker.
_TRIP_TYPES = (
    concurrent.futures.process.BrokenProcessPool,
    concurrent.futures.BrokenExecutor,
    ChunkFailedError,
    CorruptChunkError,
)


def is_infrastructure_error(error: BaseException) -> bool:
    """Whether ``error`` should count against the circuit breaker.

    Pool breakage, exhausted chunk retries, and integrity failures
    qualify; request-shaped errors (unknown sweeps, invalid overrides)
    do not — shedding healthy traffic because a client sent garbage
    would invert the breaker's purpose.
    """
    return isinstance(error, _TRIP_TYPES)


class CircuitBreaker:
    """Consecutive-failure breaker: closed → open → half-open → closed.

    Thread-safe; the batch dispatcher consults :meth:`allow` before
    each primary execution and reports the outcome through
    :meth:`record_success` / :meth:`record_failure`.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._threshold = failure_threshold
        self._reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (after probe admission)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the next batch may attempt the primary path.

        While open, returns ``False`` until ``reset_timeout_s`` has
        elapsed; the first call after that transitions to half-open
        and admits exactly one probe.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self._reset_timeout_s:
                    self._state = "half_open"
                    return True
                return False
            # Half-open: one probe is already in flight; further
            # batches stay on the degraded path until it reports.
            return False

    def record_success(self) -> None:
        """A primary execution succeeded: close and reset the count."""
        with self._lock:
            self._state = "closed"
            self._failures = 0

    def record_failure(self) -> None:
        """A primary execution hit an infrastructure failure."""
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or self._failures >= self._threshold:
                if self._state != "open":
                    self._trips += 1
                self._state = "open"
                self._opened_at = self._clock()

    def snapshot(self) -> dict[str, Any]:
        """The breaker's state as a JSON-ready dict (for ``/healthz``)."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "failure_threshold": self._threshold,
                "trips": self._trips,
                "reset_timeout_s": self._reset_timeout_s,
            }
