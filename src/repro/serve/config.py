"""Service configuration: one frozen dataclass, CLI-shaped defaults.

Every tunable of the sweep service lives here so the CLI, the tests,
and the load generator construct services the same way. The defaults
describe a small single-host deployment: a bounded queue deep enough
to absorb bursts, micro-batches wide enough to amortize kernel
dispatch, and a short coalescing window — an upper bound, closed
early once no open connection can join — that trades at most a few
milliseconds of latency for order-of-magnitude throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import ExecutionError, ServiceError
from ..exec import ExecOptions

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`~repro.serve.service.SweepService`.

    ``max_queue`` bounds admission (beyond it requests are shed with a
    structured 429 — memory never grows with offered load), ``max_batch``
    caps how many queued requests coalesce into one kernel call, and
    ``batch_window_s`` is the longest the dispatcher lingers after the
    first request of a batch so concurrent arrivals can join it. The
    window closes early once the batch cannot grow: every open
    connection already waits on an admitted request, the front group
    holds ``max_batch`` requests, or a drain begins.
    ``coalesce=False`` forces ``max_batch=1`` semantics — the
    benchmark baseline. ``jobs``/``chunk_size``/``retries``/
    ``timeout_s`` forward to the sharded runners exactly like the
    ``repro sweep`` flags and are validated by
    :class:`repro.exec.ExecOptions` at construction; ``timeout_s`` (and
    per-request deadlines) only reach :func:`repro.exec.run_sharded`
    when ``jobs > 1``, because inline chunks cannot be cancelled.
    ``cache_dir`` arms the shared :class:`~repro.exec.cache.ResultCache`
    for sweep requests (``None`` disables caching). The breaker fields
    shape the
    :class:`~repro.serve.breaker.CircuitBreaker`; ``drain_grace_s``
    bounds how long a SIGTERM drain waits for in-flight work.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_queue: int = 1024
    max_batch: int = 1024
    batch_window_s: float = 0.005
    coalesce: bool = True
    jobs: int = 1
    chunk_size: "int | None" = None
    retries: int = 0
    timeout_s: "float | None" = None
    cache_dir: "Path | str | None" = None
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    drain_grace_s: float = 30.0
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.max_queue <= 0:
            raise ServiceError(
                f"admission queue must hold at least one request, got "
                f"{self.max_queue}"
            )
        if self.max_batch <= 0:
            raise ServiceError(
                f"batch width must be positive, got {self.max_batch}"
            )
        if self.batch_window_s < 0:
            raise ServiceError(
                f"batch window must be >= 0 seconds, got {self.batch_window_s}"
            )
        try:
            ExecOptions(
                jobs=self.jobs, chunk_size=self.chunk_size, retries=self.retries
            )
            if self.timeout_s is not None:
                # Checked as the pooled timeout it becomes: it only
                # reaches run_sharded when jobs > 1.
                ExecOptions(jobs=2, timeout=self.timeout_s)
        except ExecutionError as error:
            raise ServiceError(f"invalid execution settings: {error}") from error
        if self.breaker_threshold <= 0:
            raise ServiceError(
                f"breaker threshold must be positive, got "
                f"{self.breaker_threshold}"
            )
        if self.drain_grace_s < 0:
            raise ServiceError(
                f"drain grace must be >= 0 seconds, got {self.drain_grace_s}"
            )

    @property
    def effective_max_batch(self) -> int:
        """The batch-width cap actually applied (1 when coalescing is off)."""
        return self.max_batch if self.coalesce else 1

    @property
    def effective_window_s(self) -> float:
        """The coalescing window actually applied (0 when coalescing is off)."""
        return self.batch_window_s if self.coalesce else 0.0
