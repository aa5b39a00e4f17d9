"""Retry policies and failure reports for fault-tolerant sharded runs.

A long sweep over a process pool meets three kinds of trouble: chunk
kernels that raise (bad data, injected faults), workers that die (OOM
kills, segfaults — surfacing as a broken pool), and workers that hang
(deadlocks, runaway inputs — surfacing as a per-chunk timeout).
:class:`RetryPolicy` decides how many times a chunk is re-attempted
and how long to back off between attempts; the backoff jitter is drawn
from a seeded :func:`numpy.random.default_rng` stream keyed by
``(seed, stream, attempt)``, so two runs of the same failing sweep
sleep the same schedule — no wall-clock randomness anywhere.

When a chunk exhausts its budget in skip mode, the run degrades to a
partial result and records the shard in the caller's
:class:`FailureReport`: a machine-readable record naming every skipped
shard, its attempt count, and the failure kind, so a caller (or the
``repro sweep`` CLI) can requeue exactly the missing scenario ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ExecutionError

__all__ = ["RetryPolicy", "ChunkFailure", "FailureReport"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a chunk gets and how retries back off.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    run plus two retries. The delay before retry ``n`` (1-based) is
    ``base_delay * multiplier**(n-1)`` scaled by a deterministic jitter
    factor in ``[1-jitter, 1+jitter]`` and clamped to ``max_delay``.
    Jitter comes from a seeded RNG stream keyed by the failing chunk
    and attempt number — never from the wall clock — so retry
    schedules are reproducible run to run.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.5
    max_delay: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError(
                f"retry policy needs max_attempts >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0.0:
            raise ExecutionError(
                f"base delay must be non-negative, got {self.base_delay}"
            )
        if self.multiplier < 1.0:
            raise ExecutionError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ExecutionError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )
        if self.max_delay < 0.0:
            raise ExecutionError(
                f"max delay must be non-negative, got {self.max_delay}"
            )

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The no-retry policy: one attempt, zero backoff."""
        return cls(max_attempts=1, base_delay=0.0)

    @classmethod
    def coerce(cls, value: "RetryPolicy | int | None") -> "RetryPolicy":
        """Normalize a ``retries=`` argument into a policy.

        ``None`` means no retries; an integer ``n`` means ``n`` retries
        after the first attempt (``max_attempts = n + 1``) with the
        default backoff; a :class:`RetryPolicy` passes through.
        """
        if value is None:
            return cls.none()
        if isinstance(value, RetryPolicy):
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise ExecutionError(
                f"retries must be a RetryPolicy, an int, or None, got {value!r}"
            )
        if value < 0:
            raise ExecutionError(f"retry count must be >= 0, got {value}")
        if value == 0:
            return cls.none()
        return cls(max_attempts=value + 1)

    def delay(self, stream: int, attempt: int) -> float:
        """Seconds to back off before retry ``attempt`` (1-based).

        ``stream`` identifies the failing chunk (its shard start), so
        different chunks jitter independently; the same ``(seed,
        stream, attempt)`` triple always yields the same delay.
        """
        if attempt < 1:
            raise ExecutionError(f"attempt must be >= 1, got {attempt}")
        if self.base_delay == 0.0:
            return 0.0
        base = self.base_delay * self.multiplier ** (attempt - 1)
        rng = np.random.default_rng((self.seed, stream, attempt))
        factor = 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return min(max(base * factor, 0.0), self.max_delay)


@dataclass(frozen=True)
class ChunkFailure:
    """One chunk that exhausted its retry budget.

    ``kind`` classifies the final failure: ``"error"`` (the kernel
    raised), ``"timeout"`` (the chunk ran past the per-chunk timeout),
    ``"crash"`` (its worker process died), or ``"corrupt"`` (its
    result failed the integrity check). ``error`` is the ``repr`` of
    the last exception observed.
    """

    index: int
    start: int
    stop: int
    attempts: int
    kind: str
    error: str

    @property
    def size(self) -> int:
        """Number of scenarios the failed shard covered."""
        return self.stop - self.start

    def to_dict(self) -> dict[str, Any]:
        """The failure as a plain JSON-serializable mapping."""
        return {
            "index": self.index,
            "start": self.start,
            "stop": self.stop,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }


@dataclass
class FailureReport:
    """Machine-readable account of the shards a sweep skipped.

    The caller owns it: passing one as ``skip=`` turns on skip mode,
    and every run given it appends its skipped chunks to ``failures``
    and its chunk count to ``num_chunks``. Truthiness mirrors "did
    anything fail": an empty report is falsy, so ``report =
    FailureReport(); run_sharded(..., skip=report); if report: ...``
    reads naturally.
    """

    failures: list[ChunkFailure] = field(default_factory=list)
    num_chunks: int = 0

    def __bool__(self) -> bool:
        return bool(self.failures)

    @property
    def num_failed(self) -> int:
        """How many chunks were skipped."""
        return len(self.failures)

    @property
    def num_completed(self) -> int:
        """How many chunks produced results."""
        return self.num_chunks - len(self.failures)

    def shard_ranges(self) -> list[tuple[int, int]]:
        """The skipped ``(start, stop)`` scenario ranges, in shard order."""
        return [(failure.start, failure.stop) for failure in self.failures]

    def skipped_scenarios(self) -> int:
        """Total number of scenarios missing from the partial result."""
        return sum(failure.size for failure in self.failures)

    def to_dict(self) -> dict[str, Any]:
        """The report as a plain JSON-serializable mapping."""
        return {
            "num_chunks": self.num_chunks,
            "num_failed": self.num_failed,
            "skipped_scenarios": self.skipped_scenarios(),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def summary(self) -> str:
        """A one-line human-readable account of the damage."""
        if not self.failures:
            return f"all {self.num_chunks} chunks completed"
        ranges = ", ".join(
            f"[{start}, {stop})" for start, stop in self.shard_ranges()
        )
        return (
            f"{self.num_failed} of {self.num_chunks} chunks failed "
            f"({self.skipped_scenarios()} scenarios skipped: {ranges})"
        )
