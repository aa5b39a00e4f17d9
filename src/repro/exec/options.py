"""Execution options: the knobs every sharded runner accepts, in one place.

Every sweep runner takes the same six keywords — ``jobs``,
``chunk_size``, ``retries``, ``timeout``, ``skip`` and
``checkpoint`` — and passes them through untouched as ``**options``.
:func:`repro.exec.run_sharded` builds one :class:`ExecOptions` from
them, so the rules (and their error messages) live here once, and a
misspelt knob is a ``TypeError`` from the dataclass constructor.

A run returns the same type whatever the failure mode: skip mode is
turned on by passing a caller-owned :class:`FailureReport` as
``skip``, which the run fills with the chunks it skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ExecutionError
from .retry import FailureReport, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .checkpoint import CheckpointStore

__all__ = ["ExecOptions"]


@dataclass(frozen=True)
class ExecOptions:
    """How a sharded sweep runs, validated once at construction.

    - ``jobs`` — worker processes; ``1`` runs every chunk inline.
    - ``chunk_size`` — scenarios per chunk (the memory bound); ``None``
      keeps the axis whole at ``jobs=1`` and makes one chunk per job
      otherwise (see :meth:`repro.exec.ShardPlan.plan`).
    - ``retries`` — a :class:`~repro.exec.retry.RetryPolicy`, an int
      (retries after the first attempt), or ``None``; stored coerced to
      a policy.
    - ``timeout`` — per-chunk wall-clock seconds; needs ``jobs > 1``
      because inline chunks run on the calling thread and cannot be
      cancelled.
    - ``skip`` — ``None`` raises on an exhausted chunk; a
      :class:`~repro.exec.retry.FailureReport` keeps the partial
      result and collects the skipped chunks in that report.
    - ``checkpoint`` — a :class:`~repro.exec.checkpoint.CheckpointStore`
      persisting finished chunks for resumable runs.
    """

    jobs: int = 1
    chunk_size: "int | None" = None
    retries: "RetryPolicy | int | None" = None
    timeout: "float | None" = None
    skip: "FailureReport | None" = None
    checkpoint: "CheckpointStore | None" = None

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ExecutionError(f"job count must be positive, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ExecutionError(
                f"chunk size must be positive, got {self.chunk_size}"
            )
        object.__setattr__(self, "retries", RetryPolicy.coerce(self.retries))
        if self.timeout is not None:
            if not self.timeout > 0 or not math.isfinite(self.timeout):
                raise ExecutionError(
                    "per-chunk timeout must be positive and finite, got "
                    f"{self.timeout}"
                )
            if self.jobs == 1:
                raise ExecutionError(
                    "a per-chunk timeout needs jobs > 1: inline chunks run on "
                    "the calling thread and cannot be cancelled"
                )
        if self.skip is not None and not isinstance(self.skip, FailureReport):
            raise ExecutionError(
                f"skip must be a FailureReport or None, got {self.skip!r}"
            )
