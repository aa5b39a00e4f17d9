"""Execution layer: sharded sweeps, process pools, a persistent cache.

The paper's capex-dominance argument only becomes visible when many
hardware/provisioning/lifetime scenarios are swept at once, so the
reproduction's value scales with scenario throughput. This package
makes every batched kernel scale past one core and one memory chunk —
and keeps long runs alive when workers raise, crash, or hang:

* :class:`ShardPlan` — deterministic chunking of a sweep's scenario
  axis; peak kernel memory is bounded by ``chunk_size`` scenarios.
* :func:`run_sharded` — runs a module-level chunk kernel over every
  shard, inline (``jobs=1``) or across a ``ProcessPoolExecutor``, with
  an in-order streaming reduction. Per-scenario seeded RNG streams
  make sharded runs bit-identical to monolithic ones
  (``tests/test_sharded_equivalence.py``).
* :class:`RetryPolicy` / ``timeout`` / ``skip`` — fault-tolerant
  execution: failed, crashed, hung, or corrupt chunks are retried with
  deterministic seeded backoff; exhausted chunks raise a structured
  :class:`~repro.errors.ChunkFailedError` or, given a caller-owned
  :class:`FailureReport` as ``skip``, degrade to partial results and
  land in that report.
* :class:`CheckpointStore` — chunk-level checkpoints layered on the
  result cache, keyed by (spec digest, shard range), so interrupted
  sweeps resume bit-identically via ``repro sweep --resume``.
* :class:`FaultSpec` — deterministic fault injection (env var
  ``REPRO_FAULTS`` or API) for exercising every recovery path in CI
  without flaky timing.
* :class:`ResultCache` — a content-addressed on-disk cache (keyed by
  the ``repro`` source fingerprint plus the sweep/experiment spec)
  shared by ``repro run`` and ``repro sweep`` across processes, so
  repeated CLI invocations warm-start. Per-instance
  :class:`CacheStats` count hits/misses/corrupt entries/writes, and
  corrupt entries raise a one-line ``RuntimeWarning``.

The whole layer is instrumented for :mod:`repro.obs`: when a recorder
is installed, sharded runs emit ``sharded_run``/``wave`` spans plus
per-attempt, retry, cache, and pool events (workers ship chunk timing
and peak RSS back inside the result envelopes), and
:func:`predict_outcomes` turns a :class:`FaultSpec` into the exact
attempt-outcome sequences a traced run must reproduce.

The sweep runners in :mod:`repro.scenarios`, :mod:`repro.uncertainty`,
:mod:`repro.portfolio` and :mod:`repro.traces`, and the experiment
registry's ``run_all``, all take the :class:`ExecOptions` knobs as
``**options`` and pass them to :func:`run_sharded` untouched, and
return the same type whatever the failure mode. The CLI surfaces the
knobs as ``repro sweep NAME --jobs N --retries R --timeout S
--on-error skip --resume`` and ``repro run all --jobs N --retries R
--timeout S --on-error skip``.
"""

from .cache import (
    CACHE_FORMAT_VERSION,
    CacheStats,
    ResultCache,
    cache_key,
    default_cache_dir,
    package_fingerprint,
)
from .checkpoint import CheckpointStore
from .faults import (
    FaultRule,
    FaultSpec,
    InjectedFault,
    active_fault_spec,
    install_faults,
    predict_outcomes,
)
from .options import ExecOptions
from .plan import Shard, ShardPlan
from .retry import ChunkFailure, FailureReport, RetryPolicy
from .runner import kernel_name, resolve_kernel, run_sharded

__all__ = [
    "ExecOptions",
    "Shard",
    "ShardPlan",
    "kernel_name",
    "resolve_kernel",
    "run_sharded",
    "RetryPolicy",
    "ChunkFailure",
    "FailureReport",
    "CheckpointStore",
    "FaultRule",
    "FaultSpec",
    "InjectedFault",
    "active_fault_spec",
    "install_faults",
    "predict_outcomes",
    "ResultCache",
    "CacheStats",
    "cache_key",
    "default_cache_dir",
    "package_fingerprint",
    "CACHE_FORMAT_VERSION",
]
