"""The sharded sweep driver: chunked kernels, inline or over a pool.

:func:`run_sharded` runs one *chunk kernel* over every shard of a
:class:`~repro.exec.plan.ShardPlan` and reduces the ordered chunk
results. A chunk kernel is a **module-level** function with the
signature ``kernel(payload, start, stop) -> chunk_result``: it slices
the shared payload (scenario records, base parameters, trace lists) to
``[start, stop)`` and makes one batched kernel call for that chunk.

Parallel execution uses a :class:`~concurrent.futures.ProcessPoolExecutor`
whose workers are initialized *once* with the kernel's dotted name and
the pickled payload; per-chunk task messages are then just ``(start,
stop, attempt)`` index triples, so a thousand-chunk sweep does not
re-ship the scenario records a thousand times. Kernels are addressed
by ``"module:function"`` name — resolved by import inside the worker —
which keeps the driver picklable under every start method (fork,
forkserver, spawn).

``jobs=1`` runs the same chunks inline with no pool, which is both the
zero-dependency fallback and the memory-bounding mode: intermediate
(scenarios × draws × years) kernel arrays never exceed ``chunk_size``
scenarios, whatever the grid size.

The pool path is fault tolerant. Work proceeds in *waves*: each wave
owns a fresh pool, submits every not-yet-finished chunk, and polls
with a short :func:`concurrent.futures.wait` so the driver can notice
three distinct failure modes — a chunk that raises (a normal failed
future), a worker that dies (the pool breaks; only chunks observed
running are charged an attempt, the rest resubmit uncharged), and a
chunk that hangs (its wall-clock runtime exceeds the per-chunk
``timeout``; running futures cannot be cancelled, so the whole pool is
abandoned — queued work cancelled, workers terminated — and the next
wave takes over). Results cross the process boundary in an integrity
envelope (sha256 over the worker-pickled bytes), so a corrupt result
is detected and charged as a failed attempt instead of silently
combined. Retries follow a :class:`~repro.exec.retry.RetryPolicy`
with deterministic seeded backoff; exhausted chunks raise a structured
:class:`~repro.errors.ChunkFailedError` or, in skip mode, degrade to
a partial result whose skipped chunks land in the caller's
:class:`~repro.exec.retry.FailureReport`. A
:class:`~repro.exec.checkpoint.CheckpointStore` persists each finished
chunk so an interrupted sweep resumes bit-identically.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import importlib
import pickle
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import ChunkFailedError, CorruptChunkError, ExecutionError
from ..obs.recorder import active_recorder
from .faults import FaultSpec, active_fault_spec, corrupt_bytes, perform_fault
from .heap import apply_heap_policy
from .options import ExecOptions
from .plan import Shard, ShardPlan
from .retry import ChunkFailure, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .checkpoint import CheckpointStore

try:
    import resource as _resource
except ImportError:  # pragma: no cover - resource is POSIX-only
    _resource = None

__all__ = ["kernel_name", "resolve_kernel", "run_sharded"]

#: Per-worker state installed by the pool initializer: the resolved
#: chunk kernel, the shared payload, and any armed fault spec, shipped
#: once per worker.
_WORKER_STATE: dict[str, Any] = {}

#: How often the driver wakes to check for finished, crashed, or hung
#: chunks. Small enough that timeout detection is prompt; large enough
#: that polling is invisible next to real kernel work.
_POLL_INTERVAL = 0.05

# Module-level aliases so tests can substitute doubles (a pool that
# records shutdown arguments, a wait that raises KeyboardInterrupt)
# without monkeypatching the stdlib for every process.
_pool_executor = concurrent.futures.ProcessPoolExecutor
_wait = concurrent.futures.wait
_sleep = time.sleep


def kernel_name(kernel: Callable[..., Any]) -> str:
    """The ``"module:function"`` name of a module-level chunk kernel.

    Validates that the name round-trips — ``resolve_kernel`` on the
    result must return the same object — which is exactly the property
    a spawned worker process relies on. Lambdas, closures, and methods
    fail here, at submission time, instead of inside the pool.
    """
    module = getattr(kernel, "__module__", None)
    qualname = getattr(kernel, "__qualname__", None)
    if not module or not qualname:
        raise ExecutionError(f"chunk kernel {kernel!r} has no importable name")
    name = f"{module}:{qualname}"
    try:
        resolved = resolve_kernel(name)
    except ExecutionError as error:
        raise ExecutionError(
            f"chunk kernel {name!r} must be a module-level function so "
            f"worker processes can import it ({error})"
        ) from error
    if resolved is not kernel:
        raise ExecutionError(
            f"chunk kernel name {name!r} resolves to a different object; "
            "kernels must be module-level functions"
        )
    return name


def resolve_kernel(name: str) -> Callable[..., Any]:
    """Import a chunk kernel back from its ``"module:function"`` name."""
    module_name, _, attribute = name.partition(":")
    if not module_name or not attribute or "." in attribute:
        raise ExecutionError(
            f"kernel name must look like 'package.module:function', got {name!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ExecutionError(
            f"cannot import kernel module {module_name!r}: {error}"
        ) from error
    kernel = getattr(module, attribute, None)
    if not callable(kernel):
        raise ExecutionError(
            f"{module_name!r} has no callable {attribute!r}"
        )
    return kernel


def _worker_init(
    name: str,
    payload: Any,
    faults: "FaultSpec | None" = None,
    telemetry: bool = False,
) -> None:
    """Pool initializer: resolve the kernel and pin the shared payload.

    ``telemetry`` mirrors whether the driver has a live recorder: when
    set, each chunk ships its timing and peak-RSS events back in the
    result envelope; when clear, workers build no telemetry at all.
    Each worker applies the process heap policy
    (:func:`~repro.exec.heap.apply_heap_policy`) before its first chunk.
    """
    apply_heap_policy()
    _WORKER_STATE["kernel"] = resolve_kernel(name)
    _WORKER_STATE["payload"] = payload
    _WORKER_STATE["faults"] = faults
    _WORKER_STATE["telemetry"] = telemetry


def _peak_rss_kb() -> "int | None":
    """This process's peak resident set size in KiB, if knowable.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized to
    KiB so traces are comparable. ``None`` where ``resource`` is
    unavailable (non-POSIX platforms).
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def _envelope(result: Any) -> tuple[str, bytes]:
    """Wrap a chunk result as (sha256 hex digest, pickled bytes).

    The worker digests its *own* pickled bytes, so the driver-side
    check is sensitive to anything that mangles the payload in transit
    without depending on pickling being canonical across processes.
    """
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest(), blob


def _open_envelope(envelope: Any, *, start: int, stop: int) -> Any:
    """Verify a chunk result envelope and return the result inside."""
    try:
        digest, blob = envelope
        actual = hashlib.sha256(blob).hexdigest()
    except Exception as error:
        raise CorruptChunkError(
            f"malformed result envelope for chunk [{start}, {stop})"
        ) from error
    if actual != digest:
        raise CorruptChunkError(
            f"integrity check failed for chunk [{start}, {stop}): "
            f"expected sha256 {digest[:12]}, got {actual[:12]}"
        )
    try:
        return pickle.loads(blob)
    except Exception as error:
        raise CorruptChunkError(
            f"cannot deserialize the result for chunk [{start}, {stop})"
        ) from error


def _worker_chunk(start: int, stop: int, attempt: int = 1) -> tuple:
    """Run the initialized kernel on one ``[start, stop)`` chunk.

    Returns the result wrapped in an integrity envelope. If a fault
    rule matches this (chunk, attempt), it fires here: ``raise``,
    ``crash``, and ``hang`` before the kernel runs; ``corrupt`` by
    flipping a bit of the pickled result *after* the digest is taken,
    so the driver's verification fails deterministically.

    With telemetry armed the envelope grows a third element — a list
    of ``chunk_worker`` event dicts (kernel wall time, rows, peak RSS)
    the driver records on arrival. The events ride *outside* the
    digested blob, so telemetry can never perturb integrity checks,
    cached bytes, or results.
    """
    spec = _WORKER_STATE.get("faults")
    rule = spec.match(start, attempt) if spec else None
    if rule is not None and rule.kind != "corrupt":
        perform_fault(rule, start=start, in_worker=True)
    began = time.monotonic()
    result = _WORKER_STATE["kernel"](_WORKER_STATE["payload"], start, stop)
    duration = time.monotonic() - began
    digest, blob = _envelope(result)
    if rule is not None and rule.kind == "corrupt":
        blob = corrupt_bytes(blob)
    if not _WORKER_STATE.get("telemetry"):
        return digest, blob
    events = [
        {
            "kind": "chunk_worker",
            "start": start,
            "stop": stop,
            "attempt": attempt,
            "dur_s": duration,
            "rows": stop - start,
            "peak_rss_kb": _peak_rss_kb(),
        }
    ]
    return digest, blob, events


def _split_envelope_events(raw: Any) -> "tuple[Any, list | None]":
    """Split worker telemetry off a result envelope, if present.

    Telemetry must be separated *before* envelope verification — a
    corrupt-blob attempt still carries valid timing events, and
    :func:`_open_envelope` only understands two-element envelopes.
    """
    if (
        isinstance(raw, tuple)
        and len(raw) == 3
        and isinstance(raw[0], str)
        and isinstance(raw[1], bytes)
        and isinstance(raw[2], list)
    ):
        return (raw[0], raw[1]), raw[2]
    return raw, None


@dataclass
class _ShardFailure:
    """A shard that exhausted its retry budget, with its final cause."""

    shard: Shard
    attempts: int
    kind: str
    message: str
    error: "BaseException | None" = None

    def report(self) -> ChunkFailure:
        """This failure in its :class:`~repro.exec.retry.FailureReport` form."""
        error = repr(self.error) if self.error is not None else self.message
        shard = self.shard
        return ChunkFailure(
            shard.index, shard.start, shard.stop, self.attempts, self.kind, error
        )


def _abandon_pool(pool: Any) -> None:
    """Tear a pool down hard: cancel queued chunks, kill its workers.

    Used when a chunk hangs past its timeout (running futures cannot
    be cancelled), when the pool breaks, and on any driver-side error
    including KeyboardInterrupt — a failed sweep must not linger on
    queued work.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass


def _charge_attempt(
    recorder: Any,
    retry: RetryPolicy,
    shard: Shard,
    attempt: int,
    kind: str,
    message: str,
) -> "float | None":
    """Record a failed attempt and schedule its retry, if any is left.

    Emits the ``attempt`` event and, while the budget lasts, the
    ``retry`` event. Returns the backoff before the next attempt, or
    ``None`` when the shard has exhausted its budget.
    """
    recorder.event(
        "attempt",
        scope="chunk",
        key=shard.index,
        stream=shard.start,
        attempt=attempt,
        outcome=kind,
        error=message[:200],
    )
    if attempt >= retry.max_attempts:
        return None
    delay = retry.delay(shard.start, attempt)
    recorder.event(
        "retry",
        scope="chunk",
        stream=shard.start,
        attempt=attempt,
        delay_s=delay,
    )
    return delay


def _run_pool_tasks(
    shards: Sequence[Shard],
    *,
    workers: int,
    retry: RetryPolicy,
    timeout: "float | None",
    initargs: tuple,
    checkpoint: "CheckpointStore | None",
) -> tuple[dict[int, Any], list[_ShardFailure]]:
    """The wave-based fault-tolerant pool engine.

    Runs ``_worker_chunk(shard.start, shard.stop, attempt)`` for every
    shard across a process pool whose workers are initialized with
    ``_worker_init(*initargs)``, retrying failures per ``retry``. Each
    *wave* owns a fresh pool; a wave ends normally when all its
    futures resolve, or is abandoned when the pool breaks (worker
    crash) or a chunk runs past ``timeout`` — the unfinished, uncharged
    shards roll into the next wave. Each completed future's envelope is
    verified driver-side (and the chunk checkpointed, when a store is
    given); an exception there counts as a failed attempt of that
    shard.

    Every wave is a ``wave`` span on the active recorder; each charged
    attempt lands as an ``attempt`` event (outcome
    ``ok``/``error``/``corrupt``/``crash``/``timeout``), each scheduled
    retry as a ``retry`` event, and pool teardown/rebuild as ``pool``
    events.

    Returns ``(results, failures)``: the verified chunk results keyed
    by shard index, and the shards that exhausted every attempt.
    """
    recorder = active_recorder()
    pending: list[tuple[Shard, int]] = [(shard, 1) for shard in shards]
    results: dict[int, Any] = {}
    failures: list[_ShardFailure] = []

    def charge(
        shard: Shard,
        attempt: int,
        kind: str,
        message: str,
        error: "BaseException | None",
        delays: list[float],
    ) -> None:
        delay = _charge_attempt(recorder, retry, shard, attempt, kind, message)
        if delay is None:
            failures.append(_ShardFailure(shard, attempt, kind, message, error))
        else:
            delays.append(delay)
            pending.append((shard, attempt + 1))

    wave_index = 0
    while pending:
        wave, pending = pending, []
        if wave_index:
            recorder.event("pool", op="rebuild", wave=wave_index)
        wave_span = recorder.span(
            "wave",
            index=wave_index,
            tasks=len(wave),
            workers=min(workers, len(wave)),
        )
        wave_index += 1
        with wave_span:
            pool = _pool_executor(
                max_workers=min(workers, len(wave)),
                initializer=_worker_init,
                initargs=initargs,
            )
            delays: list[float] = []
            abandoned = False
            try:
                info = {}
                for shard, attempt in wave:
                    future = pool.submit(
                        _worker_chunk, shard.start, shard.stop, attempt
                    )
                    info[future] = (shard, attempt)
                outstanding = set(info)
                first_running: dict[Any, float] = {}
                while outstanding:
                    done, outstanding = _wait(
                        outstanding,
                        timeout=_POLL_INTERVAL,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    now = time.monotonic()
                    broken: "BaseException | None" = None
                    for future in done:
                        shard, attempt = info[future]
                        try:
                            value, worker_events = _split_envelope_events(
                                future.result()
                            )
                            recorder.record_worker_events(worker_events)
                            value = _open_envelope(
                                value, start=shard.start, stop=shard.stop
                            )
                            if checkpoint is not None:
                                checkpoint.put(shard.start, shard.stop, value)
                        except concurrent.futures.BrokenExecutor as error:
                            # A dead worker poisons every unfinished future
                            # with the same exception; fold this one back in
                            # and attribute blame once, below.
                            broken = error
                            outstanding.add(future)
                            continue
                        except Exception as error:
                            kind = (
                                "corrupt"
                                if isinstance(error, CorruptChunkError)
                                else "error"
                            )
                            charge(shard, attempt, kind, str(error), error, delays)
                            continue
                        recorder.event(
                            "attempt",
                            scope="chunk",
                            key=shard.index,
                            stream=shard.start,
                            attempt=attempt,
                            outcome="ok",
                        )
                        results[shard.index] = value
                    if broken is not None:
                        # Only shards observed running can have killed the
                        # worker; queued ones resubmit without losing an
                        # attempt. If the crash beat our first poll, charge
                        # everything unfinished rather than loop forever.
                        charged = {f for f in outstanding if f in first_running}
                        if not charged:
                            charged = set(outstanding)
                        for future in outstanding:
                            shard, attempt = info[future]
                            if future in charged:
                                charge(
                                    shard,
                                    attempt,
                                    "crash",
                                    f"worker process died ({broken})",
                                    broken,
                                    delays,
                                )
                            else:
                                pending.append((shard, attempt))
                        recorder.event("pool", op="abandon", reason="crash")
                        _abandon_pool(pool)
                        abandoned = True
                        break
                    for future in outstanding:
                        if future not in first_running and future.running():
                            first_running[future] = now
                    if timeout is not None:
                        timed_out = {
                            future
                            for future in outstanding
                            if future in first_running
                            and now - first_running[future] >= timeout
                        }
                        if timed_out:
                            # Running futures cannot be cancelled, so the
                            # whole pool is forfeit; innocent bystanders
                            # resubmit uncharged in the next wave.
                            for future in outstanding:
                                shard, attempt = info[future]
                                if future in timed_out:
                                    charge(
                                        shard,
                                        attempt,
                                        "timeout",
                                        f"chunk ran past the {timeout:g}s "
                                        f"per-chunk timeout",
                                        None,
                                        delays,
                                    )
                                else:
                                    pending.append((shard, attempt))
                            recorder.event("pool", op="abandon", reason="timeout")
                            _abandon_pool(pool)
                            abandoned = True
                            break
            except BaseException:
                _abandon_pool(pool)
                raise
            if not abandoned:
                pool.shutdown(wait=True)
        if pending and delays:
            _sleep(max(delays))
    return results, failures


def _run_chunk_inline(
    kernel: Callable[[Any, int, int], Any],
    payload: Any,
    shard: Shard,
    *,
    retry: RetryPolicy,
    spec: "FaultSpec | None",
) -> "tuple[Any, _ShardFailure | None]":
    """Run one chunk on the calling thread with the same retry budget."""
    recorder = active_recorder()
    for attempt in range(1, retry.max_attempts + 1):
        rule = spec.match(shard.start, attempt) if spec is not None else None
        began = time.monotonic()
        try:
            if rule is not None and rule.kind != "corrupt":
                perform_fault(rule, start=shard.start, in_worker=False)
            chunk = kernel(payload, shard.start, shard.stop)
            if rule is not None and rule.kind == "corrupt":
                # Mirror the pool path's integrity failure: build the
                # envelope, damage it, and let verification object.
                digest, blob = _envelope(chunk)
                _open_envelope(
                    (digest, corrupt_bytes(blob)),
                    start=shard.start,
                    stop=shard.stop,
                )
            recorder.event(
                "attempt",
                scope="chunk",
                key=shard.index,
                stream=shard.start,
                attempt=attempt,
                outcome="ok",
                dur_s=time.monotonic() - began,
                rows=shard.stop - shard.start,
            )
            return chunk, None
        except Exception as error:
            kind = "corrupt" if isinstance(error, CorruptChunkError) else "error"
            delay = _charge_attempt(
                recorder, retry, shard, attempt, kind, str(error)
            )
            if delay is None:
                return None, _ShardFailure(
                    shard, attempt, kind, str(error), error
                )
            _sleep(delay)


def _raise_exhausted(failure: _ShardFailure, *, raw: bool) -> None:
    """Surface an exhausted chunk.

    ``raw`` (set outside skip mode with no retry budget armed)
    lets the chunk's own exception propagate, as ``run_sharded``
    always raised before the fault-tolerance layer existed; otherwise
    exhaustion is a structured :class:`~repro.errors.ChunkFailedError`
    (timeout failures have no original exception and are always
    structured).
    """
    if raw and failure.error is not None:
        raise failure.error
    shard = failure.shard
    raise ChunkFailedError(
        f"chunk {shard.index} (scenarios [{shard.start}, {shard.stop})) "
        f"failed after {failure.attempts} attempt(s) [{failure.kind}]: "
        f"{failure.message}",
        index=shard.index,
        start=shard.start,
        stop=shard.stop,
        attempts=failure.attempts,
        kind=failure.kind,
    ) from failure.error


def run_sharded(
    kernel: Callable[[Any, int, int], Any],
    payload: Any,
    size: int,
    *,
    combine: "Callable[[Sequence[Any]], Any] | None" = None,
    faults: "FaultSpec | None" = None,
    **options: Any,
) -> Any:
    """Run ``kernel`` over ``size`` scenarios in shards and reduce the chunks.

    ``options`` are the :class:`~repro.exec.options.ExecOptions` knobs
    (``jobs``, ``chunk_size``, ``retries``, ``timeout``, ``skip``,
    ``checkpoint``), validated once here; the shards come from
    ``ShardPlan.plan(size, chunk_size, jobs)``. ``kernel(payload,
    start, stop)`` is called once per shard — inline for ``jobs=1``,
    across a ``ProcessPoolExecutor(max_workers=jobs)`` otherwise. Chunk
    results are consumed in shard order and handed to ``combine`` as
    one ordered list; with ``combine=None`` the list itself is
    returned. Because every sharded runner derives per-scenario state
    from global scenario records, the combined result is bit-identical
    to a monolithic run for any ``jobs``/``chunk_size`` — and, via the
    retry machinery below, for any schedule of recovered faults.

    Fault tolerance:

    - ``retries`` — a :class:`~repro.exec.retry.RetryPolicy`, an int
      (that many retries after the first attempt), or ``None`` (one
      attempt). Backoff is deterministic (seeded jitter, no wall-clock
      randomness).
    - ``timeout`` — per-chunk wall-clock seconds; a chunk running past
      it is charged a failed attempt and its pool is rebuilt. Requires
      ``jobs > 1``: inline chunks run on the calling thread and cannot
      be cancelled.
    - ``skip`` — ``None`` (default) surfaces the first exhausted
      chunk: with no retry budget the chunk's own exception propagates
      unchanged (the pre-fault-tolerance contract), with retries armed
      it is a structured :class:`~repro.errors.ChunkFailedError`. A
      caller-owned :class:`~repro.exec.retry.FailureReport` keeps the
      partial result instead: the run appends its skipped chunks and
      its chunk count to the report, and raises only if *no* chunk
      completed at all (after filling the report).
    - ``checkpoint`` — a :class:`~repro.exec.checkpoint.CheckpointStore`;
      finished chunks are persisted as they land (multi-chunk plans
      only), prefilled from the store when it was opened in consume
      mode, and discarded after a fully successful run.
    - ``faults`` — an explicit
      :class:`~repro.exec.faults.FaultSpec`; defaults to whatever
      :func:`~repro.exec.faults.active_fault_spec` resolves (installed
      spec, then the ``REPRO_FAULTS`` environment variable).

    The process that runs the chunks (the caller for inline chunks,
    each worker otherwise) applies the process heap policy once
    (:func:`~repro.exec.heap.apply_heap_policy`), so freed chunk arrays
    are reused by the next chunk or call.
    """
    options = ExecOptions(**options)
    plan = ShardPlan.plan(size, options.chunk_size, options.jobs)
    jobs, retry, timeout = options.jobs, options.retries, options.timeout
    report, checkpoint = options.skip, options.checkpoint
    spec = active_fault_spec(faults)
    if spec is not None and not spec:
        spec = None
    name = kernel_name(kernel)
    shards = plan.shards()
    use_checkpoint = checkpoint is not None and len(shards) > 1
    recorder = active_recorder()

    with recorder.span(
        "sharded_run",
        kernel=name,
        scenarios=plan.num_scenarios,
        chunks=len(shards),
        jobs=jobs,
    ):
        completed: dict[int, Any] = {}
        to_run: list[Shard] = []
        for shard in shards:
            if use_checkpoint:
                hit, chunk = checkpoint.get(shard.start, shard.stop)
                if hit:
                    completed[shard.index] = chunk
                    continue
            to_run.append(shard)

        failures: list[_ShardFailure] = []
        if jobs == 1 or (len(shards) == 1 and timeout is None):
            apply_heap_policy()
            for shard in to_run:
                chunk, failure = _run_chunk_inline(
                    kernel, payload, shard, retry=retry, spec=spec
                )
                if failure is None:
                    completed[shard.index] = chunk
                    if use_checkpoint:
                        checkpoint.put(shard.start, shard.stop, chunk)
                else:
                    if report is None:
                        _raise_exhausted(failure, raw=retry.max_attempts == 1)
                    failures.append(failure)
        elif to_run:
            results, failures = _run_pool_tasks(
                to_run,
                workers=min(jobs, len(to_run)),
                retry=retry,
                timeout=timeout,
                initargs=(name, payload, spec, recorder.enabled),
                checkpoint=checkpoint if use_checkpoint else None,
            )
            completed.update(results)

        failures.sort(key=lambda failure: failure.shard.index)
        if report is not None:
            report.failures.extend(failure.report() for failure in failures)
            report.num_chunks += len(shards)
        if failures and (report is None or not completed):
            _raise_exhausted(
                failures[0], raw=report is None and retry.max_attempts == 1
            )
        if use_checkpoint and not failures:
            # complete() wipes the spec's whole namespace — catching
            # stale entries an earlier geometry left — where a
            # plan-shaped discard() only covers this run's ranges.
            checkpoint.complete()
        chunks = [completed[index] for index in sorted(completed)]
        return chunks if combine is None else combine(chunks)
