"""Run-scoped tracing: spans, events, and an append-only JSONL file.

Everything the execution stack does — sweeps, shard waves, chunk
attempts, retries, cache lookups, pool rebuilds — is invisible unless
something records it. This module is that something: a
:class:`TraceRecorder` accepts *spans* (timed regions: run → sweep →
sharded run → wave) and *events* (point facts: a chunk attempt's
outcome, a cache hit, a retry backoff) and appends each as one JSON
line to a run-scoped trace file, while feeding a
:class:`~repro.obs.metrics.MetricsRegistry` so a summary is available
the moment the run ends.

Three properties are load-bearing:

* **Zero overhead when off.** The default recorder is the
  :class:`NullRecorder` singleton: ``span()`` hands back one shared
  no-op context manager and ``event()`` is a constant-time no-op, so
  uninstrumented runs pay a dict lookup per call site and nothing
  else (gated by ``benchmarks/test_bench_obs_overhead.py``).
* **Telemetry is invisible to results.** Recorders never touch cache
  keys, checkpoints, or result tables; a traced sharded run is
  bit-identical to an untraced one
  (``tests/test_obs_trace_correctness.py``).
* **Worker events ship in the result envelope.** Pool workers run in
  other processes where no recorder is installed; their chunk timings
  and peak-RSS samples ride back to the driver as a third envelope
  element and are recorded driver-side
  (:meth:`TraceRecorder.record_worker_events`), so one process owns
  the trace file and lines are never interleaved mid-write.

Recorders install like fault specs: ``with install_recorder(rec):``
scopes one for the duration of a block, and :func:`active_recorder`
resolves the one in effect (the :data:`NULL_RECORDER` otherwise).
Durations come from :func:`time.monotonic`; wall-clock timestamps are
recorded alongside for human correlation only.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from ..errors import ObservabilityError
from .metrics import MetricsRegistry

__all__ = [
    "TRACE_FORMAT_VERSION",
    "NullRecorder",
    "NULL_RECORDER",
    "Span",
    "TraceRecorder",
    "install_recorder",
    "active_recorder",
    "load_trace",
]

#: Written into every trace line as ``"v"``; bump when the line schema
#: changes so ``repro stats`` can refuse traces it cannot interpret.
TRACE_FORMAT_VERSION = 1


class _NullSpan:
    """The shared no-op span: enter/exit/note all do nothing.

    Stateless, so one instance can be nested and reused freely.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def note(self, **fields: Any) -> None:
        """Discard the fields (the disabled counterpart of :meth:`Span.note`)."""
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a cheap no-op.

    Instrumented call sites are written against this interface and
    never check a flag themselves; ``active_recorder()`` returns this
    singleton when nothing is installed, and the only cost left at the
    call site is the method call.
    """

    #: Call sites may branch on this to skip *building* event payloads
    #: (string formatting, row counting) that the recorder would drop.
    enabled = False

    #: The disabled recorder aggregates nothing.
    metrics: "MetricsRegistry | None" = None

    def event(self, kind: str, **fields: Any) -> None:
        """Discard an event."""
        return None

    def span(self, kind: str, **fields: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def record_worker_events(self, events: "Sequence[Mapping[str, Any]] | None") -> None:
        """Discard worker-shipped events."""
        return None

    def close(self) -> None:
        """Nothing to flush."""
        return None


NULL_RECORDER = NullRecorder()
"""The process-wide disabled recorder (also the uninstalled default)."""


class Span(object):
    """One timed region of a trace; use as a context manager.

    Emitted as a single JSON line *at exit* carrying the span's kind,
    id, parent id, duration, and fields — an interrupted run loses
    only its still-open spans, never completed ones. :meth:`note`
    attaches fields discovered mid-span (a result's row count, say)
    before the line is written.
    """

    __slots__ = ("_recorder", "kind", "fields", "span_id", "parent_id", "_t0")

    def __init__(self, recorder: "TraceRecorder", kind: str, fields: dict) -> None:
        self._recorder = recorder
        self.kind = kind
        self.fields = fields
        self.span_id: "int | None" = None
        self.parent_id: "int | None" = None
        self._t0 = 0.0

    def note(self, **fields: Any) -> None:
        """Attach extra fields to the span line written at exit."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        self.span_id, self.parent_id = self._recorder._open_span()
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> bool:
        duration = time.monotonic() - self._t0
        self._recorder._close_span(self, duration, ok=exc_type is None)
        return False


#: Why a serve coalescing window closed (see :mod:`repro.serve.batcher`);
#: a fixed vocabulary, so the ``serve.window.*`` counters stay bounded.
_WINDOW_CLOSERS = ("idle", "full", "window", "drain")


def _update_metrics(metrics: MetricsRegistry, payload: Mapping[str, Any]) -> None:
    """Fold one trace line into the registry.

    This mapping is the single place event vocabulary becomes metric
    names; ``repro stats`` replays persisted traces through it so the
    rendered tables always agree with live ``--metrics`` summaries.
    """
    kind = payload.get("kind")
    if payload.get("type") == "span":
        if kind == "wave":
            metrics.counter("pool.waves").inc()
        elif kind == "sweep":
            duration = payload.get("dur_s")
            rows = payload.get("rows")
            if rows and duration:
                metrics.gauge("sweep.scenarios_per_sec").set(rows / duration)
        elif kind == "request_batch":
            duration = payload.get("dur_s")
            if duration is not None:
                metrics.histogram("serve.batch_duration_s").observe(duration)
        return
    if kind == "cache":
        metrics.counter(f"cache.{payload.get('op', 'unknown')}").inc()
    elif kind == "retry":
        metrics.counter("retry.attempts").inc()
        delay = payload.get("delay_s")
        if delay is not None:
            metrics.histogram("retry.delay_s").observe(delay)
    elif kind == "pool":
        if payload.get("op") == "rebuild":
            metrics.counter("pool.rebuilds").inc()
    elif kind == "attempt":
        metrics.counter("attempt.total").inc()
        outcome = payload.get("outcome")
        if outcome and outcome != "ok":
            metrics.counter(f"attempt.{outcome}").inc()
        duration = payload.get("dur_s")
        if duration is not None and payload.get("scope") == "chunk":
            metrics.histogram("chunk.duration").observe(duration)
    elif kind == "chunk_worker":
        duration = payload.get("dur_s")
        if duration is not None:
            metrics.histogram("chunk.duration").observe(duration)
        rss = payload.get("peak_rss_kb")
        if rss is not None:
            metrics.histogram("chunk.peak_rss_kb").observe(rss)
    elif kind == "request":
        # The sweep service's per-request facts (repro.serve).
        metrics.counter("serve.requests").inc()
        status = payload.get("status")
        if isinstance(status, int):
            metrics.counter(f"serve.status.{status // 100}xx").inc()
        duration = payload.get("dur_s")
        if duration is not None:
            metrics.histogram("serve.request_latency_s").observe(duration)
    elif kind == "coalesce":
        metrics.counter("serve.batches").inc()
        width = payload.get("width")
        if width is not None:
            metrics.histogram("serve.coalesce_width").observe(width)
        closed_by = payload.get("closed_by")
        if closed_by in _WINDOW_CLOSERS:
            metrics.counter(f"serve.window.{closed_by}").inc()
    elif kind == "shed":
        metrics.counter("serve.shed").inc()
    elif kind == "deadline_expired":
        metrics.counter("serve.deadline_expired").inc()


class TraceRecorder:
    """Records spans and events to memory, metrics, and optional JSONL.

    ``path=None`` records in memory only (``--metrics`` without
    ``--trace-out``); with a path, every line is also appended and
    flushed immediately so a killed run leaves a readable trace of
    everything that completed. All writes funnel through one lock, so
    a recorder may be shared by the driver thread and any callback
    threads; span *nesting* is tracked per recorder and assumes the
    single driver thread the execution stack actually has.
    """

    enabled = True

    def __init__(self, path: "str | Path | None" = None) -> None:
        self._path = Path(path) if path is not None else None
        self._handle = None
        self._lock = threading.Lock()
        self._seq = 0
        self._next_span_id = 0
        self._stack: list[int] = []
        self._began = time.monotonic()
        #: Every recorded line, in order — the in-memory trace.
        self.events: list[dict] = []
        #: Aggregates fed synchronously from the same lines.
        self.metrics = MetricsRegistry()

    @property
    def path(self) -> "Path | None":
        """Where the JSONL trace is written, or ``None`` for memory-only."""
        return self._path

    def _write(self, payload: dict) -> None:
        with self._lock:
            payload["seq"] = self._seq
            payload["v"] = TRACE_FORMAT_VERSION
            self._seq += 1
            self.events.append(payload)
            _update_metrics(self.metrics, payload)
            if self._path is not None:
                if self._handle is None:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    self._handle = self._path.open("a", encoding="utf-8")
                self._handle.write(json.dumps(payload, default=repr) + "\n")
                self._handle.flush()

    def _stamp(self) -> dict:
        return {
            "t": round(time.monotonic() - self._began, 6),
            "ts": time.time(),
            "parent": self._stack[-1] if self._stack else None,
        }

    def event(self, kind: str, **fields: Any) -> None:
        """Record one point-in-time event under the current span."""
        self._write({"type": "event", "kind": kind, **self._stamp(), **fields})

    def span(self, kind: str, **fields: Any) -> Span:
        """A timed region; use ``with recorder.span("sweep", ...):``."""
        return Span(self, kind, dict(fields))

    def _open_span(self) -> tuple[int, "int | None"]:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
        return span_id, parent

    def _close_span(self, span: Span, duration: float, *, ok: bool) -> None:
        with self._lock:
            if self._stack and self._stack[-1] == span.span_id:
                self._stack.pop()
        line = {
            "type": "span",
            "kind": span.kind,
            "span": span.span_id,
            "t": round(time.monotonic() - self._began, 6),
            "ts": time.time(),
            "parent": span.parent_id,
            "dur_s": duration,
            "status": "ok" if ok else "error",
        }
        line.update(span.fields)
        self._write(line)

    def record_worker_events(
        self, events: "Sequence[Mapping[str, Any]] | None"
    ) -> None:
        """Record events a pool worker shipped back in a result envelope.

        Lines are marked ``"proc": "worker"`` and parented under the
        driver's current span; the worker's own monotonic timings are
        preserved as-is (they measure durations, which are comparable
        across processes, unlike monotonic epochs).
        """
        if not events:
            return
        for event in events:
            self._write(
                {"type": "event", "proc": "worker", **self._stamp(), **event}
            )

    def summary(self) -> dict[str, Any]:
        """The metrics summary dict (see :meth:`MetricsRegistry.summary`)."""
        return self.metrics.summary()

    def close(self) -> None:
        """Flush and close the trace file, if one is open."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


_installed_recorder: "TraceRecorder | NullRecorder" = NULL_RECORDER


@contextmanager
def install_recorder(
    recorder: "TraceRecorder | NullRecorder | None",
) -> Iterator["TraceRecorder | NullRecorder"]:
    """Install a recorder process-wide for the duration of a block.

    Mirrors :func:`repro.exec.faults.install_faults`: instrumented
    call sites resolve the recorder through :func:`active_recorder`
    instead of threading one through every signature. Nested installs
    restore the previous recorder on exit; ``None`` installs the
    :data:`NULL_RECORDER` (tracing explicitly off for the block).
    """
    global _installed_recorder
    if recorder is None:
        recorder = NULL_RECORDER
    previous = _installed_recorder
    _installed_recorder = recorder
    try:
        yield recorder
    finally:
        _installed_recorder = previous


def active_recorder() -> "TraceRecorder | NullRecorder":
    """The recorder in effect: the installed one, else the null one."""
    return _installed_recorder


def load_trace(path: "str | Path") -> list[dict]:
    """Parse a JSONL trace file back into its line dicts, in order.

    Raises :class:`~repro.errors.ObservabilityError` for a missing
    file, a malformed line, or a line written by a newer trace format
    than this code understands.
    """
    trace_path = Path(path)
    try:
        text = trace_path.read_text(encoding="utf-8")
    except OSError as error:
        raise ObservabilityError(
            f"cannot read trace file {trace_path}: {error}"
        ) from error
    lines: list[dict] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ObservabilityError(
                f"{trace_path}:{number}: malformed trace line: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ObservabilityError(
                f"{trace_path}:{number}: trace lines must be objects, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("v", TRACE_FORMAT_VERSION)
        if version > TRACE_FORMAT_VERSION:
            raise ObservabilityError(
                f"{trace_path}:{number}: trace format v{version} is newer "
                f"than this build understands (v{TRACE_FORMAT_VERSION})"
            )
        lines.append(payload)
    return lines
