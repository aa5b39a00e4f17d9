"""The sweep service: HTTP endpoints wired to the micro-batcher.

:class:`SweepService` owns the whole serving stack: the asyncio
server, the :class:`~repro.serve.batcher.MicroBatcher`, the
:class:`~repro.serve.breaker.CircuitBreaker`, the shared
:class:`~repro.exec.ResultCache`, and a
:class:`~repro.obs.metrics.MetricsRegistry` that the health endpoints
read live. The execution path is: HTTP request → parse/validate →
bounded admission → coalesced batch → one kernel call (in a worker
thread, or inline when it is short) → per-request JSON responses.

Failure behavior is the design center:

* **Overload** sheds at admission with a structured 429 — the queue is
  the only buffer, so memory is bounded by ``max_queue`` requests.
* **Deadlines** expire queued requests with a 504 before any kernel
  time is spent, and the tightest live deadline of a batch forwards
  into :func:`repro.exec.run_sharded`'s timeout when ``jobs > 1``.
* **Infrastructure failures** (broken pools, exhausted chunk retries,
  integrity failures) feed the breaker; tripped batches — and every
  batch while the breaker is open — rerun on the degraded path
  (inline, skip mode with a fresh :class:`~repro.exec.FailureReport`
  per batch), so clients get partial answers with that report attached
  instead of timeouts.
* **Request errors** answer 400: admission checks each cell request's
  own inputs, and a cell batch the kernel still refuses is split in
  halves until the bad request is alone, so only it fails.
* **Drain** (SIGTERM) refuses new work with 503s, flushes every
  admitted request, then closes — zero accepted requests are lost.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Callable, Sequence

from ..errors import ChunkFailedError, ServiceError, SimulationError
from ..exec import FailureReport
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import _update_metrics, active_recorder
from .batcher import DrainingError, MicroBatcher, OverloadedError
from .breaker import CircuitBreaker, is_infrastructure_error
from .config import ServeConfig
from .http import serve_connection
from .requests import (
    CELL_KINDS,
    Request,
    Response,
    execute_group,
    parse_request,
    validate_overrides,
)

__all__ = ["SweepService"]


class SweepService:
    """One long-lived sweep service instance.

    Construct with a :class:`~repro.serve.config.ServeConfig`, then
    either ``await start()`` and drive it from a running event loop
    (tests do this) or call :meth:`serve_forever` from synchronous
    code (the CLI does this). The injectable clock feeds the breaker
    and deadline bookkeeping for deterministic tests.
    """

    def __init__(
        self,
        config: "ServeConfig | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServeConfig()
        self._clock = clock
        self.metrics = MetricsRegistry()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
            clock=clock,
        )
        self._cache = None
        if self.config.cache_dir is not None:
            from ..exec.cache import ResultCache

            self._cache = ResultCache(self.config.cache_dir)
        self._batcher = MicroBatcher(
            self._execute_batch,
            max_queue=self.config.max_queue,
            max_batch=self.config.effective_max_batch,
            window_s=self.config.effective_window_s,
            # Each keep-alive connection carries one request at a time:
            # once every open one waits on an admitted request, no
            # arrival can join the batch, so the window closes early.
            may_grow=lambda: len(self._writers) > self._busy,
            record=self._record,
            clock=clock,
        )
        self._server: "asyncio.Server | None" = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._busy = 0  # requests admitted and not yet answered
        self._cost_s: dict[str, float] = {}  # last kernel s/request by kind
        self._started_at = clock()
        self._draining = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Bind the listener and start the dispatcher."""
        if self._server is not None:
            raise ServiceError("service already started")
        self._started_at = self._clock()
        # The accept backlog must absorb the same burst the admission
        # queue does: at the default backlog (100) a connect storm hits
        # kernel SYN retransmits (~1s) before the service ever sees the
        # request. The kernel clamps this to net.core.somaxconn.
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            backlog=max(self.config.max_queue, 128),
        )
        self._batcher.start()

    @property
    def port(self) -> int:
        """The bound port (useful with the ``port=0`` ephemeral default)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("service is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether a drain has begun (readiness reports 503)."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched to a kernel."""
        return self._batcher.queue_depth

    async def drain(self) -> int:
        """Graceful shutdown: refuse, flush, close. Returns abandon count.

        Every request admitted before the drain began is answered
        (abandon count 0) unless ``drain_grace_s`` expires, in which
        case stragglers get a shutdown 503 — resolved, never dropped.
        """
        if self._draining:
            await self._stopped.wait()
            return 0
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        abandoned = await self._batcher.drain(self.config.drain_grace_s)
        # In-flight responses are written by now; close idle keep-alive
        # connections still parked in readline().
        for writer in list(self._writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._stopped.set()
        return abandoned

    async def wait_stopped(self) -> None:
        """Block until a drain completes (the CLI parks here)."""
        await self._stopped.wait()

    async def serve_until_stopped(self) -> None:
        """Start and block until a drain completes (signal-driven use)."""
        await self.start()
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            await serve_connection(
                reader,
                writer,
                self._route,
                max_body=self.config.max_body_bytes,
                closing=lambda: self._draining,
            )
        finally:
            self._writers.discard(writer)

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> "tuple[int, Any, dict]":
        if path in ("/healthz", "/readyz", "/metrics"):
            if method != "GET":
                return 405, {"error": "method_not_allowed"}, {}
            status, payload = getattr(self, f"_get_{path[1:]}")()
            return status, payload, {}
        if path.startswith("/v1/"):
            kind = path[len("/v1/"):]
            if method != "POST":
                return 405, {"error": "method_not_allowed"}, {}
            return await self._post_request(kind, body)
        return 404, {"error": "not_found", "detail": f"no route for {path}"}, {}

    def _get_healthz(self) -> "tuple[int, dict]":
        return 200, {
            "status": "ok",
            "uptime_s": self._clock() - self._started_at,
            "breaker": self.breaker.snapshot(),
            "queue_depth": self.queue_depth,
        }

    def _get_readyz(self) -> "tuple[int, dict]":
        if self._draining:
            return 503, {"status": "draining"}
        return 200, {
            "status": "ready",
            "queue_depth": self.queue_depth,
            "queue_limit": self.config.max_queue,
        }

    def _get_metrics(self) -> "tuple[int, dict]":
        return 200, {
            "metrics": self.metrics.summary(),
            "breaker": self.breaker.snapshot(),
            "queue_depth": self.queue_depth,
        }

    async def _post_request(
        self, kind: str, body: bytes
    ) -> "tuple[int, Any, dict]":
        try:
            decoded = json.loads(body or b"{}")
        except json.JSONDecodeError as error:
            return 400, {"error": "bad_request", "detail": str(error)}, {}
        try:
            request = parse_request(kind, decoded)
            validate_overrides(request)
        except ServiceError as error:
            return 400, {"error": "bad_request", "detail": str(error)}, {}
        self._busy += 1
        try:
            response = await self._batcher.submit(request)
        except OverloadedError as error:
            return (
                429,
                {
                    "error": "overloaded",
                    "detail": str(error),
                    "queue_depth": error.queue_depth,
                    "queue_limit": error.limit,
                    "retry_after_s": 1.0,
                },
                {"Retry-After": "1"},
            )
        except DrainingError as error:
            return 503, {"error": "shutting_down", "detail": str(error)}, {}
        finally:
            self._busy -= 1
        return response.status, response.payload, {}

    # ------------------------------------------------------------------
    # Batch execution

    def _exec_options(
        self, budget_s: "float | None", *, degraded: bool = False
    ) -> dict[str, Any]:
        """The :class:`~repro.exec.ExecOptions` keywords for one batch.

        The primary path uses the configured jobs and raises on chunk
        failure; the degraded path runs inline in skip mode, collecting
        this batch's skipped chunks in a fresh
        :class:`~repro.exec.FailureReport`. The tightest of the batch
        budget and ``timeout_s`` becomes the per-chunk timeout only when
        ``jobs > 1``: inline chunks cannot be cancelled.
        """
        jobs = 1 if degraded else self.config.jobs
        options: dict[str, Any] = {
            "jobs": jobs,
            "chunk_size": self.config.chunk_size,
            "retries": self.config.retries or None,
            "skip": FailureReport() if degraded else None,
        }
        budgets = [
            value
            for value in (budget_s, self.config.timeout_s)
            if value is not None
        ]
        if budgets and jobs > 1:
            options["timeout"] = min(budgets)
        return options

    async def _run_group(
        self,
        loop: asyncio.AbstractEventLoop,
        requests: Sequence[Request],
        options: dict[str, Any],
    ) -> list[Response]:
        """Answer one batch with ``options``, inline or on an executor thread.

        An in-process (``jobs == 1``) kernel holds the GIL while it runs,
        so a cell batch that finishes within one GIL switch interval
        gives the loop no turn on a worker thread either; the thread
        only adds two cross-thread wake-ups, whose cost swings with how
        the host schedules them. Such a batch runs inline when no other
        request waits in the queue, so blocking the loop delays no
        queued batch; its length is predicted from the last per-request
        cost of its kind. Sweeps, pooled runs, longer batches, batches
        with work queued behind them and a kind not yet timed go to the
        executor.
        """
        kind = requests[0].kind

        def run() -> list[Response]:
            began = time.perf_counter()
            responses = execute_group(
                list(requests), options=options, cache=self._cache
            )
            self._cost_s[kind] = (time.perf_counter() - began) / len(requests)
            return responses

        per_request_s = self._cost_s.get(kind)
        if (
            kind in CELL_KINDS
            and options["jobs"] == 1
            and not self._batcher.queue_depth
            and per_request_s is not None
            and per_request_s * len(requests) < sys.getswitchinterval()
        ):
            return run()
        return await loop.run_in_executor(None, run)

    async def _execute_batch(
        self,
        group_key: tuple,
        requests: Sequence[Request],
        budget_s: "float | None",
    ) -> list[Response]:
        loop = asyncio.get_running_loop()
        recorder = active_recorder()
        primary_allowed = self.breaker.allow()
        with recorder.span(
            "request_batch",
            endpoint=requests[0].kind,
            width=len(requests),
            breaker=self.breaker.state if not primary_allowed else "closed",
        ):
            if primary_allowed:
                responses = await self._execute_primary(
                    loop, requests, self._exec_options(budget_s)
                )
            else:
                responses = await self._execute_degraded(loop, requests, None)
        for response in responses:
            if response.payload.get("degraded"):
                self.metrics.counter("serve.degraded").inc()
        return responses

    async def _execute_primary(
        self,
        loop: asyncio.AbstractEventLoop,
        requests: Sequence[Request],
        options: dict[str, Any],
    ) -> list[Response]:
        """Answer a batch on the primary path, reporting to the breaker.

        A cell batch the kernel refuses for a request's values is split
        in halves and each half answered on its own: the cell kernels
        are element-wise, so a request's answer in a half is the one it
        would have had in the batch. The lone request left holding the
        error answers 400. One bad request among N costs about
        ``2 * log2(N)`` reruns.
        """
        try:
            responses = await self._run_group(loop, requests, options)
        except Exception as error:
            refused = _refused_cells(requests, error)
            if refused is not None:
                if len(requests) == 1:
                    return [_bad_request(refused)]
                half = len(requests) // 2
                return await self._execute_primary(
                    loop, requests[:half], options
                ) + await self._execute_primary(loop, requests[half:], options)
            if not is_infrastructure_error(error):
                raise  # batcher answers the batch with 500s
            self.breaker.record_failure()
            return await self._execute_degraded(loop, requests, error)
        self.breaker.record_success()
        return responses

    async def _execute_degraded(
        self,
        loop: asyncio.AbstractEventLoop,
        requests: Sequence[Request],
        cause: "BaseException | None",
    ) -> list[Response]:
        """The fallback path: inline execution, skip-and-report semantics."""
        try:
            responses = await self._run_group(
                loop, requests, self._exec_options(None, degraded=True)
            )
        except Exception as error:
            detail = repr(cause) if cause is not None else repr(error)
            return [
                Response(
                    status=500,
                    payload={
                        "error": "execution_failed",
                        "detail": detail,
                        "degraded": True,
                    },
                )
                for _ in requests
            ]
        if cause is not None:
            for response in responses:
                response.payload["breaker_cause"] = repr(cause)
        return responses

    # ------------------------------------------------------------------
    # Observability

    def _record(self, kind: str, fields: dict) -> None:
        """Fold one batcher fact into metrics and the active trace.

        Trace lines go through the same
        :func:`~repro.obs.recorder._update_metrics` vocabulary the
        execution stack uses, so ``repro stats`` on a serve trace and
        the live ``/metrics`` endpoint agree by construction.
        """
        if kind in ("admit", "depth"):
            self.metrics.gauge("serve.queue_depth").set(
                fields.get("queue_depth", 0)
            )
            return
        recorder = active_recorder()
        if kind == "shed":
            payload = {"type": "event", "kind": "shed", **fields}
        elif kind == "expired":
            payload = {"type": "event", "kind": "deadline_expired", **fields}
        elif kind == "batch":
            payload = {
                "type": "event",
                "kind": "coalesce",
                "endpoint": fields.get("kind"),
                "width": fields.get("width"),
                "closed_by": fields.get("closed_by"),
            }
        elif kind == "respond":
            payload = {
                "type": "event",
                "kind": "request",
                "endpoint": fields.get("kind"),
                "status": fields.get("status"),
                "dur_s": fields.get("dur_s"),
            }
        else:
            return
        _update_metrics(self.metrics, payload)
        if recorder.enabled:
            event_fields = {
                name: value
                for name, value in payload.items()
                if name not in ("type", "kind")
            }
            recorder.event(payload["kind"], **event_fields)


def _refused_cells(
    requests: Sequence[Request], error: BaseException
) -> "SimulationError | None":
    """The kernel's refusal of a cell batch's values, if ``error`` is one.

    With retries armed, the sharded runner retries the kernel's
    deterministic :class:`~repro.errors.SimulationError` and then wraps
    it in a :class:`~repro.errors.ChunkFailedError`; that is still the
    client's input, not a failing execution substrate.
    """
    if requests[0].kind not in CELL_KINDS:
        return None
    if isinstance(error, ChunkFailedError):
        error = error.__cause__
    return error if isinstance(error, SimulationError) else None


def _bad_request(error: BaseException) -> Response:
    """A request-level failure: the client's input, not the service."""
    return Response(
        status=400, payload={"error": "bad_request", "detail": str(error)}
    )
