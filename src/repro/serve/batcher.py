"""The micro-batcher: bounded admission, coalescing, deadlines, drain.

Requests arrive one at a time; kernels want them in batches. The
:class:`MicroBatcher` sits between: :meth:`~MicroBatcher.submit`
admits a request into a bounded queue (or sheds it — the queue is the
service's *only* buffer, so memory stays bounded no matter the offered
load) and parks the caller on a future; a single dispatcher task
drains the queue in group-key batches, lingering after a wake-up so
concurrent arrivals can join the same kernel call.

``window_s`` is the *longest* the dispatcher lingers, not a fixed
sleep: the window closes as soon as the batch can no longer grow —
the owner's ``may_grow()`` reports that no further arrival is
possible (``idle``), the front group already holds ``max_batch``
requests (``full``), or a drain begins (``drain``). Otherwise it runs
out (``window``). Each ``batch`` record names which one closed it.

Deadlines are enforced at dispatch: a request whose budget expired
while queued is answered with a structured 504 and never reaches a
kernel, and the tightest remaining budget of a batch is handed to the
executor so it can forward it into :func:`repro.exec.run_sharded`'s
timeout machinery.

Draining is the graceful half of SIGTERM: new submissions are refused
(:class:`DrainingError` → 503) while everything already admitted is
flushed — zero accepted requests are lost — and only then does the
dispatcher exit. A grace period bounds the wait; anything still queued
when it expires is answered with a shutdown 503 rather than abandoned.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, deque
from typing import Any, Callable, Sequence

from ..errors import ServiceError
from .requests import Request, Response

__all__ = [
    "OverloadedError",
    "DrainingError",
    "MicroBatcher",
]


class OverloadedError(ServiceError):
    """Admission refused: the bounded queue is full (HTTP 429).

    Carries the observed depth and the configured limit so the
    shedding response can tell the client what it hit.
    """

    def __init__(self, queue_depth: int, limit: int) -> None:
        super().__init__(
            f"admission queue full ({queue_depth}/{limit}); shedding"
        )
        self.queue_depth = queue_depth
        self.limit = limit


class DrainingError(ServiceError):
    """Admission refused: the service is draining for shutdown (HTTP 503)."""


class _Pending:
    """One admitted request parked on its future."""

    __slots__ = ("request", "future", "admitted_at", "deadline")

    def __init__(
        self,
        request: Request,
        future: "asyncio.Future[Response]",
        admitted_at: float,
    ) -> None:
        self.request = request
        self.future = future
        self.admitted_at = admitted_at
        self.deadline = (
            admitted_at + request.deadline_s
            if request.deadline_s is not None
            else None
        )


def _noop_record(kind: str, fields: dict) -> None:
    return None


class MicroBatcher:
    """Bounded-queue request coalescer with one dispatcher task.

    ``execute(group_key, requests, budget_s)`` is awaited once per
    batch and must return one :class:`Response` per request in order;
    it is the only place kernels run. ``record(kind, fields)``
    receives point facts (``admit``/``shed``/``expired``/``batch``/
    ``respond``/``depth``) for the owner to fold into metrics and
    traces. ``may_grow()`` is re-checked after every arrival while the
    window is open; once it returns false the batch is dispatched
    early (``None`` means any arrival may still join, so the window
    always runs out). The clock is injectable for deterministic
    deadline tests.
    """

    def __init__(
        self,
        execute: Callable[..., "Any"],
        *,
        max_queue: int,
        max_batch: int,
        window_s: float = 0.0,
        may_grow: "Callable[[], bool] | None" = None,
        record: "Callable[[str, dict], None] | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_queue <= 0 or max_batch <= 0:
            raise ServiceError(
                f"queue and batch bounds must be positive, got "
                f"max_queue={max_queue}, max_batch={max_batch}"
            )
        self._execute = execute
        self._max_queue = max_queue
        self._max_batch = max_batch
        self._window_s = window_s
        self._may_grow = may_grow or (lambda: True)
        self._record = record or _noop_record
        self._clock = clock
        self._queue: "deque[_Pending]" = deque()
        self._group_sizes: "Counter[tuple]" = Counter()
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        self._draining = False
        self._task: "asyncio.Task | None" = None

    @property
    def queue_depth(self) -> int:
        """How many admitted requests are waiting for a batch."""
        return len(self._queue)

    @property
    def draining(self) -> bool:
        """Whether the batcher has stopped admitting new requests."""
        return self._draining

    def start(self) -> None:
        """Start the dispatcher task on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def submit(self, request: Request) -> Response:
        """Admit one request and wait for its batched answer.

        Raises :class:`OverloadedError` when the queue is full and
        :class:`DrainingError` after :meth:`drain` has begun — both
        *before* anything is enqueued, so a refused request costs no
        memory and no kernel time.
        """
        if self._draining:
            raise DrainingError("service is draining; not accepting requests")
        if len(self._queue) >= self._max_queue:
            self._record(
                "shed",
                {"queue_depth": len(self._queue), "limit": self._max_queue},
            )
            raise OverloadedError(len(self._queue), self._max_queue)
        pending = _Pending(
            request,
            asyncio.get_running_loop().create_future(),
            self._clock(),
        )
        self._queue.append(pending)
        self._group_sizes[request.group_key] += 1
        self._record("admit", {"queue_depth": len(self._queue)})
        self._wake.set()
        return await pending.future

    async def drain(self, grace_s: "float | None" = None) -> int:
        """Stop admitting, flush everything admitted, stop the dispatcher.

        Returns how many requests were force-answered with a shutdown
        503 because ``grace_s`` expired — 0 in a clean drain, and the
        zero-loss guarantee either way: every admitted future is
        resolved before this returns.
        """
        self._draining = True
        self._wake.set()
        if self._task is None:
            abandoned = self._flush_shutdown()
            self._drained.set()
            return abandoned
        try:
            await asyncio.wait_for(
                self._drained.wait(),
                timeout=grace_s if grace_s and grace_s > 0 else None,
            )
            abandoned = 0
        except asyncio.TimeoutError:
            abandoned = self._flush_shutdown()
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        return abandoned

    def _flush_shutdown(self) -> int:
        """Answer everything still queued with a shutdown 503."""
        self._group_sizes.clear()
        count = 0
        while self._queue:
            pending = self._queue.popleft()
            self._resolve(
                pending,
                Response(
                    status=503,
                    payload={
                        "error": "shutting_down",
                        "detail": "drain grace period expired",
                    },
                ),
            )
            count += 1
        return count

    async def _run(self) -> None:
        while True:
            await self._wake.wait()
            closed_by = await self._linger()
            self._wake.clear()
            while self._queue:
                await self._dispatch(self._next_batch(), closed_by)
            self._record("depth", {"queue_depth": 0})
            if self._draining:
                self._drained.set()
                return

    async def _linger(self) -> str:
        """Hold the window open while the front group can still grow.

        Returns why it closed: ``drain``, ``full``, ``idle`` or
        ``window``. Every arrival (and a drain) sets the wake event,
        so each one re-checks the predicates.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._window_s
        while True:
            if self._draining:
                return "drain"
            if not self._queue:
                return "window"  # nothing to hold; no batch follows
            front = self._queue[0].request.group_key
            if self._group_sizes[front] >= self._max_batch:
                return "full"
            if not self._may_grow():
                return "idle"
            remaining = deadline - loop.time()
            if remaining <= 0:
                return "window"
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                return "window"

    def _next_batch(self) -> list[_Pending]:
        """Pop the next batch: front request plus group-key matches."""
        batch: list[_Pending] = []
        rest: "deque[_Pending]" = deque()
        key = None
        while self._queue:
            pending = self._queue.popleft()
            if key is None:
                key = pending.request.group_key
            if (
                len(batch) < self._max_batch
                and pending.request.group_key == key
            ):
                batch.append(pending)
            else:
                rest.append(pending)
        self._queue = rest
        self._group_sizes[key] -= len(batch)
        if not self._group_sizes[key]:
            del self._group_sizes[key]
        self._record("depth", {"queue_depth": len(self._queue)})
        return batch

    def _resolve(self, pending: _Pending, response: Response) -> None:
        if not pending.future.done():
            pending.future.set_result(response)
        self._record(
            "respond",
            {
                "kind": pending.request.kind,
                "status": response.status,
                "dur_s": self._clock() - pending.admitted_at,
            },
        )

    async def _dispatch(self, batch: Sequence[_Pending], closed_by: str) -> None:
        now = self._clock()
        live: list[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and pending.deadline <= now:
                self._record("expired", {"kind": pending.request.kind})
                self._resolve(
                    pending,
                    Response(
                        status=504,
                        payload={
                            "error": "deadline_exceeded",
                            "detail": (
                                "deadline expired while queued; no kernel "
                                "time was spent"
                            ),
                        },
                    ),
                )
            else:
                live.append(pending)
        if not live:
            return
        budgets = [p.deadline - now for p in live if p.deadline is not None]
        budget_s = min(budgets) if budgets else None
        self._record(
            "batch",
            {
                "kind": live[0].request.kind,
                "width": len(live),
                "closed_by": closed_by,
            },
        )
        try:
            responses = await self._execute(
                live[0].request.group_key,
                [pending.request for pending in live],
                budget_s,
            )
        except Exception as error:  # the dispatcher must never die
            responses = [
                Response(
                    status=500,
                    payload={"error": "internal", "detail": repr(error)},
                )
                for _ in live
            ]
        if len(responses) != len(live):
            responses = [
                Response(
                    status=500,
                    payload={
                        "error": "internal",
                        "detail": (
                            f"executor returned {len(responses)} responses "
                            f"for {len(live)} requests"
                        ),
                    },
                )
                for _ in live
            ]
        for pending, response in zip(live, responses):
            self._resolve(pending, response)
