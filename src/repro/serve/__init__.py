"""The resilient sweep service: batched kernels behind HTTP.

The library's batched kernels answer one scenario almost as cheaply as
a thousand — per-call overhead, not arithmetic, dominates small
requests. :mod:`repro.serve` turns that shape into a long-lived
service: concurrent scenario/portfolio/sweep requests are
micro-batched into single kernel calls
(:class:`~repro.serve.batcher.MicroBatcher`), answered bit-identically
to direct library calls, and wrapped in a resilience envelope — a
bounded admission queue with 429 load shedding, per-request deadlines
that forward into :func:`repro.exec.run_sharded`'s timeout machinery,
a :class:`~repro.serve.breaker.CircuitBreaker` that degrades to
inline skip-mode execution (responses carry the batch's
:class:`~repro.exec.FailureReport`), and a zero-loss SIGTERM drain.
``repro serve`` is the CLI entry point; :class:`ServiceClient` is the
matching stdlib client.
"""

from .batcher import DrainingError, MicroBatcher, OverloadedError
from .breaker import CircuitBreaker, is_infrastructure_error
from .client import ServiceClient
from .config import ServeConfig
from .requests import Request, Response, execute_group, parse_request
from .service import SweepService

__all__ = [
    "CircuitBreaker",
    "DrainingError",
    "MicroBatcher",
    "OverloadedError",
    "Request",
    "Response",
    "ServeConfig",
    "ServiceClient",
    "SweepService",
    "execute_group",
    "is_infrastructure_error",
    "parse_request",
]
