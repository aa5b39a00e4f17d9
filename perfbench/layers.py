"""Per-layer timing from outside the program.

A :class:`Probe` wraps the public entry points of each layer (module
attributes such as ``repro.datacenter.fleet.simulate_fleet_batch`` or
class attributes such as ``Table.concat``) and records one
:class:`Call` per invocation: its layer, the layer of the wrapped call
it ran inside, its wall-clock start, its duration and its self time
(duration minus the wrapped calls nested in it, tracked per thread).
Coroutine functions are timed without nesting, because tasks interleave
on one thread. The program's own spans and events (``sharded_run``,
inline chunk ``attempt``) come from a ``repro.obs.TraceRecorder`` the
caller installs next to the probe.

A hook whose module or attribute no longer exists is skipped and
listed in :attr:`Probe.missing`; its layer then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Iterable, NamedTuple, Sequence


class Call(NamedTuple):
    layer: str
    parent: "str | None"
    wall: float
    dur: float
    self_s: float
    size: "int | None"


def _rows(args: tuple, result: Any) -> "int | None":
    return getattr(result, "num_rows", None)


def _width(args: tuple, result: Any) -> "int | None":
    return len(args[0]) if args else None


#: (module, attribute, layer, size-of-call) for every wrapped entry point.
HOOKS: "tuple[tuple[str, str, str, Callable | None], ...]" = (
    ("repro.portfolio.sweep", "sweep_portfolio", "portfolio.sweep", None),
    ("repro.portfolio.sweep", "sweep_portfolio_uncertain", "portfolio.sweep", None),
    ("repro.uncertainty.sweeps", "sweep_fleet_uncertain", "uncertainty.sweep", None),
    ("repro.exec", "run_sharded", "exec.run", None),
    ("repro.tabular", "Table.concat", "tabular.concat", _rows),
    ("repro.tabular", "Table.column", "tabular.column", None),
    ("repro.uncertainty.draws", "build_draw_matrix", "uncertainty.draws", None),
    ("repro.uncertainty.result", "UncertainResult.quantile_table",
     "uncertainty.quantile", None),
    ("repro.uncertainty.result", "UncertainResult.concat", "uncertainty.concat", None),
    ("repro.scenarios.runner", "OverridePlan.apply", "scenarios.gather", None),
    ("repro.scenarios.runner", "apply_overrides", "scenarios.gather", None),
    ("repro.datacenter.fleet", "simulate_fleet_batch", "datacenter.fleet_kernel", None),
    ("repro.datacenter.fleet", "FleetBatchResult.final_year_table",
     "datacenter.table", None),
    ("repro.serve.requests", "parse_request", "serve.parse", None),
    ("repro.serve.requests", "execute_group", "serve.execute", _width),
    ("repro.serve.batcher", "MicroBatcher.submit", "serve.submit", None),
    ("repro.serve.http", "write_response", "serve.write", None),
)


class Probe:
    """Installs timing wrappers; collects :class:`Call` records."""

    def __init__(self) -> None:
        self.calls: list[Call] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func: Callable, layer: str, size: "Callable | None") -> Callable:
        calls = self.calls
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                wall, began = time.time(), time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - began
                    calls.append(Call(layer, None, wall, dur, dur, None))
            return timed_async

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            wall, began = time.time(), time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - began
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls.append(Call(
                    layer, parent, wall, dur, dur - frame[1],
                    size(args, result) if size is not None else None,
                ))
        return timed

    def install(self, hooks: Iterable[tuple] = HOOKS) -> "Probe":
        """Wrap every hook that exists; remember how to undo it."""
        for module_name, attribute, layer, size in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(name) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{module_name}.{attribute}")
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, layer, size))
                else:
                    wrapped = self._wrap(raw, layer, size)
                self._restore.append((owner, name, raw))
                setattr(owner, name, wrapped)
                continue
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapped = self._wrap(original, layer, size)
            # Rebind the name in every module that imported it by value.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._restore.append((loaded, key, original))
                        setattr(loaded, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def take(self) -> list[Call]:
        """The calls recorded so far, clearing the record."""
        taken = self.calls[:]
        del self.calls[: len(taken)]
        return taken


def _outermost(calls: Sequence[Call], layer: str) -> list[Call]:
    """Calls of ``layer`` not nested directly in the same layer."""
    return [c for c in calls if c.layer == layer and c.parent != layer]


def _total(calls: Sequence[Call], layer: str) -> float:
    return sum(c.dur for c in _outermost(calls, layer))


def _spans(events: Sequence[dict], kind: str) -> list[dict]:
    return [e for e in events if e.get("type") == "span" and e.get("kind") == kind]


def _chunk_attempts(events: Sequence[dict]) -> list[dict]:
    return [
        e for e in events
        if e.get("type") == "event" and e.get("kind") == "attempt"
        and e.get("scope") == "chunk" and e.get("outcome") == "ok"
    ]


def self_times(calls: Sequence[Call]) -> "dict[str, float]":
    """Summed self time per layer."""
    totals: dict[str, float] = {}
    for call in calls:
        totals[call.layer] = totals.get(call.layer, 0.0) + call.self_s
    return totals


def sweep_layers(calls: Sequence[Call], events: Sequence[dict]) -> "dict[str, float]":
    """Layer metrics of one sweep operation (seconds and counts)."""
    attempts = _chunk_attempts(events)
    run_s = sum(span["dur_s"] for span in _spans(events, "sharded_run"))
    chunk_s = sum(event["dur_s"] for event in attempts)
    combine_s = sum(
        c.dur for c in calls
        if c.layer in ("tabular.concat", "uncertainty.concat") and c.parent == "exec.run"
    )
    concat = _outermost(calls, "tabular.concat")
    gather = _outermost(calls, "scenarios.gather")
    columns = _outermost(calls, "tabular.column")
    return {
        "exec.chunks": float(len(attempts)),
        "exec.chunk_s": chunk_s,
        "exec.run_s": run_s,
        "exec.overhead_s": run_s - chunk_s - combine_s,
        "tabular.concat_s": sum(c.dur for c in concat),
        "tabular.concat_rows": float(sum(c.size or 0 for c in concat)),
        "tabular.column_s": sum(c.dur for c in columns),
        "tabular.column_calls": float(len(columns)),
        "portfolio.sweep_s": _total(calls, "portfolio.sweep"),
        "portfolio.reduce_s": sum(
            c.self_s for c in calls if c.layer == "portfolio.sweep"
        ),
        "uncertainty.draws_s": _total(calls, "uncertainty.draws"),
        "uncertainty.quantile_s": _total(calls, "uncertainty.quantile"),
        "uncertainty.concat_s": _total(calls, "uncertainty.concat"),
        "scenarios.gather_s": sum(c.dur for c in gather),
        "scenarios.gather_calls": float(len(gather)),
        "datacenter.fleet_kernel_s": _total(calls, "datacenter.fleet_kernel"),
        "datacenter.table_s": _total(calls, "datacenter.table"),
    }


def serve_layers(
    calls: Sequence[Call], requests: int, latency_mean_ms: float
) -> "dict[str, float]":
    """Per-request serve-layer means (ms) and batch counts."""
    per = max(requests, 1)

    def mean_ms(layer: str) -> float:
        return 1e3 * sum(c.dur for c in calls if c.layer == layer) / per

    batches = [c for c in calls if c.layer == "serve.execute"]
    widths = sum(c.size or 0 for c in batches)
    # Every request of a batch waits for the whole execute_group call.
    execute_ms = 1e3 * sum(c.dur * (c.size or 0) for c in batches) / per
    parse_ms, submit_ms, write_ms = (
        mean_ms("serve.parse"), mean_ms("serve.submit"), mean_ms("serve.write")
    )
    return {
        "serve.parse_ms": parse_ms,
        "serve.submit_ms": submit_ms,
        "serve.execute_ms": execute_ms,
        "serve.write_ms": write_ms,
        "serve.wait_ms": submit_ms - execute_ms,
        "serve.edge_ms": latency_mean_ms - submit_ms - parse_ms - write_ms,
        "serve.batches": float(len(batches)),
        "serve.coalesce_width_mean": widths / len(batches) if batches else 0.0,
    }
