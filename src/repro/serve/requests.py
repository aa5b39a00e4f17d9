"""Request model and batch executors: N requests in, one kernel call out.

This module is the service's correctness core. A parsed
:class:`Request` carries a *group key*: requests with equal group keys
may be answered by one batched kernel call, and the executors below
guarantee the per-request answer is bit-identical to the answer a
direct library call would give — the batch kernels are element-wise
along the scenario axis (pinned by ``tests/test_fleet_batch.py`` and
``tests/test_portfolio*.py``), and the response schema deliberately
excludes anything batch-shaped (no global axis-column selection, no
batch indices), so a request's answer cannot depend on who it shared
a batch with.

Three request kinds exist:

* ``scenario`` — dotted-path overrides on the Facebook-like fleet
  preset, answered with the final simulated year's fleet metrics
  (one :func:`~repro.datacenter.fleet.simulate_fleet_batch` call for
  the whole batch, over cells that
  :func:`~repro.scenarios.runner.fleet_scenario_frame` builds from the
  preset's cached frame).
* ``portfolio`` — scenario-cell overrides on the (cached) default
  device catalog, answered with the fleet-aggregated
  :data:`~repro.portfolio.PORTFOLIO_METRICS` row (one
  :func:`~repro.portfolio.sweep_portfolio` call; requests only group
  when they override the same parameter names, which the portfolio
  grid contract requires).
* ``sweep`` — a registered named sweep by name (optionally with
  ``draws``/``seed``), answered with the sweep's result rows;
  identical concurrent sweep requests collapse into one execution and
  warm results come from the shared :class:`~repro.exec.ResultCache`.

Executors return one :class:`Response` per request, in request order.
Degraded execution (a ``skip`` :class:`~repro.exec.FailureReport` in
the options) attaches that report to every response it taints and
turns requests whose rows were lost into structured errors instead of
silently dropping them.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Sequence

from ..errors import ReproError, ServiceError
from ..exec import run_sharded
from ..tabular import Table

__all__ = [
    "Request",
    "Response",
    "parse_request",
    "validate_overrides",
    "execute_group",
]

#: Request kinds the service accepts, in documentation order.
KINDS = ("scenario", "portfolio", "sweep")

#: Point-evaluation kinds: no cache or checkpoint I/O, one kernel call.
CELL_KINDS = ("scenario", "portfolio")

#: The longest horizon a scenario request may simulate, in years. A
#: cell's ``years`` sets its renewable schedule's width and the fleet
#: kernel's per-year loop, so one request must not stretch either for
#: its whole batch; a century is far past any fleet's planning horizon
#: (the Facebook-like preset's ramp spans 6 years).
MAX_SCENARIO_YEARS = 100

#: What building a request's cells raises for a bad override value: a
#: broken parameter rule, or a value of the wrong type meeting a
#: comparison, ``float()`` or an attribute lookup.
_OVERRIDE_ERRORS = (
    ReproError, TypeError, ValueError, AttributeError, ArithmeticError,
)


class _CellBases(NamedTuple):
    """The constant inputs every cell request overrides."""

    fleet: Any  # the Facebook-like FleetParameters preset
    frame: Any  # its one-cell FleetFrame
    catalog: tuple  # the default DeviceSpec catalog
    columns: tuple  # the catalog's device parameter columns


@functools.cache
def _cell_bases() -> _CellBases:
    """The cell kinds' frozen, seedless inputs, built once per process.

    Every scenario request overrides the same fleet preset and every
    portfolio request prices the same catalog, so the preset's
    dataclasses, its embodied bill, its renewable schedule and the
    catalog's validated specs are never rebuilt per batch.
    """
    from ..datacenter.fleet import FleetFrame
    from ..portfolio import default_catalog
    from ..portfolio.batch import _device_columns
    from ..scenarios.presets import facebook_like_fleet

    fleet = facebook_like_fleet()
    catalog = default_catalog()
    return _CellBases(
        fleet,
        FleetFrame.from_parameters([fleet]),
        catalog,
        _device_columns(catalog),
    )


@dataclass(frozen=True)
class Request:
    """One parsed, validated service request.

    ``group_key`` decides batch membership: equal keys may share one
    kernel call. ``deadline_s`` is the client's patience budget in
    seconds from admission; the batcher converts it to an absolute
    monotonic deadline at admission time.
    """

    kind: str
    overrides: "tuple[tuple[str, Any], ...]" = ()
    sweep_name: "str | None" = None
    draws: "int | None" = None
    seed: int = 0
    deadline_s: "float | None" = None

    @property
    def group_key(self) -> tuple:
        """Batch-membership key: equal keys may coalesce."""
        if self.kind == "sweep":
            return ("sweep", self.sweep_name, self.draws, self.seed)
        if self.kind == "portfolio":
            # The portfolio grid requires every scenario to define the
            # same parameters, so only same-shaped requests may share a
            # kernel call.
            return ("portfolio", tuple(name for name, _ in self.overrides))
        return ("scenario",)

    @property
    def override_mapping(self) -> dict[str, Any]:
        """The overrides as the dict the sweep runners consume."""
        return dict(self.overrides)


@dataclass
class Response:
    """One structured reply: an HTTP-ish status plus a JSON payload."""

    status: int
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the status is a success (2xx)."""
        return 200 <= self.status < 300


def _require_mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ServiceError(f"{what} must be a JSON object, got "
                           f"{type(value).__name__}")
    return value


def _parse_overrides(body: Mapping[str, Any]) -> "tuple[tuple[str, Any], ...]":
    overrides = body.get("overrides", {})
    _require_mapping(overrides, "'overrides'")
    parsed = []
    for name in sorted(overrides):
        if not isinstance(name, str) or not name:
            raise ServiceError(f"override names must be non-empty strings, "
                               f"got {name!r}")
        value = overrides[name]
        if isinstance(value, bool) or not isinstance(
            value, (numbers.Real, str)
        ):
            raise ServiceError(
                f"override {name!r} must be a number or string, got "
                f"{type(value).__name__}"
            )
        parsed.append((name, value))
    return tuple(parsed)


def _parse_deadline(body: Mapping[str, Any]) -> "float | None":
    deadline = body.get("deadline_s")
    if deadline is None:
        return None
    if isinstance(deadline, bool) or not isinstance(deadline, numbers.Real):
        raise ServiceError(
            f"'deadline_s' must be a number of seconds, got "
            f"{type(deadline).__name__}"
        )
    if deadline <= 0:
        raise ServiceError(f"'deadline_s' must be positive, got {deadline}")
    return float(deadline)


def parse_request(kind: str, body: Any) -> Request:
    """Validate one decoded JSON body into a :class:`Request`.

    Raises :class:`~repro.errors.ServiceError` (the HTTP layer's 400)
    for unknown kinds, malformed overrides, unregistered sweep names,
    or nonsense deadlines.
    """
    from ..scenarios.runner import sweep_names

    if kind not in KINDS:
        raise ServiceError(f"unknown request kind {kind!r}; have {list(KINDS)}")
    body = _require_mapping(body, "request body")
    deadline = _parse_deadline(body)
    if kind == "sweep":
        name = body.get("name")
        if name not in sweep_names():
            raise ServiceError(
                f"unknown sweep {name!r}; have {sweep_names()}"
            )
        draws = body.get("draws")
        if draws is not None:
            if isinstance(draws, bool) or not isinstance(draws, int) or draws <= 0:
                raise ServiceError(
                    f"'draws' must be a positive integer, got {draws!r}"
                )
        seed = body.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ServiceError(
                f"'seed' must be a non-negative integer, got {seed!r}"
            )
        return Request(
            kind="sweep", sweep_name=name, draws=draws, seed=seed,
            deadline_s=deadline,
        )
    return Request(
        kind=kind, overrides=_parse_overrides(body), deadline_s=deadline
    )


def validate_overrides(request: Request) -> None:
    """Reject a cell request's bad overrides at admission, not in a batch.

    A coalesced batch shares one kernel call, so one client's bad value
    must not reach it. A scenario request's ``years`` may not pass
    :data:`MAX_SCENARIO_YEARS`, and its cell is built from the
    cached base by the same
    :func:`~repro.scenarios.runner.fleet_scenario_frame` call its batch
    makes; a portfolio request's cell runs the kernel's own parameter
    checks (:func:`~repro.portfolio.batch.check_scenario_cells`) over
    the cached catalog. Whatever either raises is a 400 here. Raises
    :class:`~repro.errors.ServiceError`.
    """
    if request.kind not in CELL_KINDS:
        return
    bases = _cell_bases()
    try:
        if request.kind == "scenario":
            from ..scenarios.runner import fleet_scenario_frame

            years = request.override_mapping.get("years")
            if isinstance(years, numbers.Real) and years > MAX_SCENARIO_YEARS:
                raise ServiceError(
                    f"years = {years!r} is past the service horizon of "
                    f"{MAX_SCENARIO_YEARS} years"
                )
            fleet_scenario_frame(
                bases.fleet, bases.frame, [request.override_mapping]
            )
        else:
            from ..portfolio.batch import check_scenario_cells

            check_scenario_cells(bases.columns, [request.override_mapping])
    except _OVERRIDE_ERRORS as error:
        raise ServiceError(f"bad overrides: {error}") from error


def _rows(table: Table, columns: Sequence[str]) -> list[dict[str, Any]]:
    """The table as JSON-ready row dicts over ``columns`` only.

    :meth:`Table.column` already returns native Python scalars.
    """
    data = [table.column(name) for name in columns]
    return [dict(zip(columns, values)) for values in zip(*data)]


def _surviving_indices(total: int, report: Any) -> list[int]:
    """Request indices whose rows survived a skip-mode run."""
    lost: set[int] = set()
    for failure in report.failures:
        lost.update(range(failure.start, failure.stop))
    return [index for index in range(total) if index not in lost]


def _scenario_chunk(payload: tuple, start: int, stop: int) -> Table:
    """Chunk kernel: coalesced scenario requests ``[start, stop)``.

    Module-level so pool workers can import it by name. The
    ``scenario`` index column is dropped *inside* the chunk so the
    response schema carries no trace of batch geometry.
    """
    from ..datacenter.fleet import simulate_fleet_batch
    from ..scenarios.runner import fleet_scenario_frame

    base, frame, records = payload
    cells = fleet_scenario_frame(base, frame, records[start:stop])
    return simulate_fleet_batch(cells).final_year_table().drop("scenario")


#: Metric columns of a portfolio response row — a fixed schema, never
#: the batch-dependent axis columns ``sweep_portfolio`` would attach.
_PORTFOLIO_COLUMNS = (
    "devices",
    "units",
    "embodied_t",
    "use_t",
    "total_t",
    "annual_t",
    "embodied_fraction",
    "break_even_days_mean",
)


def _execute_scenarios(
    requests: Sequence[Request], options: Mapping[str, Any]
) -> list[Response]:
    """One ``simulate_fleet_batch`` call for N scenario requests."""
    bases = _cell_bases()
    records = [request.override_mapping for request in requests]
    table = run_sharded(
        _scenario_chunk, (bases.fleet, bases.frame, records), len(records),
        combine=Table.concat, **options,
    )
    report = options.get("skip")
    rows = _rows(table, table.column_names)
    responses = []
    if report is not None:
        survivors = {
            index: row
            for index, row in zip(_surviving_indices(len(records), report), rows)
        }
        for index, request in enumerate(requests):
            row = survivors.get(index)
            if row is None:
                responses.append(_lost_row_response(request, report))
            else:
                responses.append(_ok_response(
                    request, row=row, degraded=True, report=report
                ))
        return responses
    return [
        _ok_response(request, row=row)
        for request, row in zip(requests, rows)
    ]


def _execute_portfolio(
    requests: Sequence[Request], options: Mapping[str, Any]
) -> list[Response]:
    """One ``sweep_portfolio`` call for N same-shaped cell requests."""
    from ..portfolio import sweep_portfolio

    records = [request.override_mapping for request in requests]
    table = sweep_portfolio(_cell_bases().catalog, records, **options)
    report = options.get("skip")
    rows = _rows(table, _PORTFOLIO_COLUMNS)
    # The portfolio shards its *device* axis: a skipped chunk loses
    # devices, not scenarios, so every request keeps a row — computed
    # over the surviving devices and flagged degraded.
    return [
        _ok_response(
            request, row=row, degraded=report is not None, report=report
        )
        for request, row in zip(requests, rows)
    ]


def _execute_sweep(
    requests: Sequence[Request], options: Mapping[str, Any], cache: Any
) -> list[Response]:
    """One named-sweep execution answering every coalesced duplicate.

    Runs through :func:`~repro.scenarios.runner.cached_sweep`, the
    ``repro sweep`` CLI's own call, so both front ends share one cache
    key, one checkpoint namespace (an interrupted run always resumes)
    and one rule: a result is cached only when no chunk failed.
    """
    from ..scenarios.runner import cached_sweep

    spec = requests[0]
    result, cached = cached_sweep(
        spec.sweep_name, spec.draws, spec.seed, cache=cache, resume=True,
        **options,
    )
    # A cache hit ran nothing, so it carries no report.
    report = None if cached else options.get("skip")
    table = result if isinstance(result, Table) else result.quantile_table()
    rows = _rows(table, table.column_names)
    return [
        _ok_response(
            request,
            rows=rows,
            cached=cached,
            degraded=report is not None,
            report=report,
        )
        for request in requests
    ]


def _ok_response(
    request: Request,
    *,
    row: "dict | None" = None,
    rows: "list | None" = None,
    cached: bool = False,
    degraded: bool = False,
    report: Any = None,
) -> Response:
    payload: dict[str, Any] = {"kind": request.kind}
    if request.kind == "sweep":
        payload["name"] = request.sweep_name
        payload["mode"] = "point" if request.draws is None else "uncertain"
        payload["cached"] = cached
    if row is not None:
        payload["row"] = row
    if rows is not None:
        payload["rows"] = rows
    payload["degraded"] = degraded
    if report is not None:
        payload["failure_report"] = report.to_dict()
    return Response(status=200, payload=payload)


def _lost_row_response(request: Request, report: Any) -> Response:
    """A request whose chunk was skipped: a structured failure, not silence."""
    return Response(
        status=500,
        payload={
            "kind": request.kind,
            "error": "chunk_failed",
            "detail": report.summary(),
            "degraded": True,
            "failure_report": report.to_dict(),
        },
    )


def execute_group(
    requests: Sequence[Request],
    *,
    options: Mapping[str, Any],
    cache: Any = None,
) -> list[Response]:
    """Answer one coalesced batch (equal group keys) with one kernel call.

    ``options`` are :class:`repro.exec.ExecOptions` keywords (``jobs``,
    ``chunk_size``, ``retries``, ``timeout``, ``skip``), passed to
    the kernels as given; ``cache`` is the shared
    :class:`~repro.exec.ResultCache` for sweep requests, which also
    holds their chunk checkpoints. Returns one
    :class:`Response` per request, in request order. Raises whatever
    the kernels raise — the service layer owns translating failures
    into degraded retries or error responses.
    """
    if not requests:
        return []
    kind = requests[0].kind
    if any(request.group_key != requests[0].group_key for request in requests):
        raise ServiceError("a batch must share one group key")
    if kind == "scenario":
        return _execute_scenarios(requests, options)
    if kind == "portfolio":
        return _execute_portfolio(requests, options)
    return _execute_sweep(requests, options, cache)
