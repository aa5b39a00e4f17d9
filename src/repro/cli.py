"""Command-line interface: run and render the paper's experiments.

Usage::

    python -m repro list                 # experiment ids and titles
    python -m repro run fig10            # one experiment, full render
    python -m repro run all --jobs 4     # over a process pool
    python -m repro checks               # one-line pass/fail per artifact
    python -m repro sweep fleet_growth_lifetime   # a named scenario sweep
    python -m repro sweep fleet_growth_lifetime --jobs 4 --chunk-size 64
    python -m repro sweep fleet_growth_lifetime --draws 256 --seed 1 \
        --band capex_fraction_market   # quantile bands over a draw matrix
    python -m repro trace list           # bundled intensity profiles
    python -m repro trace show india     # one profile as an ASCII chart
    python -m repro trace eval           # batched policy evaluation

``run`` and ``sweep`` share a content-addressed on-disk result cache
(default ``~/.cache/repro``; override with ``--cache-dir``, disable
with ``--no-cache``), so repeated invocations warm-start: any source
edit to the ``repro`` package invalidates every cached entry.

Long runs survive trouble: ``--retries N`` re-runs chunks whose
workers raise or die, ``--timeout S`` bounds hung chunks (needs
``--jobs`` > 1), ``--on-error skip`` degrades to partial results plus
a failure report on stderr instead of aborting, and ``sweep --resume``
warm-starts an interrupted sweep from its chunk checkpoints —
recomputing only the unfinished chunks, bit-identically.

``run`` and ``sweep`` are observable: ``--trace-out PATH`` appends a
run-scoped JSONL trace (spans, chunk attempts, retries, cache and
pool events, worker peak RSS), ``--metrics`` prints the aggregated
metrics summary to stderr after the run, and ``repro stats PATH``
renders a recorded trace into per-phase latency/throughput/cache
tables. Telemetry never enters cache keys or results: a traced run is
bit-identical to an untraced one.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from ._version import __version__
from .experiments import EXPERIMENT_IDS, experiment_titles, run_all, run_experiment
from .errors import ReproError
from .exec import FailureReport

__all__ = ["main", "build_parser"]


def _experiment_help() -> str:
    """Derive the run-target help from the registry, so it can't rot."""
    first, last = EXPERIMENT_IDS[0], EXPERIMENT_IDS[-1]
    kinds = sorted({experiment_id[:-2] for experiment_id in EXPERIMENT_IDS})
    return (
        f"experiment id ({first}..{last}; prefixes: {', '.join(kinds)}) "
        "or 'all'"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    from .scenarios import SWEEPS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Chasing Carbon' (HPCA 2021)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiment ids and titles")

    run_parser = commands.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help=_experiment_help())
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="with 'all': run the drivers over N worker processes "
        "(default: 1, inline); results are identical for every N",
    )
    _add_fault_arguments(run_parser, unit="experiment")
    _add_cache_arguments(run_parser)
    _add_obs_arguments(run_parser)

    commands.add_parser("checks", help="pass/fail summary for every artifact")

    sweep_parser = commands.add_parser(
        "sweep", help="run a named scenario sweep on the batched kernels"
    )
    sweep_parser.add_argument(
        "sweep",
        choices=sorted(SWEEPS),
        help="sweep name: "
        + "; ".join(f"{name} ({spec.description})" for name, spec in SWEEPS.items()),
    )
    sweep_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit the result table as GitHub-flavored markdown",
    )
    sweep_parser.add_argument(
        "--draws",
        type=int,
        default=None,
        metavar="N",
        help="run the distribution-tagged variant with N Monte Carlo "
        "draws per scenario; the result table carries mean/p05/p50/p95 "
        "columns",
    )
    sweep_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="draw-matrix seed for --draws (default: 0)",
    )
    sweep_parser.add_argument(
        "--band",
        metavar="METRIC",
        default=None,
        help="with --draws: also render METRIC's p5-p95 band across "
        "scenarios as a character chart",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the sweep's scenario axis over N worker processes "
        "(default: 1, inline); results are identical for every N",
    )
    sweep_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="K",
        help="scenarios per chunk (bounds peak kernel memory; default: "
        "whole sweep inline, or one chunk per job with --jobs)",
    )
    _add_fault_arguments(sweep_parser, unit="chunk")
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help="warm-start from the chunk checkpoints an interrupted run "
        "of this sweep left in the cache; only unfinished chunks are "
        "recomputed and the result is bit-identical (needs the cache)",
    )
    _add_cache_arguments(sweep_parser)
    _add_obs_arguments(sweep_parser)

    serve_parser = commands.add_parser(
        "serve",
        help="serve scenario/portfolio/sweep requests over HTTP, "
        "micro-batching concurrent requests into single kernel calls",
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8000,
        metavar="P",
        help="port to bind; 0 picks an ephemeral port (default: 8000)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per batched kernel call (default: 1, "
        "inline); per-request deadlines only cancel chunks when N > 1",
    )
    serve_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="K",
        help="scenarios per chunk inside a batch (default: planner's "
        "choice)",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry budget per chunk before a batch degrades (default: 0)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk wall-clock cap inside a batch (needs --jobs > 1)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        metavar="N",
        help="bounded admission queue depth; beyond it requests are "
        "shed with a structured 429 (default: 1024)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=1024,
        metavar="N",
        help="most requests one kernel call may answer (default: 1024)",
    )
    serve_parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="longest the dispatcher lingers so concurrent requests "
        "can join a batch; it closes early once no open connection "
        "can join (default: 5)",
    )
    serve_parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="answer every request with its own kernel call (the "
        "benchmark baseline; equivalent to --max-batch 1)",
    )
    serve_parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive infrastructure failures before the circuit "
        "breaker opens and batches degrade to inline skip-and-report "
        "execution (default: 3)",
    )
    serve_parser.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long an open breaker waits before a half-open probe "
        "(default: 30)",
    )
    serve_parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="SIGTERM drain budget: in-flight requests get this long "
        "to finish before a shutdown 503 (default: 30)",
    )
    _add_cache_arguments(serve_parser)
    _add_obs_arguments(serve_parser)

    stats_parser = commands.add_parser(
        "stats",
        help="render a --trace-out trace file into latency/cache tables",
    )
    stats_parser.add_argument(
        "trace",
        metavar="PATH",
        help="JSONL trace file written by 'repro run|sweep --trace-out'",
    )

    trace_parser = commands.add_parser(
        "trace",
        help="inspect bundled intensity traces and evaluate policies",
    )
    trace_parser.add_argument(
        "action",
        choices=("list", "show", "eval"),
        help="list profiles, show one profile's shape, or run the "
        "batched policy evaluation over the catalog",
    )
    trace_parser.add_argument(
        "profile",
        nargs="?",
        default=None,
        help="profile name for 'show' (see 'trace list')",
    )
    trace_parser.add_argument(
        "--hours",
        type=int,
        default=72,
        metavar="H",
        help="trace horizon in hours (default: 72; 'eval' needs >= 48)",
    )
    trace_parser.add_argument(
        "--capacity-kw",
        type=float,
        default=2500.0,
        metavar="KW",
        help="cluster power cap for 'eval' (default: 2500)",
    )
    trace_parser.add_argument(
        "--markdown",
        action="store_true",
        help="with 'eval': emit the result table as markdown",
    )
    return parser


def _add_fault_arguments(parser: argparse.ArgumentParser, *, unit: str) -> None:
    """The shared fault-tolerance flags of ``run`` and ``sweep``."""
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=f"retry a failed {unit} up to N times (crashes, hangs, and "
        "corrupt results included) with deterministic seeded backoff "
        "(default: no retries)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help=f"per-{unit} wall-clock timeout in seconds; a {unit} running "
        "past it is killed and charged a failed attempt (needs more "
        "than one worker process)",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="raise",
        help=f"what to do when a {unit} exhausts its attempts: abort with "
        "a structured error (raise, default) or keep the partial "
        "results and report what was skipped (skip)",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared on-disk cache flags of ``run`` and ``sweep``."""
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="on-disk result cache directory (default: ~/.cache/repro, "
        "honouring REPRO_CACHE_DIR/XDG_CACHE_HOME)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags of ``run`` and ``sweep``."""
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="append a JSONL execution trace (spans, chunk attempts, "
        "retries, cache/pool events, worker peak RSS) to PATH; render "
        "it later with 'repro stats PATH'",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the aggregated metrics summary (counters, gauges, "
        "latency histograms) to stderr after the run",
    )


@contextmanager
def _observed(
    command: str,
    target: str,
    trace_out: "str | None",
    metrics: bool,
) -> Iterator[None]:
    """Install a trace recorder around one CLI command, if asked to.

    With neither ``--trace-out`` nor ``--metrics`` this is a true
    no-op — the null recorder stays installed and the run pays
    nothing. Otherwise the whole command executes inside a ``run``
    span; the metrics summary lands on stderr (stdout stays parseable
    result output) and the trace file is flushed even when the command
    fails midway.
    """
    if trace_out is None and not metrics:
        yield
        return
    from .obs import TraceRecorder, install_recorder

    recorder = TraceRecorder(trace_out)
    try:
        with install_recorder(recorder):
            with recorder.span("run", command=command, target=target):
                yield
    finally:
        recorder.close()
        if metrics:
            print(
                "metrics: " + json.dumps(recorder.summary(), indent=2),
                file=sys.stderr,
            )


def _resolve_cache_dir(cache_dir: str | None, no_cache: bool) -> str | None:
    """The effective cache directory, or ``None`` when caching is off."""
    from .exec import default_cache_dir

    if no_cache:
        if cache_dir is not None:
            # Routed through main()'s ReproError handler: exit code 2.
            raise ReproError("--cache-dir conflicts with --no-cache")
        return None
    return cache_dir if cache_dir is not None else str(default_cache_dir())


def _command_list() -> int:
    for experiment_id, title in experiment_titles().items():
        print(f"{experiment_id}  {title}")
    return 0


#: The execution knobs ``repro run`` accepts, at their flag defaults.
_RUN_DEFAULTS = {"jobs": 1, "retries": None, "timeout": None, "skip": None}


def _exec_options(args: argparse.Namespace, knobs: Sequence[str]) -> dict:
    """The execution knobs named by ``knobs``, read off the parsed flags.

    ``--on-error skip`` becomes ``skip=``, a fresh
    :class:`~repro.exec.FailureReport` the command reads afterwards.
    """
    options = {knob: getattr(args, knob) for knob in knobs}
    options["skip"] = FailureReport() if args.on_error == "skip" else None
    return options


def _command_run(experiment: str, cache_dir: str | None, options: dict) -> int:
    if experiment != "all" and options != _RUN_DEFAULTS:
        print(
            "note: --jobs/--retries/--timeout/--on-error only apply to "
            f"'run all'; running {experiment} in-process",
            file=sys.stderr,
        )
    if experiment == "all":
        results = run_all(cache_dir=cache_dir, **options)
        failures = 0
        for experiment_id, result in results.items():
            status = "ok" if result.all_checks_pass else "FAIL"
            print(f"{status:4s} {experiment_id}  ({len(result.checks)} checks)")
            failures += len(result.failed_checks())
        skipped = [
            experiment_id
            for experiment_id in EXPERIMENT_IDS
            if experiment_id not in results
        ]
        for experiment_id in skipped:
            print(f"SKIP {experiment_id}  (exhausted its attempts)")
        return 0 if failures == 0 and not skipped else 1
    result = run_experiment(experiment, cache_dir=cache_dir)
    print(result.render())
    return 0 if result.all_checks_pass else 1


def _command_checks() -> int:
    results = run_all()
    total = sum(len(result.checks) for result in results.values())
    failing = [
        (experiment_id, check)
        for experiment_id, result in results.items()
        for check in result.failed_checks()
    ]
    print(f"{total} checks across {len(results)} experiments; "
          f"{len(failing)} failing")
    for experiment_id, check in failing:
        print(
            f"  {experiment_id} {check.name}: expected {check.expected:.4g}, "
            f"measured {check.measured:.4g}"
        )
    return 0 if not failing else 1


def _command_sweep(
    name: str,
    markdown: bool,
    draws: int | None,
    seed: int | None,
    band: str | None,
    cache_dir: str | None,
    resume: bool,
    options: dict,
) -> int:
    from .exec import ResultCache
    from .experiments.markdown import markdown_table
    from .report.tables import render_table
    from .scenarios import SWEEPS, cached_sweep

    spec = SWEEPS[name]
    disk = ResultCache(cache_dir) if cache_dir is not None else None
    if resume and disk is None:
        print(
            "error: --resume needs the on-disk cache (drop --no-cache)",
            file=sys.stderr,
        )
        return 2
    if draws is None:
        # A deterministic sweep must not silently swallow Monte Carlo
        # flags the user believes are in effect.
        for flag, value in (("--band", band), ("--seed", seed)):
            if value is not None:
                print(f"error: {flag} needs --draws", file=sys.stderr)
                return 2
    report = options["skip"]
    result, _ = cached_sweep(
        name,
        draws,
        seed if seed is not None else 0,
        cache=disk,
        resume=resume,
        **options,
    )
    if draws is None:
        table = result
        footer = f"{table.num_rows} scenarios, batched kernels"
    else:
        if band is not None and band not in result.metric_names:
            print(
                f"error: no metric {band!r}; have {result.metric_names}",
                file=sys.stderr,
            )
            return 2
        table = result.quantile_table()
        footer = (
            f"{result.num_scenarios} scenarios x {result.draws} draws "
            f"(seed {result.seed}), batched draw matrix"
        )
    if markdown:
        print(f"### {spec.name}\n\n{spec.description}\n")
        print(markdown_table(table))
    else:
        print(render_table(table, title=spec.description,
                           float_format="{:.3g}"))
        print(f"\n{footer}")
    if draws is not None and band is not None:
        from .report.charts import band_chart

        low, median, high = result.band(band)
        chart = band_chart(
            [float(index) for index in range(result.num_scenarios)],
            low,
            median,
            high,
            label=band,
        )
        # Character-cell output must be fenced to stay valid markdown.
        print(f"\n```\n{chart}\n```" if markdown else f"\n{chart}")
    if report:
        print(f"warning: {report.summary()}", file=sys.stderr)
        for failure in report.failures:
            print(
                f"  chunk {failure.index} [{failure.start}, {failure.stop}) "
                f"after {failure.attempts} attempt(s): {failure.kind}: "
                f"{failure.error}",
                file=sys.stderr,
            )
        return 1
    return 0


def _command_serve(args: argparse.Namespace, cache_dir: "str | None") -> int:
    """Run the sweep service until SIGTERM/SIGINT drains it.

    Prints the bound address on stderr once listening (stdout stays
    free for result piping) and drains gracefully on either signal:
    new requests are refused with 503s while everything already
    admitted is answered, then the process exits 0.
    """
    import asyncio
    import signal

    from .serve import ServeConfig, SweepService

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms / 1000.0,
        coalesce=not args.no_coalesce,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        retries=args.retries,
        timeout_s=args.timeout,
        cache_dir=cache_dir,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        drain_grace_s=args.drain_grace,
    )

    async def _serve() -> int:
        service = SweepService(config)
        await service.start()
        print(
            f"repro serve listening on http://{config.host}:{service.port} "
            f"(pid ready; SIGTERM drains)",
            file=sys.stderr,
            flush=True,
        )
        loop = asyncio.get_running_loop()
        drain: dict[str, asyncio.Task] = {}

        def _request_drain() -> None:
            if "task" not in drain:
                drain["task"] = loop.create_task(service.drain())

        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, _request_drain)
        await service.wait_stopped()
        abandoned = await drain["task"] if "task" in drain else 0
        print(
            f"repro serve drained ({abandoned} request(s) abandoned)",
            file=sys.stderr,
            flush=True,
        )
        return 0

    return asyncio.run(_serve())


def _command_stats(trace: str) -> int:
    from .obs import render_stats

    print(render_stats(trace))
    return 0


def _command_trace(
    action: str,
    profile: str | None,
    hours: int,
    capacity_kw: float,
    markdown: bool,
) -> int:
    from .errors import SimulationError
    from .experiments.markdown import markdown_table
    from .report.charts import line_chart, sparkline
    from .report.tables import render_table
    from .scenarios import sweep_temporal_shifting
    from .traces import profile_catalog

    if action != "show" and profile is not None:
        print(
            f"error: 'trace {action}' takes no profile argument "
            f"(got {profile!r})",
            file=sys.stderr,
        )
        return 2
    if action == "list":
        catalog = profile_catalog(hours)
        width = max(len(name) for name in catalog)
        print(f"{len(catalog)} bundled profiles over {hours} h:")
        for name, trace in catalog.items():
            print(
                f"  {name:<{width}}  mean {trace.mean_g_per_kwh:7.1f} "
                f"g/kWh  {sparkline(trace.values)}"
            )
        return 0
    if action == "show":
        if profile is None:
            print("error: 'trace show' needs a profile name", file=sys.stderr)
            return 2
        catalog = profile_catalog(hours)
        if profile not in catalog:
            raise SimulationError(
                f"unknown profile {profile!r}; run 'repro trace list'"
            )
        trace = catalog[profile]
        window = trace.cleanest_window(4.0)
        print(
            line_chart(
                [float(hour) for hour in range(len(trace))],
                {"g_per_kwh": list(trace.values)},
            )
        )
        print(
            f"{trace!r}; cleanest 4 h window starts at hour "
            f"{window.start_hour:.0f} ({window.mean_g_per_kwh:.1f} g/kWh)"
        )
        return 0
    table = sweep_temporal_shifting(hours, capacity_kw=capacity_kw)
    if markdown:
        print(markdown_table(table))
    else:
        print(
            render_table(
                table,
                title="batched policy evaluation (traces x workloads x policies)",
                float_format="{:.3g}",
            )
        )
        print(f"\n{table.num_rows} scenarios, batched evaluator")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            with _observed(
                "run", args.experiment, args.trace_out, args.metrics
            ):
                return _command_run(
                    args.experiment,
                    _resolve_cache_dir(args.cache_dir, args.no_cache),
                    _exec_options(args, ("jobs", "retries", "timeout")),
                )
        if args.command == "checks":
            return _command_checks()
        if args.command == "sweep":
            with _observed(
                "sweep", args.sweep, args.trace_out, args.metrics
            ):
                return _command_sweep(
                    args.sweep,
                    args.markdown,
                    args.draws,
                    args.seed,
                    args.band,
                    _resolve_cache_dir(args.cache_dir, args.no_cache),
                    args.resume,
                    _exec_options(
                        args, ("jobs", "chunk_size", "retries", "timeout")
                    ),
                )
        if args.command == "serve":
            with _observed(
                "serve", f"{args.host}:{args.port}", args.trace_out,
                args.metrics,
            ):
                return _command_serve(
                    args, _resolve_cache_dir(args.cache_dir, args.no_cache)
                )
        if args.command == "stats":
            return _command_stats(args.trace)
        if args.command == "trace":
            return _command_trace(
                args.action,
                args.profile,
                args.hours,
                args.capacity_kw,
                args.markdown,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")
