"""One cache rule for named sweeps, through both front ends.

``repro sweep`` and ``repro serve``'s ``/v1/sweep`` both run a named
sweep through :func:`repro.scenarios.cached_sweep`: a result is cached
only when no chunk failed. Here a ``REPRO_FAULTS`` rule fails the
sweep's first chunk on every attempt.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.exec import (
    FailureReport,
    FaultRule,
    FaultSpec,
    ResultCache,
    cache_key,
    package_fingerprint,
)
from repro.serve.requests import execute_group, parse_request

_SWEEP = "fleet_growth_lifetime"
_FIRST_CHUNK_FAILS = FaultSpec(
    rules=(FaultRule(kind="raise", starts=(0,), attempts=None),)
)
_SERVE_OPTIONS = {"jobs": 1, "chunk_size": 4}


def _whole_run_entry(directory):
    key = cache_key("sweep", _SWEEP, "point", package_fingerprint())
    return ResultCache(directory).get(key)


@pytest.fixture
def first_chunk_fails(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", _FIRST_CHUNK_FAILS.to_json())


def _cli(directory):
    argv = ["sweep", _SWEEP, "--jobs", "2", "--on-error", "skip"]
    return main(argv + ["--cache-dir", str(directory)])


def _serve(cache):
    request = parse_request("sweep", {"name": _SWEEP})
    # Serve's degraded path: a fresh skip report per batch.
    options = {**_SERVE_OPTIONS, "skip": FailureReport()}
    return execute_group([request], options=options, cache=cache)[0]


def test_cli_never_caches_a_partial_sweep(tmp_path, capsys, first_chunk_fails):
    assert _cli(tmp_path) == 1
    assert "warning:" in capsys.readouterr().err
    assert _whole_run_entry(tmp_path) is None


def test_serve_never_caches_a_degraded_sweep(tmp_path, first_chunk_fails):
    response = _serve(ResultCache(tmp_path))
    assert response.payload["degraded"] is True
    assert response.payload["failure_report"]["failures"]
    assert _whole_run_entry(tmp_path) is None


def test_cli_caches_a_skip_run_with_nothing_skipped(tmp_path, capsys):
    assert _cli(tmp_path) == 0
    cold = capsys.readouterr().out
    assert _whole_run_entry(tmp_path) is not None
    assert _cli(tmp_path) == 0
    assert capsys.readouterr().out == cold


def test_serve_caches_a_skip_run_with_nothing_skipped(tmp_path):
    cache = ResultCache(tmp_path)
    cold = _serve(cache)
    assert cold.payload["cached"] is False
    assert _whole_run_entry(tmp_path) is not None
    warm = _serve(cache)
    assert warm.payload["cached"] is True
    assert warm.payload["rows"] == cold.payload["rows"]


def test_front_ends_share_the_entry(tmp_path, capsys):
    assert _cli(tmp_path) == 0
    capsys.readouterr()
    assert _serve(ResultCache(tmp_path)).payload["cached"] is True
