"""``run_all``'s retry, timeout and skip paths, driven by the fault harness.

``run_all`` runs the drivers the caches miss through
:func:`repro.exec.run_sharded`, one driver per chunk, so a fault rule's
``starts`` is a driver's index among the pending drivers. Every test
here runs with ``cache=False`` (or ``--no-cache`` and a cleared memory
cache), so all 27 drivers are pending and index ``k`` is
``EXPERIMENT_IDS[k]``.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ExecutionError, ExperimentError
from repro.exec import FaultRule, FaultSpec, install_faults
from repro.experiments import (
    EXPERIMENT_IDS,
    clear_result_cache,
    run_all,
    run_experiment,
)

_INDEX = 3
_VICTIM = EXPERIMENT_IDS[_INDEX]


def _raise_on(attempts):
    return FaultSpec(
        rules=(FaultRule(kind="raise", starts=(_INDEX,), attempts=attempts),)
    )


@pytest.fixture(scope="module")
def clean():
    return run_all(cache=False)


def _assert_equal(results, clean, ids):
    assert list(results) == list(ids)
    for experiment_id in ids:
        assert results[experiment_id].checks == clean[experiment_id].checks
        assert results[experiment_id].tables == clean[experiment_id].tables


@pytest.mark.parametrize("jobs", [1, 2])
def test_retried_driver_recovers_every_result(clean, jobs):
    with install_faults(_raise_on((1,))):
        results = run_all(cache=False, jobs=jobs, retries=1)
    _assert_equal(results, clean, EXPERIMENT_IDS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_skip_leaves_out_exactly_the_exhausted_driver(clean, jobs):
    with install_faults(_raise_on(None)):
        results = run_all(cache=False, jobs=jobs, retries=1, on_error="skip")
    kept = [eid for eid in EXPERIMENT_IDS if eid != _VICTIM]
    _assert_equal(results, clean, kept)


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhaustion_names_the_driver(jobs):
    with install_faults(_raise_on(None)):
        with pytest.raises(ExperimentError, match=repr(_VICTIM)):
            run_all(cache=False, jobs=jobs, retries=1)


def test_hung_driver_is_skipped_after_its_timeout(clean):
    spec = FaultSpec(
        rules=(
            FaultRule(
                kind="hang", starts=(_INDEX,), attempts=None, seconds=30.0
            ),
        )
    )
    with install_faults(spec):
        results = run_all(cache=False, jobs=2, timeout=0.5, on_error="skip")
    kept = [eid for eid in EXPERIMENT_IDS if eid != _VICTIM]
    _assert_equal(results, clean, kept)


def test_skip_with_a_single_pending_driver_returns_the_warm_rest():
    # With every other driver warm, the failing one is the only chunk:
    # nothing completes, and the cached results still come back.
    clear_result_cache()
    try:
        for experiment_id in EXPERIMENT_IDS:
            if experiment_id != EXPERIMENT_IDS[0]:
                run_experiment(experiment_id, cache=True)
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(0,), attempts=None),)
        )
        with install_faults(spec):
            results = run_all(on_error="skip")
        assert list(results) == list(EXPERIMENT_IDS[1:])
    finally:
        clear_result_cache()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_skip_prints_the_skipped_driver(monkeypatch, capsys, jobs):
    monkeypatch.setenv("REPRO_FAULTS", _raise_on(None).to_json())
    clear_result_cache()
    try:
        code = main(
            ["run", "all", "--no-cache", "--jobs", jobs, "--on-error", "skip"]
        )
    finally:
        clear_result_cache()
    out = capsys.readouterr().out
    assert code == 1
    assert f"SKIP {_VICTIM}  (exhausted its attempts)" in out
    assert out.count("ok ") == len(EXPERIMENT_IDS) - 1


def test_bad_job_count_is_refused_even_when_every_driver_is_warm():
    clear_result_cache()
    try:
        run_all()
        with pytest.raises(ExecutionError, match="job count must be positive"):
            run_all(jobs=0)
    finally:
        clear_result_cache()
