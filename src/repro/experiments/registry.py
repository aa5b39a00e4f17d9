"""Central registry of experiment drivers.

Every driver module exposes ``run() -> ExperimentResult`` plus a
``TITLE`` constant, so listing the catalogue costs imports, not
simulations. Experiments are deterministic and take no inputs, which
makes three accelerations safe:

* an in-process result cache keyed by the driver module's source
  content (editing a driver invalidates only its own entry),
* a content-addressed on-disk cache (:class:`repro.exec.ResultCache`,
  keyed by the driver digest *and* the whole-package source
  fingerprint) shared across processes and CLI invocations — pass
  ``cache_dir=`` to opt in, and
* ``run_all(jobs=N)``, which runs the drivers the caches miss through
  :func:`repro.exec.run_sharded`, one driver per chunk. Each driver
  run persists itself to the shared disk cache, so a warm cache skips
  the run entirely and a crashed run keeps every completed result.

``run_all`` takes the :class:`~repro.exec.ExecOptions` knobs, so its
fault tolerance is the sweeps': ``retries=`` re-runs drivers that
raise or whose worker dies (deterministic seeded backoff), a
per-driver ``timeout=`` bounds hung drivers when ``jobs > 1``, and
``on_error="skip"`` returns the results that completed instead of
aborting the whole evaluation.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import os
from dataclasses import replace
from types import ModuleType
from typing import Any, Callable

from ..errors import ChunkFailedError, ExperimentError
from ..exec import (
    ExecOptions,
    ResultCache,
    cache_key,
    package_fingerprint,
    run_sharded,
    split_outcome,
)
from ..obs.recorder import active_recorder
from .result import ExperimentResult

__all__ = [
    "EXPERIMENT_IDS",
    "get_experiment",
    "experiment_title",
    "experiment_titles",
    "clear_result_cache",
    "run_experiment",
    "run_all",
]

#: Experiment id -> module path (relative to this package).
_MODULES: dict[str, str] = {
    "fig01": "fig01_ict_projections",
    "fig02": "fig02_opex_capex_shift",
    "fig05": "fig05_apple_breakdown",
    "fig06": "fig06_device_lca",
    "fig07": "fig07_generational_trends",
    "fig08": "fig08_pareto",
    "fig09": "fig09_inference",
    "fig10": "fig10_breakeven",
    "fig11": "fig11_scope_series",
    "fig12": "fig12_fb_scope3",
    "fig13": "fig13_renewable_shift",
    "fig14": "fig14_tsmc_wafer",
    "tab01": "tab01_scope_taxonomy",
    "tab02": "tab02_energy_sources",
    "tab03": "tab03_grid_intensity",
    "tab04": "tab04_macpro",
    "ext01": "ext01_scheduler",
    "ext02": "ext02_embodied_validation",
    "ext03": "ext03_node_sweep",
    "ext04": "ext04_fleet",
    "ext05": "ext05_levers",
    "ext06": "ext06_lifetime",
    "ext07": "ext07_vendor",
    "ext08": "ext08_heterogeneity",
    "ext09": "ext09_ai_growth",
    "ext10": "ext10_temporal_shifting",
    "ext11": "ext11_device_portfolio",
}

EXPERIMENT_IDS: tuple[str, ...] = tuple(_MODULES)

#: experiment id -> (source fingerprint, result). Results are served as
#: shallow copies so a caller mutating its copy cannot poison the cache.
_RESULT_CACHE: dict[str, tuple[str, ExperimentResult]] = {}


def _module(experiment_id: str) -> ModuleType:
    if experiment_id not in _MODULES:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; have {list(_MODULES)}"
        )
    return importlib.import_module(
        f".{_MODULES[experiment_id]}", package=__package__
    )


def get_experiment(experiment_id: str) -> Callable[[], ExperimentResult]:
    """Resolve an experiment id to its ``run`` callable."""
    return _module(experiment_id).run


def experiment_title(experiment_id: str) -> str:
    """The experiment's title, without running it."""
    return _module(experiment_id).TITLE


def experiment_titles() -> dict[str, str]:
    """id -> title for the whole catalogue; costs imports, not runs."""
    return {
        experiment_id: experiment_title(experiment_id)
        for experiment_id in EXPERIMENT_IDS
    }


def _fingerprint(experiment_id: str) -> str:
    """Content key: the driver module's source digest."""
    module = _module(experiment_id)
    source = getattr(module, "__file__", None)
    if source is None or not os.path.exists(source):
        return "<no-source>"
    with open(source, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _copy_result(result: ExperimentResult) -> ExperimentResult:
    return replace(
        result,
        tables=dict(result.tables),
        checks=list(result.checks),
        notes=list(result.notes),
        charts=dict(result.charts),
    )


def clear_result_cache() -> None:
    """Drop every cached experiment result (in-process entries only)."""
    _RESULT_CACHE.clear()


def _disk_key(experiment_id: str, fingerprint: str) -> str:
    """The on-disk cache key: driver digest + whole-package fingerprint.

    The package fingerprint makes the disk cache safe across sessions:
    a kernel edit anywhere in ``repro`` orphans every entry, even when
    the driver module itself is untouched (the in-process cache never
    outlives the code it ran, so it needs only the driver digest).
    """
    return cache_key("experiment", experiment_id, fingerprint, package_fingerprint())


def _lookup(
    experiment_id: str,
    fingerprint: str,
    *,
    cache: bool,
    disk: "ResultCache | None",
) -> "ExperimentResult | None":
    """A caller-owned copy of the memory-then-disk cached result, if any.

    A disk hit warms the memory cache when ``cache`` is on. A
    wrong-typed disk entry (a foreign pickle under a colliding key) is
    a miss, not an error.
    """
    recorder = active_recorder()
    if cache:
        entry = _RESULT_CACHE.get(experiment_id)
        if entry is not None and entry[0] == fingerprint:
            recorder.event("cache", scope="memory", op="hit")
            return _copy_result(entry[1])
        recorder.event("cache", scope="memory", op="miss")
    if disk is not None:
        value = disk.get(_disk_key(experiment_id, fingerprint))
        if isinstance(value, ExperimentResult):
            if cache:
                _RESULT_CACHE[experiment_id] = (fingerprint, value)
            return _copy_result(value)
    return None


def run_experiment(
    experiment_id: str,
    *,
    cache: bool = False,
    cache_dir: "str | os.PathLike[str] | None" = None,
) -> ExperimentResult:
    """Run one experiment by id and return its result.

    With ``cache=True`` a result computed earlier in this process is
    reused as long as the driver module's source is unchanged
    (experiments are deterministic and input-free, so the cache can
    only go stale through code edits — which the content key detects).
    ``cache_dir`` additionally consults and fills the shared on-disk
    cache at that directory, so results survive the process and are
    visible to concurrent workers.
    """
    recorder = active_recorder()
    if not cache and cache_dir is None:
        with recorder.span("experiment", id=experiment_id):
            return get_experiment(experiment_id)()
    fingerprint = _fingerprint(experiment_id)
    disk = ResultCache(cache_dir) if cache_dir is not None else None
    hit = _lookup(experiment_id, fingerprint, cache=cache, disk=disk)
    if hit is not None:
        return hit
    with recorder.span("experiment", id=experiment_id):
        result = get_experiment(experiment_id)()
    if disk is not None:
        disk.put(_disk_key(experiment_id, fingerprint), result)
    if cache:
        _RESULT_CACHE[experiment_id] = (fingerprint, result)
    return _copy_result(result)


def _experiment_chunk(
    payload: tuple, start: int, stop: int
) -> list[tuple[str, ExperimentResult]]:
    """Chunk kernel: ``(id, result)`` for the pending drivers ``[start, stop)``.

    Module-level so pool workers can import it by name; the payload is
    ``(pending ids, cache_dir)``. Each driver persists its result to the
    disk cache as it finishes.
    """
    experiment_ids, cache_dir = payload
    return [
        (experiment_id, run_experiment(experiment_id, cache_dir=cache_dir))
        for experiment_id in experiment_ids[start:stop]
    ]


def run_all(
    *,
    cache: bool = True,
    cache_dir: "str | os.PathLike[str] | None" = None,
    **options: Any,
) -> dict[str, ExperimentResult]:
    """Run the entire evaluation, in registry order.

    Drivers found in the in-process cache (``cache=True``) or the disk
    cache at ``cache_dir`` are served from it; the rest run through
    :func:`repro.exec.run_sharded`, one driver per chunk unless
    ``chunk_size`` says otherwise. ``options`` are the
    :class:`~repro.exec.ExecOptions` knobs, validated before any cache
    lookup: ``jobs > 1`` runs the drivers over a process pool (results
    still come back in registry order), ``retries`` re-runs drivers
    that raise or whose worker dies, ``timeout`` bounds each driver
    when ``jobs > 1``, and ``on_error="skip"`` returns whatever
    completed — missing ids in the returned mapping name the drivers
    that exhausted their attempts. Fault rules match a driver's index
    among the pending drivers.

    Under ``on_error="raise"`` an exhausted driver raises an
    :class:`~repro.errors.ExperimentError` naming its id; with no retry
    budget the driver's own exception propagates unchanged, as in
    every sharded runner.
    """
    options.setdefault("chunk_size", 1)
    on_error = ExecOptions(**options).on_error
    disk = ResultCache(cache_dir) if cache_dir is not None else None
    results: dict[str, ExperimentResult] = {}
    pending: list[str] = []
    for experiment_id in EXPERIMENT_IDS:
        if cache or disk is not None:
            hit = _lookup(
                experiment_id,
                _fingerprint(experiment_id),
                cache=cache,
                disk=disk,
            )
            if hit is not None:
                results[experiment_id] = hit
                continue
        pending.append(experiment_id)

    if pending:
        payload = (
            tuple(pending),
            os.fspath(cache_dir) if cache_dir is not None else None,
        )
        try:
            outcome = run_sharded(
                _experiment_chunk, payload, len(pending), **options
            )
        except ChunkFailedError as error:
            if on_error == "raise":
                failed = ", ".join(map(repr, pending[error.start:error.stop]))
                raise ExperimentError(
                    f"experiment {failed} failed: {error}"
                ) from error
            chunks = []  # skip mode raises only when no driver completed
        else:
            chunks, _ = split_outcome(outcome, on_error)
        for experiment_id, result in itertools.chain.from_iterable(chunks):
            if cache:
                _RESULT_CACHE[experiment_id] = (
                    _fingerprint(experiment_id),
                    result,
                )
                # Hand the caller a copy so the cached entry stays clean.
                result = _copy_result(result)
            results[experiment_id] = result

    return {
        experiment_id: results[experiment_id]
        for experiment_id in EXPERIMENT_IDS
        if experiment_id in results
    }
