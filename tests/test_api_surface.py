"""Public-API surface checks.

A downstream user sees the library through ``repro`` and its
subpackages; these tests pin that surface: everything advertised in
``__all__`` must be importable, and every public module/class/function
must carry a docstring — the documentation deliverable, enforced.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil

import pytest

import repro

_SUBPACKAGES = (
    "repro",
    "repro.core",
    "repro.data",
    "repro.mobile",
    "repro.fab",
    "repro.datacenter",
    "repro.analysis",
    "repro.report",
    "repro.experiments",
    "repro.scenarios",
    "repro.traces",
    "repro.uncertainty",
    "repro.exec",
    "repro.obs",
    "repro.portfolio",
    "repro.serve",
)


def _all_modules() -> list[str]:
    names = []
    for package_name in _SUBPACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                names.append(f"{package_name}.{info.name}")
    return sorted(set(names))


def _modules_with_examples() -> list[str]:
    finder = doctest.DocTestFinder()
    return [
        name
        for name in _all_modules()
        if any(test.examples for test in finder.find(importlib.import_module(name)))
    ]


@pytest.mark.parametrize("module_name", _modules_with_examples())
def test_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, report=False)
    assert result.attempted > 0
    assert result.failed == 0, (
        f"{result.failed} of {result.attempted} doctest examples fail in {module_name}"
    )


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("package_name", _SUBPACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ lists {name!r}"


def test_top_level_all_is_complete_for_key_types():
    for name in (
        "Carbon", "Energy", "Power", "CarbonIntensity", "Table",
        "GHGInventory", "ProductLCA", "EmbodiedModel", "MobilePhone",
        "pixel3", "FabModel", "VendorModel", "run_experiment", "run_all",
    ):
        assert name in repro.__all__


@pytest.mark.parametrize("module_name", _all_modules())
def test_public_callables_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exports documented at their definition site
        if inspect.isclass(member) or inspect.isfunction(member):
            assert member.__doc__, f"{module_name}.{name} lacks a docstring"


def test_version_is_exposed():
    assert repro.__version__ == "1.1.0"


def test_version_has_one_source():
    # repro.__version__, the CLI --version flag, and setup.py must all
    # read the same value from repro/_version.py.
    import re
    from pathlib import Path

    from repro import _version

    assert repro.__version__ == _version.__version__
    setup_text = Path(repro.__file__).parents[2].joinpath("setup.py").read_text(
        encoding="utf-8"
    )
    assert "_version.py" in setup_text
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


#: Packages whose public functions take the execution knobs only as
#: ``**options``. ``repro.serve`` is left out: ``ServeConfig`` keeps its
#: deployment field names (``jobs``, ``chunk_size``, ``retries``).
_OPTION_PACKAGES = (
    "repro.experiments",
    "repro.scenarios",
    "repro.uncertainty",
    "repro.portfolio",
    "repro.traces",
)


def _option_knobs() -> set[str]:
    import dataclasses

    from repro.exec import ExecOptions

    return {field.name for field in dataclasses.fields(ExecOptions)}


@pytest.mark.parametrize(
    "module_name",
    [
        name
        for name in _all_modules()
        if name.startswith(_OPTION_PACKAGES)
    ],
)
def test_no_public_function_redeclares_an_execution_knob(module_name):
    # The knobs live in ExecOptions alone; runners pass **options on.
    # Positional-only parameters cannot receive a knob keyword.
    module = importlib.import_module(module_name)
    knobs = _option_knobs()
    for name, member in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(member):
            continue
        if member.__module__ != module_name:
            continue
        declared = {
            parameter.name
            for parameter in inspect.signature(member).parameters.values()
            if parameter.kind is not inspect.Parameter.POSITIONAL_ONLY
        }
        assert not declared & knobs, (
            f"{module_name}.{name} declares {sorted(declared & knobs)}; "
            "take them as **options and pass them to run_sharded"
        )


def _runner_calls() -> dict:
    """One cheap valid call per sharded runner, taking extra keywords."""
    from repro.analysis.uncertainty import Normal
    from repro.experiments import run_all
    from repro.portfolio import (
        default_catalog,
        sweep_portfolio,
        sweep_portfolio_uncertain,
    )
    from repro.scenarios import (
        example_service_mix,
        facebook_like_fleet,
        run_sweep,
        run_uncertain_sweep,
        sweep_fleet,
        sweep_provisioning,
        sweep_temporal_shifting,
    )
    from repro.traces import canonical_workloads, evaluate_policies, profile_catalog
    from repro.uncertainty import (
        sweep_fleet_uncertain,
        sweep_provisioning_uncertain,
        sweep_temporal_shifting_uncertain,
    )

    fleet = [{"annual_growth": 0.1}]
    tagged = [{"facility.pue": Normal(1.2, 0.01)}]
    cells = [{"node_shift": 0.0}]
    return {
        "sweep_fleet": lambda **kw: sweep_fleet(facebook_like_fleet(), fleet, **kw),
        "sweep_provisioning": lambda **kw: sweep_provisioning(
            *example_service_mix(), **kw
        ),
        "sweep_temporal_shifting": lambda **kw: sweep_temporal_shifting(48, **kw),
        "run_sweep": lambda **kw: run_sweep("fleet_growth_lifetime", **kw),
        "run_uncertain_sweep": lambda **kw: run_uncertain_sweep(
            "fleet_growth_lifetime", 2, **kw
        ),
        "sweep_fleet_uncertain": lambda **kw: sweep_fleet_uncertain(
            facebook_like_fleet(), tagged, draws=2, **kw
        ),
        "sweep_provisioning_uncertain": lambda **kw: sweep_provisioning_uncertain(
            *example_service_mix(), draws=2, **kw
        ),
        "sweep_temporal_shifting_uncertain": (
            lambda **kw: sweep_temporal_shifting_uncertain(48, draws=1, **kw)
        ),
        "sweep_portfolio": lambda **kw: sweep_portfolio(
            default_catalog(), cells, **kw
        ),
        "sweep_portfolio_uncertain": lambda **kw: sweep_portfolio_uncertain(
            default_catalog(), cells, draws=2, **kw
        ),
        "evaluate_policies": lambda **kw: evaluate_policies(
            profile_catalog(48), canonical_workloads(), capacity_kw=2500.0, **kw
        ),
        "run_all": run_all,
    }


_RUNNERS = (
    "sweep_fleet",
    "sweep_provisioning",
    "sweep_temporal_shifting",
    "run_sweep",
    "run_uncertain_sweep",
    "sweep_fleet_uncertain",
    "sweep_provisioning_uncertain",
    "sweep_temporal_shifting_uncertain",
    "sweep_portfolio",
    "sweep_portfolio_uncertain",
    "evaluate_policies",
    "run_all",
)


@pytest.mark.parametrize("runner", _RUNNERS)
def test_runner_validates_execution_knobs_through_exec_options(runner):
    from repro.errors import ExecutionError

    call = _runner_calls()[runner]
    with pytest.raises(TypeError, match="jobz"):
        call(jobz=2)
    with pytest.raises(ExecutionError, match="a per-chunk timeout needs jobs > 1"):
        call(timeout=1.0, jobs=1)


@pytest.mark.parametrize("runner", _RUNNERS)
def test_runner_returns_one_type_whatever_the_failure_mode(runner):
    # Skip mode fills a caller-owned report; it never changes the
    # return type, and the retired on_error knob is a misspelt one.
    from repro.errors import ExecutionError
    from repro.exec import FailureReport

    call = _runner_calls()[runner]
    report = FailureReport()
    skipped = call(skip=report)
    assert type(skipped) is type(call())
    assert not isinstance(skipped, tuple)
    assert not report and report.failures == []
    with pytest.raises(ExecutionError, match="skip must be a FailureReport"):
        call(skip="skip")
    with pytest.raises(TypeError, match="on_error"):
        call(on_error="skip")
