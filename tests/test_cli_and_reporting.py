"""Tests for the CLI, markdown report, and fleet-to-GHG reporting."""

from __future__ import annotations

import importlib

import pytest

from repro.cli import build_parser, main
from repro.datacenter.fleet import simulate_fleet
from repro.datacenter.reporting import (
    fleet_to_report_series,
    fleet_year_to_inventory,
)
from repro.errors import AccountingError
from repro.experiments import (
    EXPERIMENT_IDS,
    experiment_title,
    experiment_titles,
    run_experiment,
)
from repro.experiments import registry as experiment_registry
from repro.experiments.markdown import markdown_report, markdown_table
from repro.experiments.ext04_fleet import facebook_like_parameters
from repro.tabular import Table


class TestCLI:
    def test_parser_rejects_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "tab04" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "tab02"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out

    def test_run_all(self, capsys):
        assert main(["run", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 20

    def test_checks_command(self, capsys):
        assert main(["checks"]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_does_not_run_any_experiment(self, capsys, monkeypatch):
        """`repro list` must stay O(imports): titles come from registry
        metadata, never from executing a driver."""

        def boom(*_args, **_kwargs):
            raise AssertionError("list must not execute experiments")

        for experiment_id in EXPERIMENT_IDS:
            module = importlib.import_module(
                f"repro.experiments.{experiment_registry._MODULES[experiment_id]}"
            )
            monkeypatch.setattr(module, "run", boom)
        monkeypatch.setattr(experiment_registry, "run_experiment", boom)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == len(EXPERIMENT_IDS)

    def test_run_help_derived_from_registry(self):
        # The run target help names the real registry bounds, so new
        # experiments can't leave the text stale.
        from repro.cli import _experiment_help

        assert EXPERIMENT_IDS[0] in _experiment_help()
        assert EXPERIMENT_IDS[-1] in _experiment_help()
        assert "ext11" in _experiment_help()
        assert "sweep" in build_parser().format_help()
        assert "trace" in build_parser().format_help()

    def test_run_all_parallel(self, capsys):
        from repro.experiments import clear_result_cache

        clear_result_cache()
        assert main(["run", "all", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 20

    def test_sweep_command(self, capsys):
        assert main(["sweep", "fleet_growth_lifetime"]) == 0
        out = capsys.readouterr().out
        assert "annual_growth" in out and "capex" in out

    def test_sweep_markdown(self, capsys):
        assert main(["sweep", "provisioning_mix", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("### provisioning_mix")
        assert "| utilization_target |" in out

    def test_sweep_with_draws_reports_quantile_columns(self, capsys):
        assert main(
            ["sweep", "provisioning_mix", "--draws", "8", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "carbon_saving_fraction_p05" in out
        assert "8 draws (seed 3), batched draw matrix" in out

    def test_sweep_with_draws_markdown(self, capsys):
        assert main(
            ["sweep", "provisioning_mix", "--draws", "4", "--markdown"]
        ) == 0
        out = capsys.readouterr().out
        assert "| carbon_saving_fraction_p50 |" in out.replace("| ", "| ")

    def test_sweep_band_chart(self, capsys):
        assert main(
            [
                "sweep",
                "provisioning_mix",
                "--draws",
                "8",
                "--band",
                "carbon_saving_fraction",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "#=carbon_saving_fraction median" in out

    def test_sweep_band_is_fenced_in_markdown_mode(self, capsys):
        assert main(
            [
                "sweep",
                "provisioning_mix",
                "--draws",
                "8",
                "--band",
                "carbon_saving_fraction",
                "--markdown",
            ]
        ) == 0
        out = capsys.readouterr().out
        fence_open = out.index("```")
        assert "#=carbon_saving_fraction median" in out[fence_open:]
        assert out.rstrip().endswith("```")

    def test_sweep_band_needs_draws(self, capsys):
        assert main(
            ["sweep", "provisioning_mix", "--band", "carbon_saving_fraction"]
        ) == 2
        assert "--band needs --draws" in capsys.readouterr().err

    def test_sweep_seed_needs_draws(self, capsys):
        # A deterministic sweep must not silently ignore --seed.
        assert main(["sweep", "provisioning_mix", "--seed", "7"]) == 2
        assert "--seed needs --draws" in capsys.readouterr().err

    def test_sweep_band_unknown_metric_exits_2(self, capsys):
        assert main(
            ["sweep", "provisioning_mix", "--draws", "4", "--band", "nope"]
        ) == 2
        assert "no metric" in capsys.readouterr().err

    def test_trace_list(self, capsys):
        assert main(["trace", "list", "--hours", "24"]) == 0
        out = capsys.readouterr().out
        assert "india" in out and "iceland_ramp50" in out
        assert "g/kWh" in out

    def test_trace_show(self, capsys):
        assert main(["trace", "show", "world", "--hours", "24"]) == 0
        out = capsys.readouterr().out
        assert "cleanest 4 h window" in out
        assert "g_per_kwh" in out

    def test_trace_show_unknown_profile_exits_2(self, capsys):
        assert main(["trace", "show", "atlantis"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_show_needs_a_profile(self, capsys):
        assert main(["trace", "show"]) == 2
        assert "profile name" in capsys.readouterr().err

    def test_trace_eval_rejects_stray_profile_operand(self, capsys):
        assert main(["trace", "eval", "india"]) == 2
        assert "takes no profile argument" in capsys.readouterr().err

    def test_trace_eval_rejects_short_horizon(self, capsys):
        assert main(["trace", "eval", "--hours", "24"]) == 2
        assert "48" in capsys.readouterr().err

    def test_trace_eval(self, capsys):
        assert main(["trace", "eval", "--hours", "48"]) == 0
        out = capsys.readouterr().out
        assert "batched" in out
        assert "scenarios" in out

    def test_trace_eval_markdown(self, capsys):
        assert main(["trace", "eval", "--hours", "48", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| trace | workload | policy |" in out


class TestRegistryMetadata:
    def test_titles_match_results(self):
        for experiment_id in ("fig05", "ext04"):
            assert (
                experiment_title(experiment_id)
                == run_experiment(experiment_id).title
            )

    def test_titles_cover_the_catalogue(self):
        titles = experiment_titles()
        assert list(titles) == list(EXPERIMENT_IDS)
        assert all(titles.values())

    def test_non_positive_worker_counts_rejected(self):
        from repro.errors import ExecutionError
        from repro.experiments import run_all

        for jobs in (0, -1):
            with pytest.raises(ExecutionError, match="job count must be positive"):
                run_all(jobs=jobs)

    def test_result_cache_hits_and_isolation(self):
        from repro.experiments import clear_result_cache

        clear_result_cache()
        first = run_experiment("tab01", cache=True)
        calls = {"count": 0}
        original = experiment_registry.get_experiment

        def counting(experiment_id):
            calls["count"] += 1
            return original(experiment_id)

        experiment_registry.get_experiment = counting
        try:
            second = run_experiment("tab01", cache=True)
        finally:
            experiment_registry.get_experiment = original
        assert calls["count"] == 0  # served from cache
        assert second.title == first.title
        # Mutating a served copy must not poison the cache.
        second.tables.clear()
        third = run_experiment("tab01", cache=True)
        assert third.tables
        clear_result_cache()


class TestMarkdown:
    def test_markdown_table_shape(self):
        table = Table.from_records([{"a": 1.5, "b": True}])
        text = markdown_table(table)
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "yes" in lines[2]

    def test_markdown_report_sections(self):
        results = {"fig05": run_experiment("fig05")}
        text = markdown_report(results)
        assert text.startswith("## fig05")
        assert "all checks pass" in text
        assert "| check |" in text


class TestFleetReporting:
    @pytest.fixture(scope="class")
    def reports(self):
        return simulate_fleet(facebook_like_parameters())

    def test_inventory_totals_match_report(self, reports):
        final = reports[-1]
        inventory = fleet_year_to_inventory("sim", final)
        assert inventory.scope3_total().grams == pytest.approx(final.capex.grams)
        assert inventory.capex_fraction(market_based=True) == pytest.approx(
            final.capex_fraction_market
        )

    def test_series_covers_all_years(self, reports):
        series = fleet_to_report_series("sim", reports)
        assert series.years == [report.year for report in reports]

    def test_series_scope_table_renders(self, reports):
        series = fleet_to_report_series("sim", reports)
        table = series.scope_table()
        assert table.num_rows == len(reports)

    def test_simulated_operator_shows_paper_pattern(self, reports):
        """The simulated series reproduces Figure 11's divergence:
        location-based Scope 2 rises, market-based falls."""
        series = fleet_to_report_series("sim", reports)
        table = series.scope_table()
        location = table.column("scope2_location_t")
        market = table.column("scope2_market_t")
        assert location[-1] > location[0]
        assert market[-1] < market[0]

    def test_empty_series_rejected(self):
        with pytest.raises(AccountingError):
            fleet_to_report_series("sim", [])
