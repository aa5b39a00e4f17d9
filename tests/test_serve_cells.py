"""Serve cell batches: per-process bases, admission and the halving retry.

Scenario and portfolio requests ("cells") override constant inputs —
the Facebook-like fleet preset and the default device catalog. The
service builds those once per process; a scenario batch takes the
preset's gathered frame for every cell and swaps numeric overrides in
as columns. These tests pin that:

* the constant inputs are not rebuilt per batch (call counts);
* served scenario rows stay bit-identical (``==``) to direct
  ``simulate_fleet_batch([apply_overrides(preset, overrides)])`` calls,
  whichever path each override takes;
* admission builds the request's own cell, so bad values answer 400
  before they can reach a coalesced batch;
* a batch the kernel still refuses is split in halves until only the
  bad request fails: it answers 400, its batchmates 200, in about
  ``2 * log2(width)`` reruns.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServiceError, SimulationError
from repro.portfolio import default_catalog, sweep_portfolio
from repro.portfolio.batch import _device_columns, _parameter_grid, _validate_params
from repro.portfolio.catalog import OVERRIDABLE_FIELDS
from repro.serve import ServeConfig, ServiceClient, execute_group, parse_request
from repro.serve import service as service_module
from repro.serve.requests import validate_overrides

from test_serve import _expected_scenario_row as _direct_scenario_row
from test_serve import run_service

OPTIONS = {"jobs": 1, "chunk_size": None, "retries": None, "on_error": "raise"}


def _direct_portfolio_row(overrides, columns):
    table = sweep_portfolio(default_catalog(), [overrides])
    return {name: table.column(name)[0] for name in columns}


def _serve(kind, records):
    requests = [parse_request(kind, {"overrides": record}) for record in records]
    for request in requests:
        validate_overrides(request)
    return execute_group(requests, options=OPTIONS)


class TestBasesBuiltOncePerProcess:
    def test_batches_reuse_the_bases(self, monkeypatch):
        import repro.datacenter.fleet as fleet_module
        import repro.portfolio as portfolio_package
        import repro.portfolio.catalog as catalog_module
        import repro.scenarios.presets as presets_module
        import repro.scenarios.runner as runner_module
        from repro.datacenter.server import ServerConfig
        from repro.portfolio.catalog import DeviceSpec

        calls = {}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(presets_module, "facebook_like_fleet")
        counted(catalog_module, "default_catalog")
        counted(portfolio_package, "default_catalog")
        counted(DeviceSpec, "__post_init__")
        counted(ServerConfig, "embodied_carbon")
        counted(fleet_module, "_portfolio_schedule")
        counted(runner_module, "apply_overrides")

        _serve("scenario", [{"facility.pue": 1.2}])  # warm-up
        _serve("portfolio", [{"lifetime_years": 3.0}])
        calls.clear()
        for step in range(50):
            scenario = _serve("scenario", [
                {"facility.pue": 1.1 + step / 100},
                {"years": 5.0, "initial_servers": 40000 + step},
            ])
            portfolio = _serve("portfolio", [
                {"lifetime_years": 2.0 + step / 10},
                {"lifetime_years": 4},
            ])
            assert all(r.status == 200 for r in scenario + portfolio)
        assert calls == {}

        # Any other override still takes the gather path, bit-identically.
        record = {"facility.name": "elsewhere", "facility.pue": 1.3}
        (response,) = _serve("scenario", [record])
        assert calls["apply_overrides"] >= 1
        assert response.payload["row"] == _direct_scenario_row(record)


#: A valid value range per numeric override path of the preset. Idle
#: stays below every peak so the dataclasses accept any order.
_RANGES = {
    "initial_servers": (1, 80_000),
    "annual_growth": (0.0, 1.0),
    "utilization": (0.0, 1.0),
    "years": (1, 10),
    "start_year": (2000, 2030),
    "server.lifetime_years": (1, 8),
    "server.idle_power.watts_value": (1, 200),
    "server.peak_power.watts_value": (300, 900),
    "facility.pue": (1, 2),
    "facility.construction_carbon.grams": (0, 2 * 10**11),
    "facility.lifetime_years": (1, 40),
    "location_intensity.grams_per_kwh": (0, 900),
    # Not a frame column: a new bill goes through the gather path.
    "server.bill.dram_gb": (0, 1024),
}
_NAMES = ("facility.name", "server.name")


@st.composite
def _override_record(draw):
    record = {}
    paths = draw(st.lists(st.sampled_from(sorted(_RANGES)), unique=True, max_size=4))
    for path in paths:
        low, high = _RANGES[path]
        # Ints and floats both: counts given as floats truncate.
        record[path] = draw(
            st.integers(low, high) | st.floats(float(low), float(high))
        )
    if draw(st.booleans()):
        record[draw(st.sampled_from(_NAMES))] = draw(
            st.text("abcxyz_", min_size=1, max_size=8)
        )
    return record


class TestServedScenarioEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_override_record(), min_size=1, max_size=6))
    def test_served_batch_matches_direct_calls(self, records):
        responses = _serve("scenario", records)
        for response, record in zip(responses, records):
            assert response.status == 200
            assert response.payload["row"] == _direct_scenario_row(record)

    def test_truncating_counts(self):
        records = [{"years": 5.0}, {"initial_servers": 40000}, {"years": 4.9}]
        responses = _serve("scenario", records)
        for response, record in zip(responses, records):
            assert response.payload["row"] == _direct_scenario_row(record)


def _refused(kind, overrides):
    with pytest.raises(ServiceError) as raised:
        validate_overrides(parse_request(kind, {"overrides": overrides}))
    return str(raised.value)


class TestAdmission:
    def test_string_on_a_numeric_scenario_path(self):
        assert "bad overrides" in _refused("scenario", {"facility.pue": "1.2"})

    def test_string_renewable_ramp(self):
        assert "bad overrides" in _refused("scenario", {"renewable_ramp": "x"})

    def test_count_that_truncates_to_zero(self):
        assert "years = 0.5 must be >= 1" in _refused("scenario", {"years": 0.5})

    def test_unknown_scenario_path(self):
        assert "no field" in _refused("scenario", {"no.such.path": 1.0})

    def test_string_on_a_numeric_portfolio_field(self):
        message = _refused("portfolio", {"lifetime_years": "3"})
        assert "holds non-numeric '3'" in message

    @pytest.mark.parametrize(
        ("overrides", "rule"),
        [
            ({"lifetime_years": -1.0}, "lifetime_years must be positive"),
            ({"node_shift": 0.5}, "node_shift must be an integral number"),
            ({"standby_power_w": 1e4}, "active_power_w is below standby"),
        ],
    )
    def test_portfolio_values_meet_the_kernel_rules(self, overrides, rule):
        assert rule in _refused("portfolio", overrides)

    @pytest.mark.parametrize(
        "field", sorted(set(OVERRIDABLE_FIELDS) - {"node"})
    )
    def test_portfolio_admission_refuses_what_the_full_checks_refuse(
        self, field
    ):
        # Admission checks only the rules that read an overridden field.
        columns = _device_columns(default_catalog())
        for value in (-1.0, 0.0, 0.5, 1.0, 1.5, 30.0, 1e4, math.inf, math.nan):
            params, _, _, names, fields = _parameter_grid(
                columns, [{field: value}]
            )
            try:
                _validate_params(params, names, fields)
            except SimulationError as error:
                assert _refused("portfolio", {field: value}).endswith(
                    str(error)
                ), value
            else:
                validate_overrides(
                    parse_request("portfolio", {"overrides": {field: value}})
                )

    def test_unknown_portfolio_field(self):
        assert "cannot sweep 'colour'" in _refused("portfolio", {"colour": 1})

    @pytest.mark.parametrize("node", [7, "3nm-ish"])
    def test_unknown_or_non_string_node(self, node):
        assert "unknown process node" in _refused("portfolio", {"node": node})

    def test_valid_requests_pass(self):
        validate_overrides(parse_request("scenario", {"overrides": {
            "facility.pue": 1.2, "facility.name": "x", "years": 4,
        }}))
        validate_overrides(parse_request("portfolio", {"overrides": {
            "node": "7nm", "node_shift": 1.0, "lifetime_years": 3,
        }}))

    def test_live_service_answers_every_bad_request_with_400(self):
        bad = [
            ("scenario", {"facility.pue": "1.2"}),
            ("scenario", {"renewable_ramp": "x"}),
            ("scenario", {"years": 0.5}),
            ("portfolio", {"lifetime_years": "3"}),
            ("portfolio", {"node": 7}),
            ("portfolio", {"node_shift": 0.5}),
            # Passes admission; only the kernel's metrics refuse it.
            ("portfolio", {"die_area_mm2": 80000.0}),
        ]

        async def scenario(service, client):
            replies = [
                await getattr(client, kind)(overrides) for kind, overrides in bad
            ]
            replies.append(await client.scenario({"facility.pue": 1.2}))
            return replies

        replies = run_service(scenario)
        for (status, payload), (kind, overrides) in zip(replies, bad):
            assert status == 400, (kind, overrides, payload)
            assert payload["error"] == "bad_request"
        assert replies[-1][0] == 200


def _concurrent(kind, records, config=None):
    """Send ``records`` at once from open connections; replies and widths."""

    async def scenario(service, client):
        clients = [ServiceClient("127.0.0.1", service.port) for _ in records]
        try:
            for one in clients:  # open every connection up front
                await one.healthz()
            replies = await asyncio.gather(*(
                getattr(one, kind)(record) for one, record in zip(clients, records)
            ))
            metrics = (await clients[0].metrics())[1]["metrics"]
        finally:
            for one in clients:
                await one.close()
        return replies, metrics["histograms"]["serve.coalesce_width"]

    return run_service(scenario, config or ServeConfig(batch_window_s=2.0))


class TestOneBadCellDoesNotFailItsBatch:
    @pytest.mark.parametrize(
        ("kind", "bad", "good", "coalesced"),
        [
            # Refused at admission: the good request runs alone.
            ("portfolio", {"lifetime_years": "3"}, {"lifetime_years": 3.0}, False),
            ("scenario", {"years": 0.5}, {"facility.pue": 1.2}, False),
            ("portfolio", {"lifetime_years": -1.0}, {"lifetime_years": 3.0}, False),
            # Admitted and coalesced; the kernel refuses the pair, so
            # each request reruns alone. No wafer holds a die that big.
            ("portfolio", {"die_area_mm2": 80000.0}, {"die_area_mm2": 100.0}, True),
            # A dark fleet under a renewable contract: every value
            # passes its rule, but there is no demand to cover.
            ("scenario",
             {"server.idle_power.watts_value": 0.0, "utilization": 0.0},
             {"facility.pue": 1.2}, True),
        ],
    )
    def test_bad_request_answers_400_and_its_batchmate_200(
        self, kind, bad, good, coalesced
    ):
        replies, widths = _concurrent(kind, [bad, good])
        (bad_status, bad_payload), (status, payload) = replies
        assert bad_status == 400
        assert bad_payload["error"] == "bad_request"
        assert status == 200
        if kind == "scenario":
            expected = _direct_scenario_row(good)
        else:
            expected = _direct_portfolio_row(good, payload["row"])
        assert payload["row"] == expected
        assert widths["max"] == (2 if coalesced else 1)

    def test_every_request_valid_keeps_one_batch(self):
        records = [{"lifetime_years": 3.0}, {"lifetime_years": 4.5}]
        replies, widths = _concurrent("portfolio", records)
        assert widths["count"] == 1 and widths["max"] == 2
        for (status, payload), record in zip(replies, records):
            assert status == 200
            assert payload["row"] == _direct_portfolio_row(record, payload["row"])

    def test_retried_refusal_is_still_the_clients_error(self):
        # With retries armed the runner wraps the kernel's refusal in a
        # ChunkFailedError; it must not trip the breaker or degrade.
        config = ServeConfig(batch_window_s=2.0, retries=2)
        records = [{"die_area_mm2": 80000.0}, {"die_area_mm2": 100.0}]
        replies, widths = _concurrent("portfolio", records, config)
        (bad_status, bad_payload), (status, payload) = replies
        assert bad_status == 400 and bad_payload["error"] == "bad_request"
        assert "zero good dies" in bad_payload["detail"]
        assert status == 200 and payload["degraded"] is False
        assert payload["row"] == _direct_portfolio_row(records[1], payload["row"])
        assert widths["max"] == 2

    def test_one_bad_request_in_a_wide_batch_costs_log_reruns(self, monkeypatch):
        calls = []
        real = service_module.execute_group

        def counted(requests, **kwargs):
            calls.append(len(requests))
            return real(requests, **kwargs)

        monkeypatch.setattr(service_module, "execute_group", counted)
        records = [{"die_area_mm2": 50.0 + index} for index in range(16)]
        records[11] = {"die_area_mm2": 80000.0}
        replies, widths = _concurrent("portfolio", records)
        assert widths["max"] == 16
        # The batch, then both halves at each of log2(16) levels.
        assert sorted(calls, reverse=True) == [16, 8, 8, 4, 4, 2, 2, 1, 1]
        for index, ((status, payload), record) in enumerate(zip(replies, records)):
            if index == 11:
                assert status == 400 and payload["error"] == "bad_request"
            else:
                assert status == 200
                assert payload["row"] == _direct_portfolio_row(
                    record, payload["row"]
                )
