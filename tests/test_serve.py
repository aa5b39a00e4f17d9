"""Tests for the resilient sweep service (``repro.serve``).

Covers the three layers separately and then end-to-end:

* unit: :class:`CircuitBreaker` state machine (injectable clock),
  request parsing/grouping, :class:`MicroBatcher` admission control,
  coalescing, the coalescing window's early close, deadlines, and
  drain;
* library: :func:`execute_group` answers are bit-identical to direct
  library calls regardless of batch composition;
* end-to-end: a live :class:`SweepService` over real sockets —
  health endpoints, coalesced correctness, lockstep clients that skip
  the window, chunked-body refusal, shedding, breaker
  degradation with :class:`~repro.exec.FailureReport` attachment, and
  zero-loss SIGTERM-style drains (including the real CLI process).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ChunkFailedError, ReproError, ServiceError
from repro.exec.faults import FaultRule, FaultSpec, install_faults
from repro.serve import (
    CircuitBreaker,
    DrainingError,
    MicroBatcher,
    OverloadedError,
    Request,
    Response,
    ServeConfig,
    ServiceClient,
    SweepService,
    execute_group,
    is_infrastructure_error,
    parse_request,
)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic timing."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def run_service(scenario, config: "ServeConfig | None" = None):
    """Run ``scenario(service, client)`` against a live service.

    Builds the whole stack inside one ``asyncio.run`` so plain sync
    tests can drive real sockets without pytest-asyncio.
    """

    async def runner():
        service = SweepService(config or ServeConfig())
        await service.start()
        client = ServiceClient("127.0.0.1", service.port)
        try:
            return await scenario(service, client)
        finally:
            await client.close()
            if not service.draining:
                await service.drain()

    return asyncio.run(runner())


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.coalesce
        assert config.effective_max_batch == config.max_batch
        assert config.effective_window_s == config.batch_window_s

    def test_disabling_coalescing_forces_width_one(self):
        config = ServeConfig(coalesce=False, max_batch=64, batch_window_s=0.5)
        assert config.effective_max_batch == 1
        assert config.effective_window_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"max_batch": -1},
            {"batch_window_s": -0.1},
            {"jobs": 0},
            {"breaker_threshold": 0},
            {"drain_grace_s": -1.0},
        ],
    )
    def test_rejects_nonsense_bounds(self, kwargs):
        with pytest.raises(ServiceError):
            ServeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chunk_size": 0}, "chunk size must be positive"),
            ({"retries": -1}, "retry count must be >= 0"),
            ({"timeout_s": -1.0}, "per-chunk timeout must be positive"),
            ({"jobs": 2, "timeout_s": 0.0}, "per-chunk timeout must be positive"),
        ],
    )
    def test_rejects_invalid_execution_settings(self, kwargs, message):
        # Validated through ExecOptions at construction, so a bad knob
        # cannot reach run_sharded and answer every request with a 500.
        with pytest.raises(ServiceError, match=message):
            ServeConfig(**kwargs)

    def test_timeout_is_accepted_inline(self):
        # timeout_s only reaches run_sharded when jobs > 1.
        assert ServeConfig(jobs=1, timeout_s=5.0).timeout_s == 5.0

    def test_service_error_is_a_repro_error(self):
        assert issubclass(ServiceError, ReproError)


class TestCircuitBreaker:
    def test_closed_allows_and_success_resets(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        # The success in between reset the count: still closed.
        assert breaker.state == "closed"

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=5.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # everyone else stays degraded

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_a_full_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=10.0, clock=clock
        )
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: re-open immediately
        assert breaker.state == "open"
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_snapshot_counts_trips(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.record_failure()
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "open"
        assert snapshot["trips"] == 1
        assert snapshot["failure_threshold"] == 1

    def test_infrastructure_error_classification(self):
        import concurrent.futures.process

        assert is_infrastructure_error(
            ChunkFailedError(
                "boom", index=0, start=0, stop=1, attempts=2, kind="error"
            )
        )
        assert is_infrastructure_error(
            concurrent.futures.process.BrokenProcessPool("pool died")
        )
        assert not is_infrastructure_error(ValueError("client garbage"))
        assert not is_infrastructure_error(ServiceError("bad request"))


class TestParseRequest:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown request kind"):
            parse_request("fleet", {})

    def test_body_must_be_an_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            parse_request("scenario", [1, 2])

    def test_overrides_are_sorted_and_typed(self):
        request = parse_request(
            "scenario", {"overrides": {"b": 2, "a": 1.5}}
        )
        assert request.overrides == (("a", 1.5), ("b", 2))

    @pytest.mark.parametrize(
        "value", [[1, 2], {"nested": 1}, None, True]
    )
    def test_override_values_must_be_scalars(self, value):
        with pytest.raises(ServiceError, match="number or string"):
            parse_request("scenario", {"overrides": {"x": value}})

    @pytest.mark.parametrize("deadline", [0, -1.0, "soon", True])
    def test_deadline_must_be_a_positive_number(self, deadline):
        with pytest.raises(ServiceError, match="deadline_s"):
            parse_request("scenario", {"deadline_s": deadline})

    def test_sweep_name_must_be_registered(self):
        with pytest.raises(ServiceError, match="unknown sweep"):
            parse_request("sweep", {"name": "no_such_sweep"})

    @pytest.mark.parametrize("draws", [0, -5, 2.5, True])
    def test_sweep_draws_must_be_a_positive_int(self, draws):
        with pytest.raises(ServiceError, match="draws"):
            parse_request(
                "sweep", {"name": "fleet_growth_lifetime", "draws": draws}
            )

    def test_scenario_requests_share_one_group(self):
        first = parse_request("scenario", {"overrides": {"facility.pue": 1.2}})
        second = parse_request("scenario", {"overrides": {}})
        assert first.group_key == second.group_key

    def test_portfolio_groups_by_override_names(self):
        same_a = parse_request("portfolio", {"overrides": {"lifetime_years": 3}})
        same_b = parse_request("portfolio", {"overrides": {"lifetime_years": 5}})
        other = parse_request("portfolio", {"overrides": {"units": 1}})
        assert same_a.group_key == same_b.group_key
        assert same_a.group_key != other.group_key

    def test_sweep_groups_by_name_and_mode(self):
        point = parse_request("sweep", {"name": "fleet_growth_lifetime"})
        uncertain = parse_request(
            "sweep", {"name": "fleet_growth_lifetime", "draws": 8, "seed": 1}
        )
        assert point.group_key != uncertain.group_key
        assert point.group_key == parse_request(
            "sweep", {"name": "fleet_growth_lifetime"}
        ).group_key


def _echo_execute(calls):
    """An executor stub that records batches and echoes request order."""

    async def execute(group_key, requests, budget_s):
        calls.append((group_key, [r.overrides for r in requests], budget_s))
        return [
            Response(status=200, payload={"overrides": dict(r.overrides)})
            for r in requests
        ]

    return execute


class TestMicroBatcher:
    def test_concurrent_submits_coalesce_into_one_call(self):
        async def scenario():
            calls = []
            batcher = MicroBatcher(
                _echo_execute(calls),
                max_queue=64,
                max_batch=64,
                window_s=0.01,
            )
            batcher.start()
            requests = [
                Request(kind="scenario", overrides=(("x", float(i)),))
                for i in range(8)
            ]
            responses = await asyncio.gather(
                *(batcher.submit(request) for request in requests)
            )
            await batcher.drain()
            return calls, responses

        calls, responses = asyncio.run(scenario())
        assert len(calls) == 1  # all eight shared one kernel call
        assert len(calls[0][1]) == 8
        # Each response reached the caller that asked for it.
        for index, response in enumerate(responses):
            assert response.payload["overrides"] == {"x": float(index)}

    def test_max_batch_bounds_coalescing_width(self):
        async def scenario():
            calls = []
            batcher = MicroBatcher(
                _echo_execute(calls), max_queue=64, max_batch=3, window_s=0.01
            )
            batcher.start()
            await asyncio.gather(
                *(batcher.submit(Request(kind="scenario")) for _ in range(7))
            )
            await batcher.drain()
            return [len(batch) for _, batch, _ in calls]

        widths = asyncio.run(scenario())
        assert sum(widths) == 7
        assert max(widths) <= 3

    def test_mixed_group_keys_dispatch_separately(self):
        async def scenario():
            calls = []
            batcher = MicroBatcher(
                _echo_execute(calls), max_queue=64, max_batch=64, window_s=0.01
            )
            batcher.start()
            await asyncio.gather(
                batcher.submit(Request(kind="scenario")),
                batcher.submit(
                    Request(kind="sweep", sweep_name="fleet_growth_lifetime")
                ),
                batcher.submit(Request(kind="scenario")),
            )
            await batcher.drain()
            return calls

        calls = asyncio.run(scenario())
        keys = sorted(key[0] for key, _, _ in calls)
        assert keys == ["scenario", "sweep"]
        widths = {key[0]: len(batch) for key, batch, _ in calls}
        assert widths["scenario"] == 2  # still coalesced around the sweep

    def test_full_queue_sheds_before_enqueueing(self):
        async def scenario():
            batcher = MicroBatcher(
                _echo_execute([]), max_queue=1, max_batch=1
            )
            # The dispatcher is deliberately not started, so the first
            # submission stays queued and the second must be refused.
            first = asyncio.ensure_future(
                batcher.submit(Request(kind="scenario"))
            )
            await asyncio.sleep(0)
            with pytest.raises(OverloadedError) as excinfo:
                await batcher.submit(Request(kind="scenario"))
            abandoned = await batcher.drain(0.01)
            response = await first
            return excinfo.value, abandoned, response

        error, abandoned, response = asyncio.run(scenario())
        assert error.queue_depth == 1
        assert error.limit == 1
        # Zero-loss even on the degenerate path: the queued request was
        # answered (with a shutdown 503), not dropped.
        assert abandoned == 1
        assert response.status == 503

    def test_draining_refuses_new_submissions(self):
        async def scenario():
            batcher = MicroBatcher(
                _echo_execute([]), max_queue=8, max_batch=8
            )
            batcher.start()
            await batcher.drain()
            with pytest.raises(DrainingError):
                await batcher.submit(Request(kind="scenario"))

        asyncio.run(scenario())

    def test_expired_deadline_answered_504_without_kernel_time(self):
        async def scenario():
            clock = FakeClock()
            calls = []
            batcher = MicroBatcher(
                _echo_execute(calls),
                max_queue=8,
                max_batch=8,
                clock=clock,
            )
            # Enqueue with a 1 s budget, then let 2 s "pass" before the
            # dispatcher ever runs.
            pending = asyncio.ensure_future(
                batcher.submit(Request(kind="scenario", deadline_s=1.0))
            )
            await asyncio.sleep(0)
            clock.advance(2.0)
            batcher.start()
            response = await pending
            await batcher.drain()
            return calls, response

        calls, response = asyncio.run(scenario())
        assert response.status == 504
        assert response.payload["error"] == "deadline_exceeded"
        assert calls == []  # the kernel was never invoked

    def test_tightest_live_deadline_becomes_the_batch_budget(self):
        async def scenario():
            clock = FakeClock()
            calls = []
            batcher = MicroBatcher(
                _echo_execute(calls),
                max_queue=8,
                max_batch=8,
                clock=clock,
            )
            futures = [
                asyncio.ensure_future(
                    batcher.submit(
                        Request(kind="scenario", deadline_s=deadline)
                    )
                )
                for deadline in (5.0, 2.0, None)
            ]
            await asyncio.sleep(0)
            batcher.start()
            await asyncio.gather(*futures)
            await batcher.drain()
            return calls

        calls = asyncio.run(scenario())
        assert len(calls) == 1
        assert calls[0][2] == pytest.approx(2.0)

    def test_executor_exception_answers_the_batch_with_500s(self):
        async def scenario():
            async def explode(group_key, requests, budget_s):
                raise RuntimeError("kernel blew up")

            batcher = MicroBatcher(explode, max_queue=8, max_batch=8)
            batcher.start()
            responses = await asyncio.gather(
                batcher.submit(Request(kind="scenario")),
                batcher.submit(Request(kind="scenario")),
            )
            await batcher.drain()
            return responses

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [500, 500]
        assert all("kernel blew up" in r.payload["detail"] for r in responses)

    def test_response_count_mismatch_is_caught(self):
        async def scenario():
            async def short(group_key, requests, budget_s):
                return [Response(status=200)]  # one short

            batcher = MicroBatcher(short, max_queue=8, max_batch=8)
            batcher.start()
            responses = await asyncio.gather(
                batcher.submit(Request(kind="scenario")),
                batcher.submit(Request(kind="scenario")),
            )
            await batcher.drain()
            return responses

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [500, 500]

    def test_drain_flushes_everything_admitted(self):
        async def scenario():
            started = asyncio.Event()
            release = asyncio.Event()

            async def slow(group_key, requests, budget_s):
                started.set()
                await release.wait()
                return [Response(status=200) for _ in requests]

            batcher = MicroBatcher(
                slow, max_queue=32, max_batch=1, window_s=0.0
            )
            batcher.start()
            futures = [
                asyncio.ensure_future(
                    batcher.submit(Request(kind="scenario"))
                )
                for _ in range(5)
            ]
            await started.wait()
            drain = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0)
            release.set()
            abandoned = await drain
            responses = await asyncio.gather(*futures)
            return abandoned, responses

        abandoned, responses = asyncio.run(scenario())
        assert abandoned == 0
        assert all(r.status == 200 for r in responses)


def _lingered(batcher_kwargs, submits, *, drain_after=None):
    """Submit ``submits`` requests; time how long until all are answered.

    Returns ``(elapsed_s, responses, batch_records, calls, abandoned)``.
    With ``drain_after`` set, ``drain()`` starts that many seconds in
    and ``elapsed_s`` is how long the drain itself took.
    """

    async def scenario():
        calls, batches = [], []

        def record(kind, fields):
            if kind == "batch":
                batches.append(fields)

        batcher = MicroBatcher(
            _echo_execute(calls), max_queue=64, record=record,
            **batcher_kwargs,
        )
        batcher.start()
        loop = asyncio.get_running_loop()
        began = loop.time()
        futures = [
            asyncio.ensure_future(batcher.submit(Request(kind="scenario")))
            for _ in range(submits)
        ]
        abandoned = None
        if drain_after is not None:
            await asyncio.sleep(drain_after)
            began = loop.time()
            abandoned = await batcher.drain()
        responses = await asyncio.gather(*futures)
        elapsed = loop.time() - began
        if drain_after is None:
            await batcher.drain()
        return elapsed, responses, batches, calls, abandoned

    return asyncio.run(scenario())


class TestCoalescingWindow:
    """``window_s`` bounds the linger; it closes once the batch can't grow."""

    def test_window_closes_once_no_arrival_can_join(self):
        elapsed, responses, batches, _, _ = _lingered(
            {"max_batch": 64, "window_s": 5.0, "may_grow": lambda: False}, 1
        )
        assert elapsed < 1.0
        assert [r.status for r in responses] == [200]
        assert [b["closed_by"] for b in batches] == ["idle"]

    def test_lone_request_waits_the_full_window_while_it_may_grow(self):
        elapsed, _, batches, _, _ = _lingered(
            {"max_batch": 64, "window_s": 0.3, "may_grow": lambda: True}, 1
        )
        assert elapsed >= 0.3 - 0.01
        assert [b["closed_by"] for b in batches] == ["window"]

    def test_full_front_group_dispatches_without_lingering(self):
        elapsed, _, batches, calls, _ = _lingered(
            {"max_batch": 3, "window_s": 5.0, "may_grow": lambda: True}, 3
        )
        assert elapsed < 1.0
        assert [len(batch) for _, batch, _ in calls] == [3]
        assert [b["closed_by"] for b in batches] == ["full"]

    def test_drain_wakes_a_lingering_dispatcher(self):
        elapsed, responses, batches, _, abandoned = _lingered(
            {"max_batch": 64, "window_s": 5.0}, 3, drain_after=0.05
        )
        assert elapsed < 1.0
        assert abandoned == 0
        assert [r.status for r in responses] == [200] * 3
        assert [b["closed_by"] for b in batches] == ["drain"]


def _expected_scenario_row(overrides):
    """The bit-exact row a direct library call produces for one scenario."""
    from repro.datacenter.fleet import simulate_fleet_batch
    from repro.scenarios.presets import facebook_like_fleet
    from repro.scenarios.runner import apply_overrides

    table = simulate_fleet_batch(
        [apply_overrides(facebook_like_fleet(), overrides)]
    ).final_year_table().drop("scenario")
    return {
        name: table.column(name)[0] for name in table.column_names
    }


class TestExecuteGroup:
    OPTIONS = {"jobs": 1, "chunk_size": None, "retries": None, "skip": None}

    def test_empty_batch_is_legal(self):
        assert execute_group([], options=self.OPTIONS) == []

    def test_mixed_group_keys_rejected(self):
        with pytest.raises(ServiceError, match="one group key"):
            execute_group(
                [
                    Request(kind="scenario"),
                    Request(kind="sweep", sweep_name="fleet_growth_lifetime"),
                ],
                options=self.OPTIONS,
            )

    def test_coalesced_scenarios_bit_identical_to_singles(self):
        overrides = [
            {},
            {"facility.pue": 1.2},
            {"annual_growth": 0.1},
            {"facility.pue": 1.5, "initial_servers": 40000},
        ]
        requests = [
            parse_request("scenario", {"overrides": record})
            for record in overrides
        ]
        batched = execute_group(requests, options=self.OPTIONS)
        assert all(response.status == 200 for response in batched)
        for response, record in zip(batched, overrides):
            expected = _expected_scenario_row(record)
            row = response.payload["row"]
            assert set(row) == set(expected)
            for name, value in expected.items():
                # Exact equality: coalescing must not perturb a single
                # bit relative to the direct library call.
                assert row[name] == value, name
            assert response.payload["degraded"] is False

    def test_batch_composition_cannot_leak_into_answers(self):
        target = {"facility.pue": 1.3}
        alone = execute_group(
            [parse_request("scenario", {"overrides": target})],
            options=self.OPTIONS,
        )[0]
        crowded = execute_group(
            [
                parse_request("scenario", {"overrides": {}}),
                parse_request("scenario", {"overrides": target}),
                parse_request("scenario", {"overrides": {"facility.pue": 2.0}}),
            ],
            options=self.OPTIONS,
        )[1]
        assert alone.payload == crowded.payload

    def test_portfolio_row_matches_direct_sweep(self):
        from repro.portfolio import default_catalog, sweep_portfolio

        record = {"lifetime_years": 3.0}
        direct = sweep_portfolio(default_catalog(), [record])
        response = execute_group(
            [parse_request("portfolio", {"overrides": record})],
            options=self.OPTIONS,
        )[0]
        row = response.payload["row"]
        for name in row:
            assert row[name] == direct.column(name)[0], name

    def test_sweep_rows_match_run_sweep(self):
        from repro.scenarios.runner import run_sweep

        direct = run_sweep("fleet_growth_lifetime")
        responses = execute_group(
            [
                parse_request("sweep", {"name": "fleet_growth_lifetime"}),
                parse_request("sweep", {"name": "fleet_growth_lifetime"}),
            ],
            options=self.OPTIONS,
        )
        # Two coalesced duplicates: one execution, both answered.
        for response in responses:
            rows = response.payload["rows"]
            assert len(rows) == direct.num_rows
            for index, row in enumerate(rows):
                for name, value in row.items():
                    assert value == direct.column(name)[index]

    def test_sweep_results_cache_round_trip(self, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path)
        request = parse_request("sweep", {"name": "fleet_growth_lifetime"})
        cold = execute_group([request], options=self.OPTIONS, cache=cache)[0]
        warm = execute_group([request], options=self.OPTIONS, cache=cache)[0]
        assert cold.payload["cached"] is False
        assert warm.payload["cached"] is True
        assert warm.payload["rows"] == cold.payload["rows"]

    def test_uncertain_sweep_returns_quantile_rows(self):
        from repro.scenarios.runner import run_uncertain_sweep

        direct = run_uncertain_sweep(
            "fleet_growth_lifetime", 8, 42
        ).quantile_table()
        response = execute_group(
            [
                parse_request(
                    "sweep",
                    {"name": "fleet_growth_lifetime", "draws": 8, "seed": 42},
                )
            ],
            options=self.OPTIONS,
        )[0]
        assert response.payload["mode"] == "uncertain"
        rows = response.payload["rows"]
        assert len(rows) == direct.num_rows
        for index, row in enumerate(rows):
            for name, value in row.items():
                assert value == direct.column(name)[index]


class TestServiceEndpoints:
    def test_health_ready_metrics(self):
        async def scenario(service, client):
            health = await client.healthz()
            ready = await client.readyz()
            metrics = await client.metrics()
            return health, ready, metrics

        health, ready, metrics = run_service(scenario)
        assert health[0] == 200
        assert health[1]["breaker"]["state"] == "closed"
        assert ready[0] == 200
        assert ready[1]["queue_limit"] == ServeConfig().max_queue
        assert metrics[0] == 200
        assert "metrics" in metrics[1]

    def test_unknown_route_is_404(self):
        async def scenario(service, client):
            return await client.request("GET", "/v2/scenario")

        status, payload = run_service(scenario)
        assert status == 404
        assert payload["error"] == "not_found"

    def test_wrong_methods_are_405(self):
        async def scenario(service, client):
            posted = await client.request("POST", "/healthz", {})
            got = await client.request("GET", "/v1/scenario")
            return posted, got

        posted, got = run_service(scenario)
        assert posted[0] == 405
        assert got[0] == 405

    def test_malformed_json_is_400(self):
        async def scenario(service, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            body = b"{not json"
            writer.write(
                b"POST /v1/scenario HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status_line = await reader.readline()
            writer.close()
            return status_line

        status_line = run_service(scenario)
        assert b"400" in status_line

    def test_bad_override_is_refused_at_admission(self):
        async def scenario(service, client):
            scenario_resp = await client.scenario({"no.such.path": 1.0})
            portfolio_resp = await client.portfolio({"volume": 2})
            return scenario_resp, portfolio_resp

        scenario_resp, portfolio_resp = run_service(scenario)
        assert scenario_resp[0] == 400
        assert scenario_resp[1]["error"] == "bad_request"
        assert portfolio_resp[0] == 400

    def test_oversized_body_is_413(self):
        async def scenario(service, client):
            status, payload = await client.request(
                "POST", "/v1/scenario",
                {"overrides": {}, "padding": "x" * 2048},
            )
            return status, payload

        status, payload = run_service(
            scenario, ServeConfig(max_body_bytes=1024)
        )
        assert status == 413

    def test_concurrent_clients_coalesce_and_stay_bit_identical(self):
        overrides = [
            {},
            {"facility.pue": 1.2},
            {"annual_growth": 0.1},
            {"facility.pue": 1.5},
            {"initial_servers": 40000},
            {"facility.pue": 1.1, "annual_growth": 0.2},
        ]

        async def scenario(service, client):
            clients = [
                ServiceClient("127.0.0.1", service.port) for _ in overrides
            ]
            try:
                responses = await asyncio.gather(
                    *(
                        one.scenario(record)
                        for one, record in zip(clients, overrides)
                    )
                )
            finally:
                for one in clients:
                    await one.close()
            metrics = (await client.metrics())[1]["metrics"]
            return responses, metrics

        responses, metrics = run_service(
            scenario, ServeConfig(batch_window_s=0.05)
        )
        for (status, payload), record in zip(responses, overrides):
            assert status == 200
            expected = _expected_scenario_row(record)
            for name, value in expected.items():
                assert payload["row"][name] == float(value), name
        # The six concurrent requests shared kernel calls: strictly
        # fewer batches than requests, and the width histogram saw it.
        counters = metrics["counters"]
        assert counters["serve.requests"] == len(overrides)
        assert counters["serve.batches"] < len(overrides)
        assert counters["serve.status.2xx"] == len(overrides)
        widths = metrics["histograms"]["serve.coalesce_width"]
        assert widths["max"] > 1

    def test_lockstep_clients_skip_the_window_until_a_connection_idles(self):
        from repro.portfolio import default_catalog, sweep_portfolio

        steps = [
            ("portfolio", [{"lifetime_years": 3.0}, {"lifetime_years": 4.5}]),
            ("scenario", [{"facility.pue": 1.2}, {"facility.pue": 1.4}]),
            ("portfolio", [{"lifetime_years": 2.5}, {"lifetime_years": 6.0}]),
        ]

        async def lockstep(pair, kind, records):
            loop = asyncio.get_running_loop()
            began = loop.time()
            replies = await asyncio.gather(
                *(
                    getattr(one, kind)(record)
                    for one, record in zip(pair, records)
                )
            )
            return loop.time() - began, replies

        async def scenario(service, client):
            pair = [ServiceClient("127.0.0.1", service.port) for _ in range(2)]
            idle = ServiceClient("127.0.0.1", service.port)
            try:
                for one in pair:  # open both connections up front
                    await one.healthz()
                fast = [
                    await lockstep(pair, kind, records)
                    for kind, records in steps
                ]
                await idle.healthz()  # a third connection that sends nothing
                slow = await lockstep(pair, *steps[0])
                await idle.close()
                metrics = (await pair[0].metrics())[1]["metrics"]
                return fast, slow, metrics
            finally:
                for one in pair:
                    await one.close()

        fast, slow, metrics = run_service(
            scenario, ServeConfig(batch_window_s=2.0)
        )
        catalog = default_catalog()
        for (kind, records), (elapsed, replies) in zip(steps, fast):
            assert elapsed < 1.0, (kind, elapsed)
            for record, (status, payload) in zip(records, replies):
                assert status == 200
                if kind == "portfolio":
                    direct = sweep_portfolio(catalog, [record])
                    expected = {
                        name: direct.column(name)[0] for name in payload["row"]
                    }
                else:
                    expected = _expected_scenario_row(record)
                for name, value in expected.items():
                    assert payload["row"][name] == value, (kind, name)
        # The idle third connection could still send, so the window ran
        # its full length — and the pair still coalesced.
        elapsed, replies = slow
        assert elapsed >= 2.0 - 0.01
        assert [status for status, _ in replies] == [200, 200]
        widths = metrics["histograms"]["serve.coalesce_width"]
        assert widths["count"] == len(steps) + 1
        assert widths["min"] == widths["max"] == 2
        counters = metrics["counters"]
        assert counters["serve.window.idle"] == len(steps)
        assert counters["serve.window.window"] == 1

    def test_short_cell_batches_run_inline_once_timed(self, monkeypatch):
        import threading

        import repro.serve.service as service_module

        kernel_threads = []
        real_execute_group = service_module.execute_group

        def spy(requests, **kwargs):
            kernel_threads.append((requests[0].kind, threading.get_ident()))
            return real_execute_group(requests, **kwargs)

        monkeypatch.setattr(service_module, "execute_group", spy)

        async def scenario(service, client):
            # The first batch of a kind has no timing yet: executor.
            replies = [await client.scenario({"facility.pue": 1.1})]
            timed = service._cost_s["scenario"]
            # Pin the timing the rule reads, so the routing does not
            # depend on how fast this host runs the kernel: a cheap kind
            # runs inline, one slower than the GIL switch interval goes
            # back to the executor, and sweeps always run there.
            for pue, cost_s in ((1.2, 0.0), (1.3, 0.0), (1.4, 1.0)):
                service._cost_s["scenario"] = cost_s
                replies.append(await client.scenario({"facility.pue": pue}))
            service._cost_s["sweep"] = 0.0
            replies.append(await client.sweep("fleet_growth_lifetime"))
            # Two groups in one window: the batch dispatched first has
            # the other queued behind it, so only the second runs inline.
            service._cost_s.update(scenario=0.0, portfolio=0.0)
            pair = [ServiceClient("127.0.0.1", service.port) for _ in range(2)]
            try:
                replies += await asyncio.gather(
                    pair[0].scenario({"facility.pue": 1.5}),
                    pair[1].portfolio({"lifetime_years": 3.0}),
                )
            finally:
                for one in pair:
                    await one.close()
            return threading.get_ident(), timed, replies

        loop_thread, timed, replies = run_service(
            scenario, ServeConfig(batch_window_s=0.5)
        )
        assert timed > 0
        assert [status for status, _ in replies] == [200] * 7
        for (_, payload), pue in zip(replies, (1.1, 1.2, 1.3, 1.4)):
            expected = _expected_scenario_row({"facility.pue": pue})
            for name, value in expected.items():
                assert payload["row"][name] == float(value), name
        on_loop = [thread == loop_thread for _, thread in kernel_threads]
        assert on_loop == [False, True, True, False, False, False, True]

    def test_window_counters_agree_between_trace_and_metrics(self, tmp_path):
        from repro.obs import TraceRecorder, install_recorder
        from repro.obs.recorder import load_trace
        from repro.obs.stats import trace_summary

        trace = tmp_path / "serve.jsonl"

        async def scenario(service, client):
            others = [ServiceClient("127.0.0.1", service.port) for _ in range(3)]
            try:
                for one in others:
                    await one.healthz()
                for pue in (1.1, 1.3):
                    await asyncio.gather(
                        *(one.scenario({"facility.pue": pue}) for one in others)
                    )
                await others[0].scenario({})  # the other two stay open
                return (await others[0].metrics())[1]["metrics"]
            finally:
                for one in others:
                    await one.close()

        recorder = TraceRecorder(trace)
        try:
            with install_recorder(recorder):
                live = run_service(scenario, ServeConfig(batch_window_s=0.05))
        finally:
            recorder.close()
        replayed = trace_summary(load_trace(trace))
        names = {
            name for name in live["counters"] if name.startswith("serve.window.")
        }
        assert names == {"serve.window.idle", "serve.window.window"}
        for name in names:
            assert replayed["counters"][name] == live["counters"][name], name
        assert sum(live["counters"][name] for name in names) == (
            live["counters"]["serve.batches"]
        )

    def test_chunked_body_is_refused_with_501_and_never_routed(self):
        smuggled = b"POST /v1/scenario HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"

        async def scenario(service, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(
                b"POST /v1/scenario HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"%x\r\n%s\r\n0\r\n\r\n" % (len(smuggled), smuggled)
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            metrics = (await client.metrics())[1]["metrics"]
            return raw, metrics

        raw, metrics = run_service(scenario)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 Not Implemented")
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == "not_implemented"
        # One reply, then the server closed: neither the chunked request
        # nor the request hidden in its chunk reached the batcher.
        assert raw.count(b"HTTP/1.1 ") == 1
        assert "serve.requests" not in metrics["counters"]

    def test_sweep_requests_share_the_warm_cache(self, tmp_path):
        async def scenario(service, client):
            cold = await client.sweep("fleet_growth_lifetime")
            warm = await client.sweep("fleet_growth_lifetime")
            return cold, warm

        cold, warm = run_service(
            scenario, ServeConfig(cache_dir=str(tmp_path))
        )
        assert cold[0] == warm[0] == 200
        assert cold[1]["cached"] is False
        assert warm[1]["cached"] is True
        assert warm[1]["rows"] == cold[1]["rows"]

    def test_overload_sheds_with_429_and_retry_after(self):
        async def scenario(service, client):
            started = asyncio.Event()
            release = asyncio.Event()

            async def stall(group_key, requests, budget_s):
                started.set()
                await release.wait()
                return [
                    Response(status=200, payload={"kind": r.kind})
                    for r in requests
                ]

            service._batcher._execute = stall
            clients = [
                ServiceClient("127.0.0.1", service.port) for _ in range(4)
            ]
            try:
                first = asyncio.ensure_future(clients[0].scenario({}))
                # Wait until the stalled batch is in flight (the queue
                # slot is free again) ...
                await asyncio.wait_for(started.wait(), 10)
                # ... then fill the one queue slot ...
                second = asyncio.ensure_future(clients[1].scenario({}))
                for _ in range(2000):
                    if service.queue_depth >= 1:
                        break
                    await asyncio.sleep(0.005)
                assert service.queue_depth >= 1
                # ... so this one must shed.
                shed = await clients[2].scenario({})
                release.set()
                ok = await asyncio.gather(first, second)
                metrics = (await client.metrics())[1]["metrics"]
                return shed, ok, metrics
            finally:
                for one in clients:
                    await one.close()

        shed, ok, metrics = run_service(
            scenario,
            ServeConfig(max_queue=1, max_batch=1, batch_window_s=0.0),
        )
        status, payload = shed
        assert status == 429
        assert payload["error"] == "overloaded"
        assert payload["queue_limit"] == 1
        assert payload["retry_after_s"] == 1.0
        assert all(status == 200 for status, _ in ok)
        assert metrics["counters"]["serve.shed"] >= 1

    def test_breaker_trips_to_degraded_responses_with_report(self):
        # Only chunk 0 faults (every attempt): with chunk_size=1 the
        # two-request batch has a failing chunk and a surviving one.
        spec = FaultSpec(
            rules=(FaultRule(kind="raise", starts=(0,), attempts=None),)
        )

        async def scenario(service, client):
            requests = [
                parse_request("scenario", {"overrides": {}}),
                parse_request(
                    "scenario", {"overrides": {"facility.pue": 1.2}}
                ),
            ]
            with install_faults(spec):
                responses = await service._execute_batch(
                    requests[0].group_key, requests, None
                )
                health_open = (await client.healthz())[1]
            # Faults disarmed: the next request is the half-open probe
            # (reset timeout 0) and must close the breaker again.
            recovered = await client.scenario({"facility.pue": 1.2})
            health_closed = (await client.healthz())[1]
            return responses, health_open, recovered, health_closed

        responses, health_open, recovered, health_closed = run_service(
            scenario,
            ServeConfig(
                chunk_size=1, retries=1,
                breaker_threshold=1, breaker_reset_s=0.0,
            ),
        )
        # Primary exhausted its retries (ChunkFailedError), the breaker
        # tripped, and the degraded rerun skipped the still-faulting
        # chunk: the lost request gets a structured failure, its
        # batchmate a degraded-but-correct answer, both with the report.
        lost, survived = responses
        assert lost.status == 500
        assert lost.payload["error"] == "chunk_failed"
        assert lost.payload["degraded"] is True
        assert lost.payload["failure_report"]["failures"]
        assert "ChunkFailedError" in lost.payload["breaker_cause"]
        assert survived.status == 200
        assert survived.payload["degraded"] is True
        assert survived.payload["failure_report"]["failures"]
        expected = _expected_scenario_row({"facility.pue": 1.2})
        assert survived.payload["row"]["capex_kt"] == float(
            expected["capex_kt"]
        )
        assert health_open["breaker"]["state"] == "open"
        assert health_open["breaker"]["trips"] == 1
        status, payload = recovered
        assert status == 200
        assert payload["degraded"] is False
        assert payload["row"]["capex_kt"] == float(expected["capex_kt"])
        assert health_closed["breaker"]["state"] == "closed"

    def test_request_errors_do_not_trip_the_breaker(self):
        async def scenario(service, client):
            for _ in range(5):
                status, _ = await client.request(
                    "POST", "/v1/sweep", {"name": "nope"}
                )
                assert status == 400
            return (await client.healthz())[1]["breaker"]

        breaker = run_service(scenario, ServeConfig(breaker_threshold=1))
        assert breaker["state"] == "closed"
        assert breaker["trips"] == 0

    def test_drain_answers_everything_admitted_and_refuses_the_rest(self):
        async def scenario(service, client):
            release = asyncio.Event()
            started = asyncio.Event()

            async def stall(group_key, requests, budget_s):
                started.set()
                await release.wait()
                return [
                    Response(status=200, payload={"kind": r.kind})
                    for r in requests
                ]

            service._batcher._execute = stall
            clients = [
                ServiceClient("127.0.0.1", service.port) for _ in range(6)
            ]
            try:
                inflight = [
                    asyncio.ensure_future(one.scenario({})) for one in clients
                ]
                await started.wait()
                ready_before = await client.readyz()
                drain = asyncio.ensure_future(service.drain())
                await asyncio.sleep(0.01)
                release.set()
                abandoned = await drain
                responses = await asyncio.gather(*inflight)
                # The listener is closed now: a fresh connection fails.
                refused = None
                try:
                    late = ServiceClient("127.0.0.1", service.port)
                    await late.scenario({})
                except (ConnectionError, ServiceError) as error:
                    refused = error
                return ready_before, abandoned, responses, refused
            finally:
                for one in clients:
                    await one.close()

        ready_before, abandoned, responses, refused = run_service(
            scenario, ServeConfig(max_batch=1, batch_window_s=0.0)
        )
        assert ready_before[0] == 200
        assert abandoned == 0
        # Zero-loss: every request accepted before SIGTERM was answered.
        assert [status for status, _ in responses] == [200] * 6
        assert refused is not None

    def test_readyz_reports_draining(self):
        async def scenario(service, client):
            # Keep one connection open across the drain so the closed
            # listener doesn't matter; drain() closes idle keep-alives,
            # so probe state directly.
            await service.drain()
            status, payload = service._get_readyz()
            return status, payload

        status, payload = run_service(scenario)
        assert status == 503
        assert payload["status"] == "draining"


class TestServeCli:
    def test_cli_serves_and_drains_on_sigterm(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        trace_path = tmp_path / "serve-trace.jsonl"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--batch-window-ms", "1",
                "--trace-out", str(trace_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "listening on http://" in banner
            port = int(banner.rsplit(":", 1)[1].split()[0])
            body = json.dumps(
                {"overrides": {"facility.pue": 1.2}}
            ).encode()
            with urllib.request.urlopen(
                urllib.request.Request(
                    f"http://127.0.0.1:{port}/v1/scenario",
                    data=body,
                    headers={"Content-Type": "application/json"},
                ),
                timeout=30,
            ) as response:
                assert response.status == 200
                payload = json.loads(response.read())
            expected = _expected_scenario_row({"facility.pue": 1.2})
            assert payload["row"]["capex_kt"] == float(expected["capex_kt"])
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        except BaseException:
            process.kill()
            process.wait()
            raise
        assert process.returncode == 0, stderr
        assert "drained (0 request(s) abandoned)" in stderr
        # The trace the run left behind replays into the same counters
        # the live /metrics endpoint was serving.
        from repro.obs.recorder import load_trace
        from repro.obs.stats import trace_summary

        summary = trace_summary(load_trace(trace_path))
        assert summary["counters"]["serve.requests"] == 1
        assert summary["counters"]["serve.status.2xx"] == 1

    @pytest.mark.parametrize(
        "flags",
        [["--chunk-size", "0"], ["--retries", "-1"], ["--timeout", "-1"]],
    )
    def test_invalid_execution_flags_exit_2_before_binding(self, flags):
        # A subprocess with a timeout: a server that wrongly binds would
        # otherwise serve forever.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 2, result.stderr
        assert "invalid execution settings" in result.stderr
        assert "listening" not in result.stderr

    def test_serve_flags_parse(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        help_text = capsys.readouterr().out
        for flag in (
            "--max-queue", "--max-batch", "--batch-window-ms",
            "--no-coalesce", "--breaker-threshold", "--breaker-reset",
            "--drain-grace", "--cache-dir", "--trace-out",
        ):
            assert flag in help_text
