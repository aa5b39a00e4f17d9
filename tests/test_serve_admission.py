"""Serve admission refuses inputs that would break a coalesced batch.

Each request below used to pass admission and then fail (or stall)
inside the shared kernel call: a million-year horizon runs the fleet
kernel's per-year loop a million times, ``1e300`` years truncates to a
negative horizon whose ``ValueError`` answers every batchmate 500, and
a negative sweep seed fails in the draw-matrix RNG. All three answer
400 before they are queued.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ServiceError
from repro.serve import ServeConfig, SweepService
from repro.serve.requests import (
    MAX_SCENARIO_YEARS,
    execute_group,
    parse_request,
    validate_overrides,
)


def _post(kind, body):
    """One request through the service's admission path, unqueued."""
    service = SweepService(ServeConfig())
    status, payload, _ = asyncio.run(
        service._post_request(kind, json.dumps(body).encode())
    )
    assert service.queue_depth == 0
    return status, payload


def _admit(kind, body):
    request = parse_request(kind, body)
    validate_overrides(request)
    return request


def test_million_year_horizon_is_refused():
    status, payload = _post("scenario", {"overrides": {"years": 1e6}})
    assert status == 400
    assert "horizon" in payload["detail"]


def test_overflowing_horizon_is_refused():
    status, payload = _post("scenario", {"overrides": {"years": 1e300}})
    assert status == 400
    assert "horizon" in payload["detail"]


def test_negative_sweep_seed_is_refused():
    status, payload = _post(
        "sweep", {"name": "fleet_growth_lifetime", "draws": 4, "seed": -1}
    )
    assert status == 400
    assert "non-negative" in payload["detail"]


def test_horizon_limit_is_inclusive():
    request = _admit("scenario", {"overrides": {"years": MAX_SCENARIO_YEARS}})
    [response] = execute_group([request], options={})
    assert response.status == 200
    assert response.payload["row"]["year"] == 2014 + MAX_SCENARIO_YEARS - 1


def test_horizon_is_checked_beside_other_overrides():
    with pytest.raises(ServiceError, match="horizon"):
        _admit(
            "scenario",
            {"overrides": {"years": 1e6, "facility.name": "elsewhere"}},
        )
