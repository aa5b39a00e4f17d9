"""The ``serve_cells`` workload: a live ``repro serve`` under a closed loop.

The service runs in a subprocess started through ``serve_launcher.py``
(default config, no cache, ephemeral port). Two keep-alive connections
from one asyncio thread send in lockstep: at each step both send the
same kind, alternating ``portfolio`` (``lifetime_years`` cycled) and
``scenario`` (``facility.pue`` cycled), so each step can coalesce into
one batch. Every response row is checked against the direct library
answer for its override value, computed in set-up.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

from common import HERE, ROOT, SETUP_REPS, SRC, Outcome, percentile
import oracle

from repro.datacenter.fleet import simulate_fleet_batch
from repro.portfolio import PORTFOLIO_METRICS, default_catalog, sweep_portfolio
from repro.scenarios import apply_overrides, facebook_like_fleet

KINDS = ("portfolio", "scenario")
PATHS = {"portfolio": "lifetime_years", "scenario": "facility.pue"}
CONNECTIONS = 2
WARMUP_STEPS = 25
START_TIMEOUT_S = 60.0


def override_values(seed: int, count: int = 16) -> dict[str, list[float]]:
    """Seeded override values per kind, cycled by the load loop."""
    rng = random.Random(seed)
    return {
        "portfolio": [round(rng.uniform(1.5, 6.0), 4) for _ in range(count)],
        "scenario": [round(rng.uniform(1.05, 1.6), 4) for _ in range(count)],
    }


def _plain(value: Any) -> Any:
    return value.item() if hasattr(value, "item") else value


def direct_answers(values: dict[str, list[float]]) -> dict[str, list[dict]]:
    """What a direct library call answers for each override value."""
    catalog = default_catalog()
    columns = ("devices", "units") + tuple(PORTFOLIO_METRICS)
    portfolio = []
    for value in values["portfolio"]:
        table = sweep_portfolio(catalog, [{"lifetime_years": value}])
        portfolio.append({name: _plain(table.column(name)[0]) for name in columns})
    base = facebook_like_fleet()
    scenario = []
    for value in values["scenario"]:
        table = simulate_fleet_batch(
            [apply_overrides(base, {"facility.pue": value})]
        ).final_year_table()
        scenario.append({
            name: _plain(table.column(name)[0])
            for name in table.column_names if name != "scenario"
        })
    return {"portfolio": portfolio, "scenario": scenario}


class Server:
    """One ``repro serve`` subprocess, started through the launcher."""

    def __init__(self, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_launcher.py"), "1" if trace else "0",
             "serve", "--port", "0", "--no-cache"],
            cwd=str(ROOT), env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.stderr: "queue.Queue[bytes]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        self.port = self._await_port()
        self._await_ready()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.put(line)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self.stderr.get(timeout=0.5).decode(errors="replace")
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError("repro serve did not start listening")

    def _await_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/readyz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("repro serve never reported ready")

    def stop(self, window: "dict | None" = None) -> dict:
        """Drain the service (SIGTERM) and return the launcher's report."""
        line = json.dumps(window) + "\n" if window is not None else ""
        try:
            self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(line.encode(), timeout=60)
        except Exception:
            self.kill()
            raise
        finally:
            self._reader.join(timeout=5)
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5)


def _bodies(values: dict[str, list[float]]) -> dict[str, list[bytes]]:
    out = {}
    for kind in KINDS:
        path = f"/v1/{kind}".encode()
        out[kind] = []
        for value in values[kind]:
            body = json.dumps({"overrides": {PATHS[kind]: value}}).encode()
            out[kind].append(
                b"POST " + path + b" HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body
            )
    return out


async def _exchange(reader: Any, writer: Any, request: bytes) -> "tuple[int, bytes, float]":
    began = time.perf_counter()
    writer.write(request)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length)
    return status, body, time.perf_counter() - began


async def _drive(port: int, bodies: dict, seconds: float) -> dict:
    streams = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    count = len(bodies["portfolio"])
    log: list[tuple] = []

    async def step(index: int, record: bool) -> None:
        kind = KINDS[index % 2]
        slots = [(index // 2 * CONNECTIONS + c) % count for c in range(CONNECTIONS)]
        replies = await asyncio.gather(*(
            _exchange(reader, writer, bodies[kind][slot])
            for (reader, writer), slot in zip(streams, slots)
        ))
        if record:
            log.extend((kind, slot) + reply for slot, reply in zip(slots, replies))

    try:
        for index in range(WARMUP_STEPS):
            await step(index, False)
        t0, began = time.time(), time.perf_counter()
        index = 0
        while time.perf_counter() - began < seconds:
            await step(index, True)
            index += 1
        elapsed, t1 = time.perf_counter() - began, time.time()
    finally:
        for _, writer in streams:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return {"log": log, "elapsed": elapsed, "t0": t0, "t1": t1}


def check_replies(log: list, expected: dict) -> "tuple[int, list[str]]":
    """Failed-request count and problems for a run's replies."""
    failed, problems = 0, []
    for kind, slot, status, body, _ in log:
        found = [f"status {status}"] if status != 200 else []
        if not found:
            payload = json.loads(body)
            if payload.get("degraded"):
                found.append("degraded reply")
            found += oracle.check_row(payload.get("row"), expected[kind][slot])
        if found:
            failed += 1
            problems += [f"{kind}[{slot}]: {item}" for item in found]
    return failed, problems


def measure_serve(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    values = override_values(seed)
    bodies = _bodies(values)
    setup_times = []
    server = None
    try:
        for rep in range(SETUP_REPS):
            began = time.perf_counter()
            server = Server(trace)
            expected = direct_answers(values)
            setup_times.append(time.perf_counter() - began)
            if rep < SETUP_REPS - 1:
                server.stop()
                server = None
        run = asyncio.run(_drive(server.port, bodies, seconds))
        log, elapsed = run["log"], run["elapsed"]
        latencies = [entry[4] * 1e3 for entry in log]
        window = {
            "t0": run["t0"], "t1": run["t1"], "requests": len(log),
            "latency_mean_ms": statistics.fmean(latencies),
        }
        report = server.stop(window if trace else None)
        server = None
    finally:
        if server is not None:
            server.kill()
    outcome = Outcome(attempted=len(log))
    outcome.failed, outcome.problems = check_replies(log, expected)
    devices = len(default_catalog())
    cells = sum(devices if kind == "portfolio" else 1 for kind, *_ in log)
    rows_per_s, req_per_s = cells / elapsed, len(log) / elapsed
    if trace:
        for name, value in report["layers"].items():
            outcome.put(name, value)
        outcome.put("trace.rows_per_s", rows_per_s)
        outcome.put("trace.req_per_s", req_per_s)
        outcome.notes["missing_hooks"] = report.get("missing_hooks", [])
    else:
        outcome.put("setup_s", import_s + statistics.median(setup_times),
                    [import_s + t for t in setup_times])
        outcome.put("rows_per_s", rows_per_s)
        outcome.put("peak_rss_mb", report["peak_rss_mb"])
        outcome.put("req_per_s", req_per_s)
        outcome.put("latency_p50_ms", statistics.median(latencies), latencies)
        outcome.put("latency_p99_ms", percentile(latencies, 99.0), latencies)
    return outcome
