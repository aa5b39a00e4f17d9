"""Run the ``repro`` CLI in this process, optionally with layer timing.

Usage::

    python3 perfbench/serve_launcher.py <trace 0|1> serve --port 0 --no-cache

With trace 1 it installs the :class:`layers.Probe` wrappers and a
``repro.obs.TraceRecorder`` before calling ``repro.cli.main``. When the
CLI returns (``repro serve`` drains on SIGTERM), it reads one JSON line
from stdin — the client's measured window ``{"t0", "t1", "requests",
"latency_mean_ms"}`` — and prints one JSON line to stdout: the peak RSS
of this process and, when traced, the per-request layer metrics of the
calls made inside that window.
"""

from __future__ import annotations

import json
import sys

from common import SRC, peak_rss_mb
from layers import Probe, serve_layers, sweep_layers

sys.path.insert(0, str(SRC))


def _window_layers(probe: Probe, events: list, window: dict) -> dict:
    t0, t1 = window["t0"], window["t1"]
    calls = [c for c in probe.calls if t0 <= c.wall <= t1]
    inside = [e for e in events if t0 <= e.get("ts", 0.0) <= t1]
    requests = max(int(window["requests"]), 1)
    layers = {
        name: value / requests
        for name, value in sweep_layers(calls, inside).items()
    }
    layers.update(serve_layers(calls, requests, window["latency_mean_ms"]))
    latency = window["latency_mean_ms"]
    edge = layers["serve.edge_ms"]
    layers["trace.covered_frac"] = (latency - edge) / latency if latency else 0.0
    layers["trace.uncovered_s"] = edge / 1e3
    return layers


def main(argv: list[str]) -> int:
    trace, cli_args = argv[0] == "1", argv[1:]
    from repro import cli

    report: dict = {}
    if trace:
        import repro.serve  # noqa: F401  (load every hooked module first)
        from repro.obs import TraceRecorder, install_recorder

        probe, recorder = Probe().install(), TraceRecorder()
        with install_recorder(recorder):
            code = cli.main(cli_args)
        probe.uninstall()
        line = sys.stdin.readline()
        if line.strip():
            report["layers"] = _window_layers(probe, recorder.events, json.loads(line))
        report["missing_hooks"] = probe.missing
    else:
        code = cli.main(cli_args)
    report["exit"] = code
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
