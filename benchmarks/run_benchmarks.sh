#!/usr/bin/env bash
# Run the FULL pytest-benchmark suite and record a JSON snapshot so the
# performance trajectory is visible per PR. Always captures every
# benchmark under benchmarks/ — partial snapshots make regression
# guards blind.
#
# Usage:
#   benchmarks/run_benchmarks.sh [tag] [--compare BASELINE.json] [--quick] \
#       [pytest args...]
#
# Writes benchmarks/BENCH_<tag>.json (tag defaults to today's date,
# YYYYMMDD). With --compare, the snapshot is then diffed against the
# given baseline and the script exits non-zero on any shared benchmark
# regressing by more than 2x mean time (see compare_benchmarks.py).
#
# --quick is a smoke mode: every benchmark body runs exactly once with
# timing disabled (--benchmark-disable), no snapshot is written and no
# comparison runs — it proves the suite still *executes* in seconds,
# for use in pre-commit loops where a full timed run is too slow.
set -euo pipefail

cd "$(dirname "$0")/.."
tag="$(date +%Y%m%d)"
if [[ $# -gt 0 && "$1" != -* ]]; then
    tag="$1"
    shift
fi
out="benchmarks/BENCH_${tag}.json"

baseline=""
quick=0
passthrough=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --compare)
            if [[ $# -lt 2 ]]; then
                echo "usage: $0 [tag] [--compare BASELINE.json] [--quick] [pytest args...]" >&2
                exit 2
            fi
            baseline="$2"
            shift 2
            ;;
        --quick)
            quick=1
            shift
            ;;
        *)
            passthrough+=("$1")
            shift
            ;;
    esac
done

if [[ "$quick" -eq 1 ]]; then
    if [[ -n "$baseline" ]]; then
        echo "--quick runs untimed; it cannot be combined with --compare" >&2
        exit 2
    fi
    # The ${array[@]+...} form keeps the empty-array expansion safe
    # under `set -u` on bash < 4.4.
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks \
        -q --benchmark-disable ${passthrough[@]+"${passthrough[@]}"}
    # Chaos smoke: a seeded fault storm over a real sweep must recover
    # to a bit-identical result, and — traced — its attempt events must
    # match the injected schedule (see tools/chaos_sweep.py).
    trace="$(mktemp -t chaos_trace.XXXXXX.jsonl)"
    trap 'rm -f "$trace"' EXIT
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python tools/chaos_sweep.py \
        --trace-out "$trace"
    # Portfolio smoke: the device-axis-sharded sweep must survive the
    # same storm (its chunk starts come from SweepSpec.axis_size).
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python tools/chaos_sweep.py \
        --sweep portfolio
    # Stats smoke: the trace the storm just wrote must render.
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro stats "$trace"
    # Serve smoke: a concurrent-client burst against the in-process
    # sweep service, both coalesced and baseline, must answer every
    # request (see tools/load_gen.py; the 5x throughput gate lives in
    # benchmarks/test_bench_serve.py, run above). Portfolio cells price
    # the cached catalog; scenario cells swap overrides into the cached
    # fleet frame.
    for kind in portfolio scenario; do
        PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python tools/load_gen.py \
            --kind "$kind" --clients 200
        PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python tools/load_gen.py \
            --kind "$kind" --clients 200 --no-coalesce
    done
    echo "quick smoke run complete (untimed; no snapshot written)"
    exit 0
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest benchmarks \
    -q --benchmark-json="$out" ${passthrough[@]+"${passthrough[@]}"}

echo "benchmark snapshot written to $out"

if [[ -n "$baseline" ]]; then
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python \
        benchmarks/compare_benchmarks.py "$baseline" "$out"
fi
