"""Tests for trace analysis (bursts, downsampling) and Table utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError, TableError
from repro.mobile.inference import InferenceSimulator
from repro.mobile.power_monitor import MonsoonSimulator, PowerTrace
from repro.tabular import Table


class TestBurstDetection:
    def test_counts_separated_bursts(self):
        simulator = InferenceSimulator()
        estimate = simulator.estimate("resnet50", "cpu")
        monsoon = MonsoonSimulator(noise_fraction=0.0)
        trace = monsoon.inference_burst(
            estimate, num_inferences=5, idle_power_w=0.2, inter_arrival_s=0.1
        )
        bursts = trace.detect_bursts(threshold_w=1.0)
        assert len(bursts) == 5

    def test_back_to_back_is_one_burst(self):
        simulator = InferenceSimulator()
        estimate = simulator.estimate("resnet50", "cpu")
        monsoon = MonsoonSimulator(noise_fraction=0.0)
        trace = monsoon.inference_burst(estimate, 5, idle_power_w=0.2)
        assert len(trace.detect_bursts(threshold_w=1.0)) == 1

    def test_burst_durations_match_latency(self):
        simulator = InferenceSimulator()
        estimate = simulator.estimate("inception_v3", "cpu")
        monsoon = MonsoonSimulator(noise_fraction=0.0)
        trace = monsoon.inference_burst(
            estimate, 3, idle_power_w=0.2, inter_arrival_s=0.2
        )
        for start, end in trace.detect_bursts(threshold_w=1.0):
            assert end - start == pytest.approx(estimate.latency_s, rel=0.02)

    def test_no_bursts_below_threshold(self):
        trace = PowerTrace(np.full(100, 0.5), 1000.0)
        assert trace.detect_bursts(threshold_w=1.0) == []

    def test_trace_ending_mid_burst(self):
        samples = np.concatenate([np.zeros(50), np.full(50, 5.0)])
        trace = PowerTrace(samples, 100.0)
        bursts = trace.detect_bursts(threshold_w=1.0)
        assert len(bursts) == 1
        assert bursts[0][1] == pytest.approx(0.99)


class TestDownsample:
    def test_preserves_average_power(self):
        rng = np.random.default_rng(5)
        trace = PowerTrace(rng.uniform(1.0, 3.0, size=5000), 5000.0)
        small = trace.downsample(10)
        assert small.average_power.watts_value == pytest.approx(
            trace.average_power.watts_value, rel=1e-3
        )

    def test_reduces_sample_rate(self):
        trace = PowerTrace(np.ones(1000), 5000.0)
        assert trace.downsample(10).sample_rate_hz == 500.0

    def test_factor_one_is_identity(self):
        trace = PowerTrace(np.ones(100), 1000.0)
        assert trace.downsample(1) is trace

    def test_invalid_factors(self):
        trace = PowerTrace(np.ones(10), 100.0)
        with pytest.raises(SimulationError):
            trace.downsample(0)
        with pytest.raises(SimulationError):
            trace.downsample(9)


class TestTableConcat:
    def test_stacks_rows_in_order(self):
        first = Table({"a": [1, 2]})
        second = Table({"a": [3]})
        combined = Table.concat([first, second])
        assert combined.column("a") == [1, 2, 3]

    def test_column_mismatch_rejected(self):
        with pytest.raises(TableError):
            Table.concat([Table({"a": [1]}), Table({"b": [1]})])

    def test_empty_list_rejected(self):
        with pytest.raises(TableError):
            Table.concat([])

    def test_single_table_roundtrip(self):
        table = Table({"a": [1, 2], "b": ["x", "y"]})
        assert Table.concat([table]) == table

    def test_array_fast_path_preserves_dtypes(self):
        first = Table(
            {"f": [1.0, 2.0], "i": [1, 2], "b": [True, False], "s": ["a", "bb"]}
        )
        second = Table({"f": [3.0], "i": [3], "b": [True], "s": ["ccc"]})
        combined = Table.concat([first, second])
        assert combined._columns["f"].dtype == np.float64
        assert combined._columns["i"].dtype == np.int64
        assert combined._columns["b"].dtype == np.bool_
        assert combined._columns["s"].dtype.kind == "U"
        assert combined.column("f") == [1.0, 2.0, 3.0]
        assert combined.column("i") == [1, 2, 3]
        assert combined.column("s") == ["a", "bb", "ccc"]

    def test_fast_path_result_is_independent_of_inputs(self):
        first = Table({"a": [1.0, 2.0]})
        combined = Table.concat([first, Table({"a": [3.0]})])
        combined._columns["a"][0] = 99.0
        assert first.column("a") == [1.0, 2.0]

    def test_mixed_kind_columns_fall_back_to_sniffing(self):
        # int chunk + float chunk must merge exactly like the
        # value-level path: a mixed int/float list stays a list so the
        # ints survive round-tripping.
        combined = Table.concat([Table({"a": [1, 2]}), Table({"a": [3.5]})])
        assert isinstance(combined._columns["a"], list)
        assert combined.column("a") == [1, 2, 3.5]

    def test_object_fallback_preserved(self):
        rich = Table({"a": [{"k": 1}, None]})
        combined = Table.concat([rich, Table({"a": ["x"]})])
        assert combined.column("a") == [{"k": 1}, None, "x"]

    def test_array_and_list_chunks_merge(self):
        array_backed = Table({"a": [1.0, 2.0]})
        list_backed = Table({"a": [None]})
        combined = Table.concat([array_backed, list_backed])
        assert combined.column("a") == [1.0, 2.0, None]
