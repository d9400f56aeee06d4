"""The fixed log-bucket histogram type (`repro.telemetry.histogram`).

The properties the observability layer depends on:

* bucketing is exact and deterministic (frexp exponents, clamped);
* merging is associative and exact — the basis of ``repro stats``
  folding many runs' snapshots into one distribution;
* quantiles are bucket upper edges — never interpolated, so two runs
  recording the same values report the same percentiles;
* serialization round-trips bit-identically (the BENCH_*.json and
  RunReport contract).
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.telemetry import TELEMETRY, Histogram
from repro.telemetry.histogram import _bucket_index


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


class TestBucketing:
    def test_zero_and_negative_land_in_the_zero_bucket(self):
        assert _bucket_index(0.0) == 0
        assert _bucket_index(-1.0) == 0

    def test_powers_of_two_are_bucket_edges(self):
        # v in [2**(e-1), 2**e) -> bucket exponent e: 4.0 starts the
        # bucket whose upper edge is 8.0.
        hist = Histogram()
        hist.observe(4.0)
        assert hist.quantile(0.5) == 8.0
        hist2 = Histogram()
        hist2.observe(3.999)
        assert hist2.quantile(0.5) == 4.0

    def test_extreme_values_clamp_instead_of_raising(self):
        hist = Histogram()
        hist.observe(1e-12)   # below the finest bucket
        hist.observe(1e18)    # above the coarsest
        assert hist.count == 2
        assert hist.min == 1e-12 and hist.max == 1e18

    def test_bucket_index_matches_frexp_semantics(self):
        for value in (1e-6, 0.004, 0.5, 1.0, 7.0, 1000.0, 123456.0):
            exponent = math.frexp(value)[1]
            index = _bucket_index(value)
            assert index == exponent - (-21) + 1


class TestSummaries:
    def test_quantiles_are_deterministic_upper_edges(self):
        hist = Histogram()
        for value in (1, 1, 1, 1, 1, 1, 1, 1, 1, 100):
            hist.observe(value)
        # 1.0 lies in [1, 2): its bucket's upper edge is 2.0.
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(0.9) == 2.0
        assert hist.quantile(0.99) == 128.0
        assert hist.mean == pytest.approx(10.9)

    def test_empty_histogram_is_all_zeros(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0
        assert hist.min is None and hist.max is None

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestMerge:
    def test_merge_is_exact(self):
        rng = random.Random(7)
        values = [rng.uniform(0, 100) for _ in range(500)]
        whole = Histogram()
        for v in values:
            whole.observe(v)
        left, right = Histogram(), Histogram()
        for v in values[:200]:
            left.observe(v)
        for v in values[200:]:
            right.observe(v)
        left.merge(right)
        assert left == whole
        assert left.sum == pytest.approx(whole.sum)

    def test_merge_order_does_not_matter(self):
        parts = []
        rng = random.Random(11)
        for _ in range(4):
            part = Histogram()
            for _ in range(50):
                part.observe(rng.uniform(0, 10))
            parts.append(part)
        forward, backward = Histogram(), Histogram()
        for part in parts:
            forward.merge(part)
        for part in reversed(parts):
            backward.merge(part)
        assert forward == backward

class TestSerialization:
    def test_round_trip_is_identical(self):
        hist = Histogram()
        for v in (0.0, 1e-7, 0.25, 3, 17.5, 2**40):
            hist.observe(v)
        data = json.loads(json.dumps(hist.to_dict()))
        back = Histogram.from_dict(data)
        assert back == hist
        assert back.to_dict() == hist.to_dict()

    def test_int_observations_serialize_as_floats(self):
        hist = Histogram()
        hist.observe(3)
        data = hist.to_dict()
        assert isinstance(data["sum"], float)
        assert isinstance(data["max"], float)
        assert Histogram.from_dict(data).to_dict() == data

    def test_bucket_keys_are_exponents(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(4.0)  # (4, 8] bucket -> exponent key "3"
        assert hist.to_dict()["buckets"] == {"zero": 1, "3": 1}

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            Histogram.from_dict({"buckets": {"9999": 1}})
        with pytest.raises(ValueError):
            Histogram.from_dict({"buckets": "nope"})


class TestTelemetryIntegration:
    def test_observe_is_a_noop_when_disabled(self):
        TELEMETRY.observe("x", 1.0)
        assert TELEMETRY.histogram_snapshot() == {}

    def test_observe_records_when_enabled(self):
        TELEMETRY.enable(spans=False)
        TELEMETRY.observe("x", 1.0)
        TELEMETRY.observe("x", 2.0)
        TELEMETRY.observe("y", 0.5)
        snap = TELEMETRY.histogram_snapshot()
        assert snap["x"].count == 2
        assert snap["y"].count == 1

    def test_snapshot_is_a_deep_copy(self):
        TELEMETRY.enable(spans=False)
        TELEMETRY.observe("x", 1.0)
        snap = TELEMETRY.histogram_snapshot()
        TELEMETRY.observe("x", 2.0)
        assert snap["x"].count == 1
        assert TELEMETRY.histogram_snapshot()["x"].count == 2

    def test_reset_clears_histograms(self):
        TELEMETRY.enable(spans=False)
        TELEMETRY.observe("x", 1.0)
        TELEMETRY.reset()
        assert TELEMETRY.histogram_snapshot() == {}
