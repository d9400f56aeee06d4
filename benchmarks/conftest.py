"""Shared benchmark helpers.

Every experiment bench asserts the *shape* of the paper's claim (who
wins / what holds) in addition to timing it, and prints a row so the
tee'd benchmark log doubles as the EXPERIMENTS.md evidence.

Benchmarked tests additionally run with telemetry *counters* enabled
(spans stay off so span bookkeeping never shows in timings) and attach
the counter deltas to ``benchmark.extra_info["counters"]`` — so a
``--benchmark-json=BENCH.json`` trajectory carries operation counts
(triggers fired, homomorphism backtracks, candidates enumerated, …)
alongside the timings.  Export ``REPRO_BENCH_COUNTERS=0`` to measure
the pure no-op path instead.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

import pytest

from repro.telemetry import TELEMETRY

# The ablations compare the engine against the interpreted matcher kept
# as a test oracle (tests/oracles/); make the repository root importable
# when the benches run from this directory.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def record(label: str, expected: str, measured: object) -> None:
    print(f"[experiment] {label:58s} expected={expected:12s} measured={measured}")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(42)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each bench starts with every process-level memo cold, so its
    counter columns do not depend on which benches ran before it.

    The memos still warm across a benchmark's own iterations, so timed
    benches measure the steady state of the shipped engine — see
    EXPERIMENTS.md for how to read those numbers."""
    from repro.memo import clear_memos

    clear_memos()
    yield


@pytest.fixture(autouse=True)
def bench_counters(request):
    """Attach engine counter deltas to pytest-benchmark runs.

    Counts accumulate over every warmup/calibration/timed call the
    harness makes, so they are totals for the whole benchmark run, not
    per-iteration — divide by ``stats.rounds * stats.iterations`` for
    per-call rates.
    """
    if (
        "benchmark" not in request.fixturenames
        or os.environ.get("REPRO_BENCH_COUNTERS", "1") == "0"
    ):
        yield
        return
    benchmark = request.getfixturevalue("benchmark")
    TELEMETRY.reset()
    TELEMETRY.enable(spans=False)
    try:
        yield
    finally:
        counters = TELEMETRY.snapshot()
        histograms = TELEMETRY.histogram_snapshot()
        TELEMETRY.disable()
        TELEMETRY.reset()
        if counters:
            benchmark.extra_info["counters"] = counters
        if histograms:
            benchmark.extra_info["histograms"] = {
                name: hist.to_dict() for name, hist in histograms.items()
            }
