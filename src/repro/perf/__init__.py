"""repro.perf — the performance-trajectory harness behind ``repro bench``.

The observability layer (:mod:`repro.telemetry`) answers *what did this
run do*; this package answers *is the codebase getting faster or
slower* — across commits, machines, and configuration changes:

* :mod:`~repro.perf.families` — a registry of named, deterministic
  benchmark workloads (chase fixpoints, rewrite searches, cold
  entailment batteries) sized for CI;
* :mod:`~repro.perf.harness` — runs a family under counters+histogram
  telemetry with cold caches every repeat and freezes the measurement
  into a schema-versioned ``BENCH_<family>.json`` trajectory file:
  environment fingerprint, per-repeat wall times, exact operation
  counters, distribution snapshots;
* :mod:`~repro.perf.compare` — regression gating between two trajectory
  files.  Wall-time is compared only between identical environment
  fingerprints (a committed baseline from another machine still gates
  the *deterministic* metrics); plan-quality counters — index probes,
  backtracks, triggers enumerated, entailment calls — are compared
  always, because a plan regression shows up there before it shows up
  in seconds.

``python -m repro bench`` is the CLI entry point; see EXPERIMENTS.md
for the trajectory methodology.
"""

from .compare import (
    TRACKED_COUNTERS,
    Regression,
    apply_injection,
    compare_results,
    parse_injection,
    render_regressions,
)
from .families import (
    FAMILIES,
    BenchFamily,
    resolve_families,
    run_stream,
)
from .fingerprint import environment_fingerprint
from .harness import (
    BENCH_SCHEMA,
    BenchResult,
    MissingBaselineError,
    bench_filename,
    load_baseline,
    run_family,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchFamily",
    "BenchResult",
    "FAMILIES",
    "MissingBaselineError",
    "Regression",
    "TRACKED_COUNTERS",
    "apply_injection",
    "bench_filename",
    "compare_results",
    "environment_fingerprint",
    "load_baseline",
    "parse_injection",
    "render_regressions",
    "resolve_families",
    "run_family",
    "run_stream",
]
