"""Regression gating between two trajectory measurements.

Two axes, deliberately independent:

* **Wall time** — ``best_seconds`` (minimum over repeats: the least
  noise-contaminated statistic) compared only when the two
  measurements' environment fingerprints are *identical*.  A committed
  baseline replayed on a different machine silently skips this gate
  rather than raising false alarms; the CI self-test records and
  compares within one job, so the wall gate is exercised there.
* **Plan quality** — the :data:`TRACKED_COUNTERS` operation counts
  (index probes, backtracks, triggers enumerated, entailment calls,
  candidates considered).  These are deterministic under the harness's
  cold-cache protocol and machine-independent, so they gate across any
  fingerprint pair — and they catch a join-plan or pruning regression
  even when the machine got *faster*.

``--inject`` support (:func:`parse_injection` / :func:`apply_injection`)
exists so CI can prove the gate actually trips: scale the current
measurement synthetically and assert a non-zero exit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .harness import BenchResult

__all__ = [
    "TRACKED_COUNTERS",
    "Regression",
    "apply_injection",
    "compare_results",
    "parse_injection",
    "render_regressions",
]

# Counters whose growth means the engines are doing more work per unit
# of semantics — the machine-independent regression signal.
TRACKED_COUNTERS = (
    "hom.index_probes",
    "hom.backtracks",
    "hom.forward_prunes",
    "chase.rounds",
    "chase.triggers_enumerated",
    "entailment.calls",
    "search.candidates",
    "enumeration.candidates",
    # Adaptive-ordering quality: both are 0 on well-estimated pinned
    # workloads, and the from-zero rule below makes that a hard gate —
    # a cost-model change that starts tripping the guard bound or
    # mispredicting fan-outs on a baselined family is a regression even
    # though the ratio against 0 is undefined.
    "plan.guard_fallbacks",
    "plan.mispredictions",
    # Streaming ingestion volume: facts consumed and batches formed are
    # pure functions of the family's pinned spec and batch size.  A
    # dedup or batching change that re-ingests rows (or silently drops
    # the batched path back to per-fact adds) moves these before it
    # moves wall time, and the from-zero rule gates a family that
    # starts ingesting on a baseline that never did.
    "ingest.facts",
    "ingest.batches",
)

DEFAULT_WALL_THRESHOLD = 0.20
DEFAULT_COUNTER_THRESHOLD = 0.20


@dataclass(frozen=True)
class Regression:
    """One tripped gate."""

    family: str
    metric: str  # "wall" or a counter name
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def __str__(self) -> str:
        if self.metric == "wall":
            return (
                f"{self.family}: wall {self.baseline * 1e3:.1f}ms -> "
                f"{self.current * 1e3:.1f}ms (x{self.ratio:.2f})"
            )
        return (
            f"{self.family}: {self.metric} {int(self.baseline)} -> "
            f"{int(self.current)} (x{self.ratio:.2f})"
        )


def compare_results(
    baseline: BenchResult,
    current: BenchResult,
    *,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    counter_threshold: float = DEFAULT_COUNTER_THRESHOLD,
) -> list[Regression]:
    """Every gate the current measurement trips against the baseline."""
    if baseline.family != current.family:
        raise ValueError(
            f"family mismatch: baseline {baseline.family!r} vs "
            f"current {current.family!r}"
        )
    regressions: list[Regression] = []
    if dict(baseline.fingerprint) == dict(current.fingerprint):
        base_wall = baseline.best_seconds
        cur_wall = current.best_seconds
        if base_wall > 0 and cur_wall > base_wall * (1 + wall_threshold):
            regressions.append(
                Regression(current.family, "wall", base_wall, cur_wall)
            )
    for name in TRACKED_COUNTERS:
        base = baseline.counters.get(name, 0)
        cur = current.counters.get(name, 0)
        grew_from_zero = base == 0 and cur > 0
        if grew_from_zero or (
            base > 0 and cur > base * (1 + counter_threshold)
        ):
            regressions.append(
                Regression(current.family, name, float(base), float(cur))
            )
    return regressions


def render_regressions(regressions: list[Regression]) -> str:
    if not regressions:
        return "no regressions"
    lines = [f"{len(regressions)} regression(s):"]
    lines.extend(f"  {reg}" for reg in regressions)
    return "\n".join(lines)


def parse_injection(spec: str | None) -> dict[str, float]:
    """Parse ``"wall=1.5,probes=1.3"`` into scale factors.

    Keys: ``wall`` (scales every wall-time sample) and ``probes``
    (scales every tracked counter).  Used by the CI self-test to verify
    the gate trips; never applied to recorded artifacts.
    """
    if not spec:
        return {}
    factors: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("wall", "probes"):
            raise ValueError(
                f"unknown injection key {key!r} (known: wall, probes)"
            )
        try:
            factors[key] = float(value)
        except ValueError:
            raise ValueError(
                f"injection factor for {key!r} must be a number, "
                f"got {value!r}"
            ) from None
    return factors


def apply_injection(
    result: BenchResult, factors: dict[str, float]
) -> BenchResult:
    """A copy of ``result`` with synthetic regressions applied."""
    if not factors:
        return result
    updated = result
    wall = factors.get("wall")
    if wall is not None:
        updated = replace(
            updated,
            wall_seconds=tuple(w * wall for w in updated.wall_seconds),
        )
    probes = factors.get("probes")
    if probes is not None:
        counters = dict(updated.counters)
        for name in TRACKED_COUNTERS:
            if name in counters:
                counters[name] = int(counters[name] * probes)
        updated = replace(updated, counters=counters)
    return updated
