"""Run benchmark families and freeze measurements into trajectory files.

One measurement = ``repeats`` cold runs of a family under counter and
histogram telemetry (spans stay off — span bookkeeping would show up in
the timings).  Before every repeat the engine memo caches are cleared,
so each repeat performs identical work and the recorded counters are a
pure function of the codebase; the repeats differ only in wall time.

The artifact is ``BENCH_<family>.json`` — schema-versioned, embedding
the environment fingerprint, the full list of per-repeat wall times
(never just an average: the *minimum* is the comparison statistic, the
spread is kept for honesty), the counter totals of one repeat, and the
histogram snapshots.  A sequence of these files over commits is a
performance trajectory; :mod:`repro.perf.compare` gates a pair of them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..memo import clear_memos
from ..telemetry import TELEMETRY, Histogram
from .families import BenchFamily
from .fingerprint import environment_fingerprint

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "MissingBaselineError",
    "bench_filename",
    "load_baseline",
    "run_family",
]

BENCH_SCHEMA = "repro/bench@1"


def bench_filename(family_name: str) -> str:
    return f"BENCH_{family_name}.json"


class MissingBaselineError(ValueError):
    """A baseline directory has no trajectory file for a family.

    Raised (instead of surfacing as a ``FileNotFoundError`` or a bare
    ``KeyError`` later in the comparison) so callers can tell "this
    family was never baselined" apart from "the baseline file is
    corrupt" and report which file to regenerate."""

    def __init__(self, directory: str | Path, family: str) -> None:
        self.family = family
        self.path = Path(directory) / bench_filename(family)
        super().__init__(
            f"no baseline for family {family!r}: {self.path} does not "
            f"exist (record one with "
            f"'repro bench --families {family} --json --out "
            f"{directory}')"
        )


def load_baseline(directory: str | Path, family: str) -> "BenchResult":
    """The committed baseline measurement of ``family`` in ``directory``.

    Raises :class:`MissingBaselineError` when the family has no
    ``BENCH_<family>.json`` there; other load failures (unreadable
    file, schema mismatch) propagate as ``OSError`` / ``ValueError``."""
    path = Path(directory) / bench_filename(family)
    if not path.exists():
        raise MissingBaselineError(directory, family)
    return BenchResult.load(path)


@dataclass(frozen=True)
class BenchResult:
    """One frozen measurement of one family."""

    family: str
    wall_seconds: tuple[float, ...]
    counters: Mapping[str, int]
    histograms: Mapping[str, Histogram] = field(default_factory=dict)
    fingerprint: Mapping[str, str] = field(
        default_factory=environment_fingerprint
    )
    schema: str = BENCH_SCHEMA

    @property
    def best_seconds(self) -> float:
        return min(self.wall_seconds)

    @property
    def mean_seconds(self) -> float:
        return sum(self.wall_seconds) / len(self.wall_seconds)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "family": self.family,
            "fingerprint": dict(self.fingerprint),
            "repeats": len(self.wall_seconds),
            "wall_seconds": list(self.wall_seconds),
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def write(self, directory: str | Path) -> Path:
        path = Path(directory) / bench_filename(self.family)
        path.write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchResult":
        schema = data.get("schema")
        if schema != BENCH_SCHEMA:
            raise ValueError(
                f"unsupported bench schema {schema!r} "
                f"(expected {BENCH_SCHEMA!r})"
            )
        walls = tuple(float(v) for v in data.get("wall_seconds", ()))
        if not walls:
            raise ValueError("bench file has no wall_seconds samples")
        return cls(
            family=str(data.get("family", "")),
            wall_seconds=walls,
            counters={
                str(k): int(v) for k, v in data.get("counters", {}).items()
            },
            histograms={
                str(k): Histogram.from_dict(v)
                for k, v in data.get("histograms", {}).items()
            },
            fingerprint={
                str(k): str(v)
                for k, v in data.get("fingerprint", {}).items()
            },
            schema=str(schema),
        )

    @classmethod
    def load(cls, path: str | Path) -> "BenchResult":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def run_family(family: BenchFamily, *, repeats: int = 3) -> BenchResult:
    """Measure one family: ``repeats`` cold, telemetried runs.

    The telemetry singleton is reset around the measurement; callers
    holding sinks open (e.g. a ``--profile`` session) should not invoke
    the harness mid-run.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    walls: list[float] = []
    counters: dict[str, int] = {}
    histograms: dict[str, Histogram] = {}
    for repeat in range(repeats):
        clear_memos()
        TELEMETRY.disable()
        TELEMETRY.reset()
        TELEMETRY.enable(spans=False)
        started = time.perf_counter()
        family.runner()
        walls.append(time.perf_counter() - started)
        if repeat == 0:
            # Caches are cleared per repeat, so every repeat records the
            # same operation counts; keep the first (cold-start truth).
            counters = TELEMETRY.snapshot()
            histograms = TELEMETRY.histogram_snapshot()
        TELEMETRY.disable()
        TELEMETRY.reset()
    return BenchResult(
        family=family.name,
        wall_seconds=tuple(walls),
        counters=counters,
        histograms=histograms,
    )
