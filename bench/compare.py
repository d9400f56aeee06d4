"""Compare two benchmark sets: ``python3 bench/compare.py A.json B.json``.

``A`` is the parent (baseline), ``B`` the change; both are files
``bench/run.py --json`` or ``bench/pairs.py`` wrote.  For every workload
and end-to-end metric of ``BENCHMARK.json`` it prints both sides' median
and quartiles over their untraced runs and a verdict:

* ``worse`` — every run of the change reads worse than every run of the
  parent by more than the metric's bound;
* ``unresolved`` — otherwise, if either side's spread (quartile distance
  over median) is wider than the bound, and not every run of the change
  reads better than every run of the parent;
* ``worse`` — otherwise, if the change's median is worse than the
  parent's by more than the bound;
* ``better`` — only for interleaved sets (``bench/pairs.py``) of at
  least ten pairs: the change wins at least nine tenths of the pairs
  (ties counting for neither) and the medians differ by more than the
  parent's quartile distance;
* ``no worse`` — otherwise.

Two sets taken one after the other (``bench/run.py --repeats``) can show
no regression but never a gain: the machine's speed drifts between
them.  It also compares each workload's failed jobs over attempted
jobs, and lists the per-layer self times of traced runs that moved by
more than a tenth.  Exit code 1 on any ``worse`` or ``unresolved``
verdict or any rise in the failed share, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9
LAYER_MOVE = 0.1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def reads_better(change: float, parent: float, direction: str) -> bool:
    return change < parent if direction == "lower" else change > parent


def worse_by_more(
    change: float, parent: float, direction: str, bound: float
) -> bool:
    if direction == "lower":
        return change > parent * (1 + bound)
    return change < parent * (1 - bound)


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    parent: list[float],
    change: list[float],
    direction: str,
    bound: float,
    interleaved: bool = False,
) -> str:
    if all(
        worse_by_more(c, p, direction, bound) for c in change for p in parent
    ):
        return "worse"
    all_better = all(
        reads_better(c, p, direction) for c in change for p in parent
    )
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    q1, median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    worse_by = change_median - median
    if direction == "higher":
        worse_by = -worse_by
    if worse_by > bound * abs(median):
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(reads_better(c, p, direction) for p, c in pairs)
    if (
        interleaved
        and len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and reads_better(change_median, median, direction)
        and abs(change_median - median) > q3 - q1
    ):
        return "better"
    return "no worse"


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(
    parent_runs: list[dict], change_runs: list[dict], interleaved: bool = False
) -> int:
    status = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if not parent or not change:
            print(f"{workload}: missing on one side, not compared")
            continue
        if any(a["inputs"] != b["inputs"] for a, b in zip(parent, change)):
            print(f"{workload}: note: paired runs had different inputs")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in parent if not r["trace"]]
            b = [r["metrics"][name]["value"] for r in change if not r["trace"]]
            if not a or not b:
                continue
            result = verdict(
                a, b, metric["better"], metric["bound"], interleaved
            )
            if result in ("worse", "unresolved"):
                status = 1
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(
                f"{workload:<12} {name:<12} "
                f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {metric['unit']}  "
                f"{delta:+.1%}  {result}"
            )
        share_a, share_b = failed_share(parent), failed_share(change)
        if share_b > share_a:
            status = 1
            print(f"{workload:<12} failed share rose: {share_a:.4f} -> {share_b:.4f}")
        print_layer_moves(workload, parent, change)
    return status


def print_layer_moves(workload: str, parent: list[dict], change: list[dict]) -> None:
    traced_a = [r["metrics"] for r in parent if r["trace"]]
    traced_b = [r["metrics"] for r in change if r["trace"]]
    if not traced_a or not traced_b:
        return
    for name, metric in traced_a[-1].items():
        if metric["unit"] != "s/job" or name not in traced_b[-1]:
            continue
        before, after = metric["value"], traced_b[-1][name]["value"]
        if before and abs(after - before) > LAYER_MOVE * before:
            print(f"{workload:<12}   layer {name}: {before:.4g} -> {after:.4g} s/job "
                  f"({(after - before) / before:+.0%})")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    interleaved = bool(parent.get("interleaved") and change.get("interleaved"))
    return compare(parent["runs"], change["runs"], interleaved)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
