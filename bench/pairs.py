"""Interleaved runs of two checkouts, the only sets that can show a gain::

    python3 bench/pairs.py PARENT CHANGE --out DIR [--pairs 10] [--seed 1]
                           [--workload W ...]

``PARENT`` and ``CHANGE`` are checkouts of the two commits.  Pair ``i``
runs each workload once on each side with seed ``seed + i``, through
each checkout's own ``bench/run.py``; the parent runs first in even
pairs and the change in odd ones, so drift in the machine's speed falls
on both sides alike.  It writes ``DIR/parent.json`` and
``DIR/change.json`` in the form ``bench/run.py --json`` writes, marked
interleaved, then prints ``bench/compare.py``'s verdicts and exits with
its code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402

SIDES = ("parent", "change")
# One run.py run stops its own children by 170 s.
RUN_TIMEOUT_S = 200


def run_side(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--json", str(out)],
        cwd=checkout, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed")
    return json.loads(out.read_text())["runs"][0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=compare.MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in compare.SPEC["workloads"]],
                        help="repeat to pick several (default: all)")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in compare.SPEC["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for number in range(args.pairs):
        order = SIDES if number % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                record = run_side(
                    checkouts[side], workload, args.seed + number,
                    out / f"{side}-last.json",
                )
                runs[side].append(record)
                print(f"# pair {number} {workload} {side}: "
                      f"{record['attempted']} jobs, {record['failed']} failed",
                      flush=True)
    for side in SIDES:
        (out / f"{side}-last.json").unlink(missing_ok=True)
        (out / f"{side}.json").write_text(json.dumps(
            {"interleaved": True, "runs": runs[side]}, indent=1
        ) + "\n")
    return compare.compare(runs["parent"], runs["change"], interleaved=True)


if __name__ == "__main__":
    sys.exit(main())
