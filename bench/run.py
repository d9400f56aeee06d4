"""End-to-end benchmark of the repro engine stack.

One run of one workload (the form ``BENCHMARK.json``'s command takes)::

    python3 bench/run.py --workload rollup --seed 7 --seconds 15 --trace 0

A whole set — every workload ``--repeats`` times, plus one traced run
each with ``--trace 1`` — with a table of medians and a JSON file for
``bench/compare.py``::

    python3 bench/run.py --seed 2021 --repeats 3 --trace 1 --json out.json

The parent process generates every input with the benchmark's own
seeded code (``bench/gen.py``) into a temporary directory inside the
checkout, computes the expected results, then starts one fresh child
process at a time (``bench/child.py``) with ``PYTHONHASHSEED=0`` and
``OMP_NUM_THREADS=1``.  Untraced runs report the end-to-end metrics of
``BENCHMARK.json``, timed in reference seconds (``bench/speed.py``);
traced runs report its per-layer metrics, timed by wall.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (for a set, the metrics of its last run).
A run whose child cannot start or crashes prints no such line and exits
with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from compare import quartiles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Set-up is measured in this many separate child processes per
# untraced run, half before and half after the measured run (whose own
# set-up is one more sample), and reported as the median.
SETUP_CHILDREN = 4
# A run, with all its children, must end within this many seconds.
RUN_LIMIT_S = 170.0
SMOKE_SECONDS = 0.5
KEEP_SPANS = 200_000


class BenchError(RuntimeError):
    """A child could not run to completion; the run has no result."""


def run_child(spec: dict, workdir: Path, deadline: float) -> dict:
    spec_path = workdir / f"child-{spec['mode']}.json"
    out_path = workdir / f"child-{spec['mode']}.out.json"
    spec = {**spec, "src": str(ROOT / "src"), "out": str(out_path)}
    spec_path.write_text(json.dumps(spec))
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
    )
    try:
        # subprocess.run kills the child and waits for it on timeout.
        completed = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} child timed out") from None
    if completed.returncode != 0:
        raise BenchError(
            f"{spec['workload']} child exited with {completed.returncode}"
        )
    return json.loads(out_path.read_text())


def check(jobs: list[dict], observations: list) -> list[dict]:
    """The jobs whose observation differs from the oracle's.  A job that
    changes from pass to pass expects a list, one entry per pass in
    turn."""
    failures = []
    for position, (index, observed) in enumerate(observations):
        expected = jobs[index]["expect"]
        if isinstance(expected, list):
            expected = expected[position // len(jobs) % len(expected)]
        if observed != expected:
            failures.append(
                {"job": index, "expected": expected, "observed": observed}
            )
    return failures


def job_medians(latencies: list[float], observations: list) -> list[float]:
    """Each job's median latency over the passes it ran in, in job
    order."""
    per_job: dict[int, list[float]] = {}
    for (index, __), latency in zip(observations, latencies):
        per_job.setdefault(index, []).append(latency)
    return [statistics.median(per_job[index]) for index in sorted(per_job)]


def timings(
    setups: list[float], latencies: list[float], observations: list,
    jobs_per_pass: int,
) -> dict[str, float]:
    """The timing metrics of one run.  The first pass warms the caches
    up and is left out when a whole pass follows it.  Throughput counts
    every job execution after it, collector pauses included.  The
    percentiles are over the jobs of a pass, each at its median over
    the passes: where a full collection lands moves from pass to pass,
    and would otherwise decide which jobs make the 90th percentile."""
    if len(latencies) >= 2 * jobs_per_pass:
        latencies = latencies[jobs_per_pass:]
        observations = observations[jobs_per_pass:]
    medians = job_medians(latencies, observations)
    p90 = (
        statistics.quantiles(medians, n=10)[-1]
        if len(medians) > 1 else medians[0]
    )
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": statistics.median(medians) * 1e3,
        "job_p90_ms": p90 * 1e3,
    }


def run_once(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    trace_dir: Path | None = None,
) -> dict:
    """One run of one workload; returns its record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as tmp:
        workdir = Path(tmp)
        files, jobs, info = gen.prepare(workload, seed, workdir, smoke)
        child_jobs = [
            {k: v for k, v in job.items() if k != "expect"} for job in jobs
        ]
        inputs = {path.name: gen.file_sha256(path) for path in files}
        inputs["jobs"] = hashlib.sha256(
            json.dumps(child_jobs, sort_keys=True).encode()
        ).hexdigest()
        spec = {
            "workload": workload,
            "files": [str(path) for path in files],
            "jobs": child_jobs,
            "seconds": seconds,
            "trace": trace,
            "keep_spans": KEEP_SPANS if trace_dir else 0,
            "chrome_trace": (
                str(trace_dir / f"{workload}.trace.json") if trace_dir else None
            ),
        }
        run_child({**spec, "mode": "import"}, workdir, deadline)

        def setup_samples(count: int) -> list[dict]:
            return [
                run_child({**spec, "mode": "setup"}, workdir, deadline)
                for __ in range(0 if trace else count)
            ]

        setups = setup_samples(SETUP_CHILDREN // 2)
        main = run_child({**spec, "mode": "run"}, workdir, deadline)
        setups += [main, *setup_samples(SETUP_CHILDREN // 2)]
    failures = check(jobs, main["observations"])
    wall = {}
    if trace:
        values, units = main["per_layer"], PER_LAYER
    else:
        values, units = {
            **timings([s["setup_s"] for s in setups], main["latencies"],
                      main["observations"], len(jobs)),
            "peak_rss_mb": main["peak_rss_kb"] / 1024,
        }, END_TO_END
        # The same timings in wall time, for the record only.
        wall = timings([s["setup_wall_s"] for s in setups],
                       main["wall_latencies"], main["observations"], len(jobs))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "correct": not failures,
        "attempted": len(main["observations"]),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
        "passes": main["passes"],
        "jobs_per_pass": len(jobs),
        "mean_job_s": statistics.mean(main["latencies"]),
        "setup_samples": [s["setup_s"] for s in setups],
        "wall": wall,
        "inputs": inputs,
        "info": info,
        "missing_targets": main.get("missing_targets", []),
        "null_layers": main.get("null_layers", []),
    }


def print_record(record: dict) -> None:
    kind = "traced" if record["trace"] else "run"
    print(
        f"# {record['workload']} seed={record['seed']} {kind}: "
        f"{record['attempted']} jobs ({record['passes']} passes), "
        f"{record['failed']} failed"
    )
    for failure in record["failures"]:
        print(f"#   failed job {failure}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:<12} {name:<40} "
              f"{metric['value']:>14.6g} {metric['unit']}")
    if record["missing_targets"]:
        print(f"#   missing wrap targets: {record['missing_targets']}")


def summarize(records: list[dict]) -> None:
    """Median and quartiles of every end-to-end metric per workload."""
    print("# summary: median [q1, q3] over untraced runs")
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        for name, unit in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            print(f"{workload:<12} {name:<12} {median:>12.6g} "
                  f"[{q1:.6g}, {q3:.6g}] {unit} (n={len(values)})")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload once (default: a whole set)")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=None,
                        help="loop time per run (default: run_seconds of "
                             "BENCHMARK.json, or 0.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics (with a "
                             "set: one traced run per workload after the "
                             "untraced repeats)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced runs per workload in a set "
                             "(default 3, or 1 with --smoke)")
    parser.add_argument("--json", type=Path, help="write all run records here")
    parser.add_argument("--trace-dir", type=Path,
                        help="write each traced run's spans as a Chrome "
                             "trace (<workload>.trace.json) here")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 scale inputs and 0.5 s loops")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else SPEC["run_seconds"]
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds and --repeats must be positive")
    return args


def stop(signum: int, frame) -> None:
    """A termination signal leaves as an exception, so the running
    child is killed and waited for and the temporary inputs removed."""
    raise SystemExit(1)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, stop)
    if args.trace_dir:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    if args.workload:
        plan = [(args.workload, bool(args.trace))]
    else:
        plan = [
            (workload, traced)
            for workload in WORKLOADS
            for traced in [False] * args.repeats + [True] * args.trace
        ]
    records = []
    try:
        for workload, traced in plan:
            record = run_once(
                workload, args.seed, args.seconds, traced, args.smoke,
                args.trace_dir if traced else None,
            )
            print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(records) > 1:
        summarize(records)
    if args.json:
        args.json.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "runs": records},
            indent=1,
        ) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[-1]["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
