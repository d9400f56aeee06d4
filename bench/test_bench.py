"""Tests of the end-to-end benchmark: ``python3 -m pytest bench/ -q``.

They run the benchmark at smoke scale (1/50 of the inputs, 0.5 s loops).
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import pairs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Per-layer metrics that read 0 on their heavy workload at smoke scale.
FULL_SCALE_ONLY = {"homomorphisms.plan_evictions"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("smoke") / "set.json"
    completed = bench("--smoke", "--trace", "1", "--json", str(out))
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, json.loads(out.read_text())["runs"]


def test_every_metric_is_printed_with_its_unit(smoke_set):
    stdout, runs = smoke_set
    rows = [line.split() for line in stdout.splitlines()]
    printed = {(w, name): unit for w, name, __, unit in
               (row for row in rows if len(row) == 4 and row[0] != "#")}
    for workload in run.WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert printed.get((workload, metric["name"])) == metric["unit"]
    assert all(r["correct"] and r["attempted"] > 0 for r in runs)


def test_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


def test_every_per_layer_metric_has_one_place_in_the_layer_map():
    mapped = [name for names, *__ in layers.MOVES for name in names]
    assert sorted(mapped) == sorted(name for name, __ in layers.PER_LAYER)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for __, moves, heavy, bypass in layers.MOVES:
        assert set(moves) <= end_to_end
        assert set(heavy) | set(bypass) <= set(run.WORKLOADS)
        assert not set(heavy) & set(bypass)


def test_result_line_has_exactly_the_result_keys():
    completed = bench("--workload", "rollup", "--seed", "3", "--seconds",
                      "0.2", "--trace", "0", "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_identical_inputs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir(), second.mkdir()
    files_a, jobs_a, __ = gen.prepare("rollup", 5, first, smoke=True)
    files_b, jobs_b, __ = gen.prepare("rollup", 5, second, smoke=True)
    assert jobs_a == jobs_b
    assert [gen.file_sha256(f) for f in files_a] == [gen.file_sha256(f) for f in files_b]


def _fanouts(path: Path) -> tuple:
    """Per relation, the sorted numbers of children of its parents."""
    children: dict[tuple[str, str], int] = {}
    for line in path.read_text().splitlines()[1:]:
        relation, __, parent = line.split("\t")
        children[relation, parent] = children.get((relation, parent), 0) + 1
    return tuple(
        sorted(n for (rel, __), n in children.items() if rel == relation)
        for relation in gen.LEVEL_RELATIONS
    )


def test_seeds_rename_the_data_but_keep_its_shape(tmp_path):
    inputs = {}
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        files, __, __ = gen.prepare("keys-egd", seed, tmp_path / str(seed))
        inputs[seed] = files
    assert [f.read_bytes() for f in inputs[1]] != [f.read_bytes() for f in inputs[2]]
    assert sorted(map(_fanouts, inputs[1])) == sorted(map(_fanouts, inputs[2]))


def test_the_speed_clock_scales_wall_time_by_the_probed_speed(monkeypatch):
    """At a probe time of twice the reference, a wall second is half a
    reference second; the probes' own time counts in neither."""
    def slow_probe():
        time.sleep(0.001)
        return 2 * speed.REFERENCE_S

    monkeypatch.setattr(speed, "probe", slow_probe)
    handler = signal.getsignal(signal.SIGALRM)
    try:
        clock = speed.SpeedClock(interval=0.002)
        clock.start()
        started = time.perf_counter()
        while time.perf_counter() - started < 0.05:
            pass
        wall, reference = clock.stop()
    finally:
        signal.signal(signal.SIGALRM, handler)
    assert wall < 0.05 - 0.005
    assert reference == pytest.approx(wall / 2)


def test_rewrite_jobs_get_fresh_relation_names_in_every_pass(tmp_path):
    __, jobs, __ = gen.prepare("rewrite-mix", 5, tmp_path)
    assert len(jobs) == len(gen.PINNED_STATUSES)
    texts = [gen.rewrite_text(job, number) for job in jobs for number in range(3)]
    names = [set(re.findall(r"(\w+)\(", text)) for text in texts]
    for i, first in enumerate(names):
        assert all(not first & other for other in names[i + 1:])


def test_a_wrong_oracle_expectation_counts_as_a_failure(monkeypatch):
    monkeypatch.setattr(gen, "keys_expected", lambda rows: "not-the-digest")
    record = run.run_once("keys-egd", 1, 0.2, trace=False, smoke=True)
    assert record["attempted"] > 0
    assert record["failed"] == record["attempted"]
    assert not record["correct"]


def test_peak_rss_is_the_childs_own():
    """A child forked from a big parent reports its own peak, not the
    parent's resident set at the fork."""
    ballast = b"x" * (120 << 20)
    record = run.run_once("keys-egd", 1, 0.2, trace=False, smoke=True)
    assert len(ballast) and record["metrics"]["peak_rss_mb"]["value"] < 100


def test_traced_self_times_account_for_the_measured_job_time(smoke_set):
    """The tracer's own job wall matches the loop's job latencies, and
    the self times plus the unattributed rest add up to it, each part
    non-negative (a span counted twice would make the rest negative)."""
    __, runs = smoke_set
    for record in (r for r in runs if r["trace"]):
        values = {name: m["value"] for name, m in record["metrics"].items()}
        assert values["trace.job_s"] == pytest.approx(record["mean_job_s"], rel=0.02)
        self_times = [values[name] for name in layers.SELF_TIME.values()]
        assert min(self_times) >= 0
        assert values["trace.unattributed_s"] >= 0
        total = sum(self_times) + values["trace.unattributed_s"]
        assert total == pytest.approx(record["mean_job_s"], rel=0.02)


def test_layers_are_nonzero_where_they_work_and_zero_where_bypassed(smoke_set):
    __, runs = smoke_set
    traced = {r["workload"]: {n: m["value"] for n, m in r["metrics"].items()}
              for r in runs if r["trace"]}
    for names, __, heavy, bypass in layers.MOVES:
        for name in names:
            for workload in heavy:
                if name in FULL_SCALE_ONLY:
                    continue
                assert traced[workload][name] > 0, (name, workload)
            for workload in bypass:
                assert traced[workload][name] == 0, (name, workload)
    assert traced["rollup"]["chase.fire_ratio"] == 1


def test_a_missing_wrap_target_is_a_null_layer_not_a_crash():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.lang.parser as parser

    tracer = layers.Tracer(targets=(
        ("repro.chase.engine", "no_such_function", "homomorphisms.join"),
        ("repro.lang.parser", "parse_tgds", "lang.parse"),
    ))
    tracer.install()
    try:
        tracer.begin("setup")
        parser.parse_tgds("R(x) -> S(x)")
        tracer.end()
        tracer.begin("loop")
        tracer.end()
    finally:
        tracer.uninstall()
    assert not hasattr(parser.parse_tgds, "__wrapped__")
    assert tracer.missing == ["repro.chase.engine:no_such_function"]
    assert tracer.null_layers() == ["homomorphisms.join"]
    metrics = layers.layer_metrics(tracer, {}, {}, jobs=1)
    assert set(metrics) == {name for name, __ in layers.PER_LAYER}
    assert metrics["trace.missing_targets"] == 1
    assert metrics["homomorphisms.join_s"] == 0
    assert metrics["lang.parse_s"] > 0


def test_the_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "rollup", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip().endswith("}")


TEN = [100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.5, 99.5]


@pytest.mark.parametrize("parent, change, direction, bound, interleaved, expected", [
    # A gain needs ten interleaved pairs.
    (TEN, [v + 20 for v in TEN], "higher", 0.1, True, "better"),
    (TEN, [v + 20 for v in TEN], "higher", 0.1, False, "no worse"),
    (TEN[:3], [v + 20 for v in TEN[:3]], "higher", 0.1, True, "no worse"),
    (TEN, [v - 20 for v in TEN], "lower", 0.1, True, "better"),
    (TEN, [v - 20 if i else v + 1 for i, v in enumerate(TEN)],
     "lower", 0.1, True, "better"),
    (TEN, [v - 20 if i > 1 else v + 1 for i, v in enumerate(TEN)],
     "lower", 0.1, True, "no worse"),
    ([10, 10.1, 9.9], [10.3, 10.4, 10.2], "lower", 0.1, False, "no worse"),
    ([20, 20.2, 19.8], [25, 25.2, 24.8], "lower", 0.15, False, "worse"),
    ([50, 70, 90], [60, 61, 62], "lower", 0.1, False, "unresolved"),
    ([50, 70, 90], [20, 21, 22], "lower", 0.1, False, "no worse"),
    ([10, 10.1, 9.9], [9.5, 10.2, 9.6], "lower", 0.1, False, "no worse"),
    # Every change run worse than every parent run: worse however noisy.
    ([50, 70, 90], [200, 210, 220], "lower", 0.1, False, "worse"),
    ([100, 60, 140], [20, 25, 30], "higher", 0.1, False, "worse"),
])
def test_compare_verdicts(parent, change, direction, bound, interleaved, expected):
    assert compare.verdict(parent, change, direction, bound, interleaved) == expected


def _runs(workload: str, metrics: dict[str, list[float]], failed: int = 0):
    count = len(next(iter(metrics.values())))
    return [{
        "workload": workload, "trace": False, "inputs": {},
        "attempted": 10, "failed": failed,
        "metrics": {n: {"value": v[i], "unit": "x"} for n, v in metrics.items()},
    } for i in range(count)]


def test_compare_exit_code(tmp_path):
    steady = {m["name"]: [1.0, 1.0, 1.0] for m in SPEC["end_to_end"]}
    slower = {**steady, "job_p50_ms": [1.5, 1.5, 1.5]}
    noisy = {**steady, "job_p50_ms": [0.6, 1.0, 1.4]}
    files = {}
    for name, runs in {
        "parent": _runs("rollup", steady),
        "same": _runs("rollup", steady),
        "slower": _runs("rollup", slower),
        "noisy": _runs("rollup", noisy),
        "failing": _runs("rollup", steady, failed=1),
    }.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({"runs": runs}))
    assert compare.main([str(files["parent"]), str(files["same"])]) == 0
    assert compare.main([str(files["parent"]), str(files["slower"])]) == 1
    assert compare.main([str(files["parent"]), str(files["noisy"])]) == 1
    assert compare.main([str(files["parent"]), str(files["failing"])]) == 1


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, out):
        calls.append((checkout.name, workload, seed))
        return _runs(workload, {m["name"]: [1.0] for m in SPEC["end_to_end"]})[0]

    monkeypatch.setattr(pairs, "run_side", fake_run)
    (tmp_path / "parent").mkdir(), (tmp_path / "change").mkdir()
    status = pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--out", str(tmp_path / "out"), "--pairs", "3",
                         "--seed", "4", "--workload", "rollup"])
    assert status == 0
    assert calls == [
        ("parent", "rollup", 4), ("change", "rollup", 4),
        ("change", "rollup", 5), ("parent", "rollup", 5),
        ("parent", "rollup", 6), ("change", "rollup", 6),
    ]
    for side in pairs.SIDES:
        written = json.loads((tmp_path / "out" / f"{side}.json").read_text())
        assert written["interleaved"] and len(written["runs"]) == 3
