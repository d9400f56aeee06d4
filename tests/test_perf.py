"""The `repro.perf` trajectory harness and regression gates.

Locks the three properties `repro bench --compare` relies on:

* measurements are deterministic in their operation counts (the
  cold-cache protocol makes counters a pure function of the codebase);
* `BENCH_<family>.json` artifacts round-trip exactly;
* the gates trip on injected regressions and stay silent otherwise —
  with the wall gate fingerprint-guarded so committed cross-machine
  baselines never raise wall false alarms.
"""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    BENCH_SCHEMA,
    FAMILIES,
    BenchResult,
    MissingBaselineError,
    apply_injection,
    bench_filename,
    compare_results,
    environment_fingerprint,
    load_baseline,
    parse_injection,
    render_regressions,
    resolve_families,
    run_family,
)
from repro.telemetry import TELEMETRY


@pytest.fixture(autouse=True)
def clean_telemetry():
    TELEMETRY.disable()
    TELEMETRY.reset()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _result(family="chase-full", walls=(0.010, 0.011), counters=None,
            fingerprint=None):
    return BenchResult(
        family=family,
        wall_seconds=walls,
        counters=counters or {"hom.index_probes": 100, "chase.rounds": 4},
        fingerprint=fingerprint or environment_fingerprint(),
    )


class TestRegistry:
    def test_families_cover_both_engines(self):
        names = set(FAMILIES)
        assert any(name.startswith("chase") for name in names)
        assert any(name.startswith("rewrite") for name in names)
        assert "entails-cold" in names

    def test_resolve_by_name_and_smoke(self):
        chosen = resolve_families("chase-full,entails-cold")
        assert [f.name for f in chosen] == ["chase-full", "entails-cold"]
        smoke = resolve_families(None, smoke_only=True)
        assert all(f.smoke for f in smoke)
        assert "rewrite-full" not in {f.name for f in smoke}

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown bench family"):
            resolve_families("no-such-family")


class TestHarness:
    def test_run_family_records_walls_and_counters(self):
        result = run_family(FAMILIES["chase-full"], repeats=2)
        assert result.family == "chase-full"
        assert len(result.wall_seconds) == 2
        assert all(w > 0 for w in result.wall_seconds)
        assert result.counters.get("chase.rounds", 0) >= 1
        assert result.counters.get("hom.index_probes", 0) > 0
        assert "chase.round_triggers" in result.histograms
        assert result.fingerprint == environment_fingerprint()
        # telemetry left disabled and clean afterwards
        assert not TELEMETRY.enabled
        assert TELEMETRY.snapshot() == {}

    def test_fingerprint_carries_the_boot_id(self, tmp_path, monkeypatch):
        from repro.perf import fingerprint

        boot = tmp_path / "boot_id"
        boot.write_text("0f1e2d3c-boot\n")
        monkeypatch.setattr(fingerprint, "_BOOT_ID_PATH", str(boot))
        assert environment_fingerprint()["boot_id"] == "0f1e2d3c-boot"
        # Unreadable (no such file on this platform): an empty id.
        monkeypatch.setattr(
            fingerprint, "_BOOT_ID_PATH", str(tmp_path / "missing")
        )
        assert environment_fingerprint()["boot_id"] == ""

    def test_counters_are_deterministic_across_measurements(self):
        one = run_family(FAMILIES["rewrite-linear"], repeats=1)
        two = run_family(FAMILIES["rewrite-linear"], repeats=1)
        assert dict(one.counters) == dict(two.counters)
        # time.* histograms are wall-clock; everything else is exact
        deterministic = lambda hists: {
            k: h.to_dict()
            for k, h in hists.items()
            if not k.startswith("time.")
        }
        assert deterministic(one.histograms) == deterministic(two.histograms)

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_family(FAMILIES["chase-full"], repeats=0)


class TestArtifact:
    def test_write_and_load_round_trip(self, tmp_path):
        result = run_family(FAMILIES["chase-existential"], repeats=1)
        path = result.write(tmp_path)
        assert path.name == bench_filename("chase-existential")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema"] == BENCH_SCHEMA
        assert data["repeats"] == 1
        back = BenchResult.load(path)
        assert back.to_dict() == result.to_dict()
        assert back.best_seconds == result.best_seconds

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(
            json.dumps({"schema": "other", "wall_seconds": [1.0]}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="unsupported bench schema"):
            BenchResult.load(path)

    def test_load_rejects_empty_samples(self):
        with pytest.raises(ValueError, match="no wall_seconds"):
            BenchResult.from_dict({"schema": BENCH_SCHEMA,
                                   "wall_seconds": []})


class TestCompare:
    def test_identical_results_pass(self):
        base = _result()
        assert compare_results(base, base) == []

    def test_wall_regression_trips_with_same_fingerprint(self):
        base = _result(walls=(0.010,))
        cur = _result(walls=(0.015,))
        regs = compare_results(base, cur)
        assert [r.metric for r in regs] == ["wall"]
        assert regs[0].ratio == pytest.approx(1.5)

    def test_wall_gate_skipped_across_machines(self):
        base = _result(walls=(0.010,),
                       fingerprint={"python": "3.11", "node": "elsewhere"})
        cur = _result(walls=(0.050,))
        assert compare_results(base, cur) == []

    def test_wall_gate_skipped_across_boots(self):
        """Virtual machines share generic host names, so a baseline
        from another boot of a same-named machine must not gate wall
        time — but its counters still gate."""
        here = environment_fingerprint()
        rebooted = {**here, "boot_id": here["boot_id"] + "-other"}
        base = _result(walls=(0.010,), fingerprint=rebooted)
        slow = _result(walls=(0.050,), fingerprint=here)
        assert compare_results(base, slow) == []
        more_work = _result(
            walls=(0.050,),
            counters={"hom.index_probes": 200, "chase.rounds": 4},
            fingerprint=here,
        )
        regs = compare_results(base, more_work)
        assert [r.metric for r in regs] == ["hom.index_probes"]

    def test_wall_gate_trips_on_the_same_boot(self):
        here = environment_fingerprint()
        base = _result(walls=(0.010,), fingerprint=dict(here))
        cur = _result(walls=(0.050,), fingerprint=dict(here))
        regs = compare_results(base, cur)
        assert [r.metric for r in regs] == ["wall"]

    def test_counter_regression_trips_regardless_of_machine(self):
        base = _result(fingerprint={"node": "elsewhere"})
        cur = _result(counters={"hom.index_probes": 200, "chase.rounds": 4})
        regs = compare_results(base, cur)
        assert [r.metric for r in regs] == ["hom.index_probes"]

    def test_small_drift_stays_under_threshold(self):
        base = _result(walls=(0.010,))
        cur = _result(
            walls=(0.011,),
            counters={"hom.index_probes": 110, "chase.rounds": 4},
        )
        assert compare_results(base, cur) == []

    def test_threshold_is_configurable(self):
        base = _result(walls=(0.010,))
        cur = _result(walls=(0.011,))
        regs = compare_results(base, cur, wall_threshold=0.05)
        assert [r.metric for r in regs] == ["wall"]

    def test_family_mismatch_raises(self):
        with pytest.raises(ValueError, match="family mismatch"):
            compare_results(_result("a"), _result("b"))

    def test_render(self):
        assert render_regressions([]) == "no regressions"
        regs = compare_results(_result(walls=(0.010,)),
                               _result(walls=(0.030,)))
        text = render_regressions(regs)
        assert "1 regression(s)" in text
        assert "wall" in text


class TestInjection:
    def test_parse(self):
        assert parse_injection(None) == {}
        assert parse_injection("wall=1.5") == {"wall": 1.5}
        assert parse_injection("wall=1.5, probes=1.3") == {
            "wall": 1.5,
            "probes": 1.3,
        }

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown injection key"):
            parse_injection("cpu=2")
        with pytest.raises(ValueError, match="must be a number"):
            parse_injection("wall=fast")

    def test_injected_wall_trips_the_gate(self):
        base = _result()
        cur = apply_injection(base, {"wall": 1.5})
        regs = compare_results(base, cur)
        assert [r.metric for r in regs] == ["wall"]

    def test_injected_probes_trip_the_gate(self):
        base = _result()
        cur = apply_injection(base, {"probes": 1.3})
        regs = compare_results(base, cur)
        assert "hom.index_probes" in [r.metric for r in regs]

    def test_no_factors_is_identity(self):
        base = _result()
        assert apply_injection(base, {}) is base


class TestBaselineLoading:
    def test_load_baseline_round_trips(self, tmp_path):
        result = _result()
        result.write(tmp_path)
        loaded = load_baseline(tmp_path, "chase-full")
        assert loaded.family == "chase-full"
        assert loaded.wall_seconds == result.wall_seconds
        assert dict(loaded.counters) == dict(result.counters)

    def test_missing_family_raises_typed_error(self, tmp_path):
        with pytest.raises(MissingBaselineError) as excinfo:
            load_baseline(tmp_path, "chase-full")
        err = excinfo.value
        # Typed fields let the CLI distinguish "never baselined" from
        # "corrupt file" and tell the user exactly what to regenerate.
        assert err.family == "chase-full"
        assert err.path == tmp_path / bench_filename("chase-full")
        message = str(err)
        assert "no baseline for family 'chase-full'" in message
        assert "record one with" in message
        assert isinstance(err, ValueError)

    def test_corrupt_file_is_not_a_missing_baseline(self, tmp_path):
        path = tmp_path / bench_filename("chase-full")
        path.write_text('{"schema": "repro/bench@999"}')
        with pytest.raises(ValueError, match="unsupported bench schema"):
            load_baseline(tmp_path, "chase-full")
        with pytest.raises(ValueError) as excinfo:
            load_baseline(tmp_path, "chase-full")
        assert not isinstance(excinfo.value, MissingBaselineError)


class TestCommittedBaselines:
    def test_baselines_exist_and_pass_against_themselves(self):
        from pathlib import Path

        baseline_dir = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "baselines"
        )
        files = sorted(baseline_dir.glob("BENCH_*.json"))
        assert files, "committed baselines missing"
        for path in files:
            result = BenchResult.load(path)
            assert result.schema == BENCH_SCHEMA
            assert compare_results(result, result) == []

    def test_every_family_has_a_committed_baseline(self):
        """The CI trajectory job compares every smoke family against
        ``benchmarks/baselines`` — and missing baselines are a hard
        failure there, so adding a family without recording one must
        fail here first."""
        from pathlib import Path

        baseline_dir = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "baselines"
        )
        for family in FAMILIES.values():
            loaded = load_baseline(baseline_dir, family.name)
            assert loaded.family == family.name
