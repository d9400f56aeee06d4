"""The scenario factory's determinism and shape contracts.

A :class:`WorkloadSpec` is a *name* for a byte-exact fact stream, so
the properties here are the ones downstream layers lean on:

* every generated row fits the spec's schema (level relations, arity
  2, level-consistent constant prefixes) and the base row count is
  exactly ``spec.facts`` when no violations are injected;
* identical specs write byte-identical files (across cache clears —
  the Zipf memo is an optimization, never an input);
* heavier ``skew`` concentrates parent references on hub keys
  (monotone for a fixed seed, the inverse-CDF monotonicity argument);
* injected violations are *real*: the per-level key egds make the
  chase fail with ``StopReason.EGD_FAILURE``, while a clean spec
  passes the same constraints.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase import StopReason, chase
from repro.memo import clear_memos
from repro.workloads import (
    WorkloadSpec,
    constraints_of,
    dependencies_of,
    generate_rows,
    level_sizes,
    materialize,
    schema_of,
    write_workload,
)

specs = st.builds(
    WorkloadSpec,
    name=st.just("prop"),
    seed=st.integers(min_value=0, max_value=2**16),
    facts=st.integers(min_value=1, max_value=400),
    levels=st.integers(min_value=2, max_value=5),
    skew=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    violation_rate=st.sampled_from([0.0, 0.1]),
)


class TestShape:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=specs)
    def test_rows_respect_schema_and_levels(self, spec):
        schema = schema_of(spec)
        sizes = level_sizes(spec)
        per_level = Counter()
        for relation, elements in generate_rows(spec):
            assert relation in schema
            assert relation.name.startswith("L")
            assert len(elements) == relation.arity == 2
            level = int(relation.name[1:])
            per_level[level] += 1
            child, parent = elements
            assert child.name.startswith(f"n{level}_")
            expected_prefix = (
                f"n{level + 1}_" if level + 1 < spec.levels else "root_"
            )
            assert parent.name.startswith(expected_prefix)
        if spec.violation_rate == 0.0:
            # Base rows are exactly the level sizes (== spec.facts
            # except under tiny budgets, where every level gets its
            # floor of one row).
            assert per_level == Counter(dict(enumerate(sizes)))
            if spec.facts >= spec.levels:
                assert sum(per_level.values()) == spec.facts
        else:
            # Violations only ever add rows to their own level.
            for level, size in enumerate(sizes):
                assert size <= per_level[level] <= 2 * size

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=specs)
    def test_level_sizes_partition_facts(self, spec):
        sizes = level_sizes(spec)
        assert len(sizes) == spec.levels
        assert all(size >= 1 for size in sizes)
        assert sum(sizes) >= spec.facts
        if spec.facts >= spec.levels:
            assert sum(sizes) == spec.facts

    def test_schema_names(self):
        spec = WorkloadSpec(levels=3)
        assert sorted(rel.name for rel in schema_of(spec)) == [
            "A0", "A1", "L0", "L1", "L2"
        ]


class TestDeterminism:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(spec=specs)
    def test_identical_specs_write_identical_bytes(self, spec, tmp_path_factory):
        root = tmp_path_factory.mktemp("streams")
        write_workload(spec, root / "a.stream")
        clear_memos()  # the memo must not affect the stream
        write_workload(spec, root / "b.stream", batch_size=13)
        assert (root / "a.stream").read_bytes() == (
            root / "b.stream"
        ).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        base = WorkloadSpec(name="s", seed=1, facts=300)
        other = WorkloadSpec(name="s", seed=2, facts=300)
        write_workload(base, tmp_path / "a.stream")
        write_workload(other, tmp_path / "b.stream")
        assert (tmp_path / "a.stream").read_bytes() != (
            tmp_path / "b.stream"
        ).read_bytes()


def _hub_share(spec: WorkloadSpec) -> float:
    """Fraction of level-0 references landing on that level's most
    popular parent key."""
    parents = Counter(
        parent
        for relation, (child, parent) in generate_rows(spec)
        if relation.name == "L0"
    )
    return max(parents.values()) / sum(parents.values())


class TestSkew:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_hub_share_monotone_in_skew(self, seed):
        shares = [
            _hub_share(
                WorkloadSpec(name="z", seed=seed, facts=2000, skew=skew)
            )
            for skew in (0.0, 1.0, 2.0)
        ]
        assert shares[0] < shares[1] < shares[2]
        # Uniform draws spread thin; heavy skew concentrates hard.
        assert shares[0] < 0.05
        assert shares[2] > 0.3


class TestConstraints:
    def test_clean_spec_passes_key_egds(self):
        spec = WorkloadSpec(name="ok", seed=5, facts=500)
        db = materialize(spec)
        result = chase(db, constraints_of(spec))
        assert result.successful
        assert result.instance == db.with_schema(result.instance.schema)

    def test_violations_fail_the_egd_chase(self):
        spec = WorkloadSpec(
            name="bad", seed=5, facts=500, violation_rate=0.05
        )
        db = materialize(spec)
        result = chase(db, constraints_of(spec))
        assert result.failed
        assert result.stop_reason == StopReason.EGD_FAILURE

    def test_rollup_rules_derive_every_level(self):
        spec = WorkloadSpec(name="roll", seed=9, facts=600, levels=4)
        result = chase(materialize(spec), dependencies_of(spec))
        assert result.successful
        for k in range(spec.levels - 1):
            assert result.instance.tuples(f"A{k}")


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"facts": 0},
            {"levels": 1},
            {"skew": -0.5},
            {"violation_rate": -0.1},
            {"violation_rate": 1.5},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)
