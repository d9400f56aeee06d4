"""Unit tests for the LTGD/GTGD/TGD/E_{n,m} enumerators."""

import pytest

from repro import Schema
from repro.dependencies import (
    TGDClass,
    all_in_class,
    canonical_atom_patterns,
    canonical_key,
    dedup_canonical,
    enumerate_dds,
    enumerate_edds,
    enumerate_frontier_guarded_tgds,
    enumerate_full_tgds,
    enumerate_guarded_tgds,
    enumerate_heads,
    enumerate_linear_tgds,
    enumerate_tgds,
    is_trivial_tgd,
)
from repro.lang import Var, parse_tgd
from tests.oracles import enumeration as oracle

UNARY = Schema.of(("R", 1), ("P", 1), ("T", 1))
BINARY = Schema.of(("E", 2))
MIXED = Schema.of(("R", 1), ("E", 2))


class TestAtomPatterns:
    def test_unary_patterns(self):
        pats = canonical_atom_patterns(UNARY, 2)
        # one pattern per unary relation (R(x0)) regardless of the bound
        assert len(pats) == 3

    def test_binary_patterns(self):
        pats = canonical_atom_patterns(BINARY, 2)
        # E(x0,x0) and E(x0,x1) — E(x1,x0) is a renaming of the latter.
        assert len(pats) == 2

    def test_binary_patterns_bound_one(self):
        assert len(canonical_atom_patterns(BINARY, 1)) == 1

    def test_zero_ary(self):
        schema = Schema.of(("Aux", 0))
        assert len(canonical_atom_patterns(schema, 3)) == 1

    def test_patterns_pairwise_non_isomorphic(self):
        pats = canonical_atom_patterns(Schema.of(("W", 3)), 3)
        heads = [parse_tgd(f"{a} -> {a}".replace("?", "")) for a in map(str, pats)]
        keys = {canonical_key(t) for t in heads}
        assert len(keys) == len(pats) == 5  # Bell(3) = 5


class TestHeads:
    def test_full_heads_are_single_atoms(self):
        heads = list(enumerate_heads(UNARY, (Var("x"),), 0))
        assert all(len(h) == 1 for h in heads)
        assert len(heads) == 3

    def test_connected_heads_all_share_existentials(self):
        heads = list(enumerate_heads(BINARY, (Var("x"),), 1))
        for head in heads:
            if len(head) > 1:
                for atom in head:
                    assert Var("w0") in atom.variables()

    def test_disconnected_allowed_when_requested(self):
        connected = list(enumerate_heads(UNARY, (Var("x"),), 0))
        free = list(
            enumerate_heads(UNARY, (Var("x"),), 0, connected_only=False)
        )
        assert len(free) > len(connected)

    def test_max_atoms_cap(self):
        capped = list(
            enumerate_heads(BINARY, (Var("x"),), 1, max_atoms=1)
        )
        assert all(len(h) == 1 for h in capped)


class TestHeadsAgainstOracle:
    """The bit-mask connectivity test yields what the reference, which
    rebuilds every atom's existential set per combination, yields — the
    same heads in the same order, and so the same tgd streams."""

    @pytest.mark.parametrize(
        "schema, pool, m, max_atoms",
        [
            (UNARY, ("x0",), 0, None),
            (UNARY, ("x0",), 2, None),
            (UNARY, ("x0", "x1"), 2, None),
            (BINARY, ("x0",), 1, None),
            (BINARY, ("x0",), 2, None),
            (BINARY, ("x0", "x1"), 2, 3),
            (MIXED, ("x0", "x1"), 1, None),
            (MIXED, (), 2, 3),
        ],
    )
    @pytest.mark.parametrize("connected_only", [True, False])
    def test_enumerate_heads(self, schema, pool, m, max_atoms, connected_only):
        frontier = tuple(Var(name) for name in pool)
        options = dict(max_atoms=max_atoms, connected_only=connected_only)
        assert list(enumerate_heads(schema, frontier, m, **options)) == list(
            oracle.enumerate_heads(schema, frontier, m, **options)
        )

    @pytest.mark.parametrize(
        "schema, n, m, max_head_atoms",
        [
            (UNARY, 1, 0, None),
            (UNARY, 1, 1, None),
            (UNARY, 2, 2, None),
            (BINARY, 1, 1, None),
            (BINARY, 2, 1, None),
            (BINARY, 2, 2, 2),
            (MIXED, 2, 1, 2),
        ],
    )
    @pytest.mark.parametrize(
        "enumerator", [enumerate_linear_tgds, enumerate_guarded_tgds]
    )
    def test_tgd_enumerators(self, enumerator, schema, n, m, max_head_atoms):
        stream = list(enumerator(schema, n, m, max_head_atoms=max_head_atoms))
        with oracle.reference_heads():
            reference = list(
                enumerator(schema, n, m, max_head_atoms=max_head_atoms)
            )
        assert stream == reference
        assert stream


class TestLinearEnumeration:
    def test_all_linear_and_within_width(self):
        for tgd in enumerate_linear_tgds(UNARY, 1, 1):
            assert tgd.is_linear
            n, m = tgd.width
            assert n <= 1 and m <= 1

    def test_count_n1_m0_three_unaries(self):
        # bodies R/P/T(x0), heads R/P/T(x0) — no empty-body heads at m=0.
        assert sum(1 for __ in enumerate_linear_tgds(UNARY, 1, 0)) == 9

    def test_no_canonical_duplicates(self):
        tgds = list(enumerate_linear_tgds(BINARY, 2, 1))
        assert len(dedup_canonical(tgds)) == len(tgds)

    def test_empty_body_included_when_m_positive(self):
        tgds = list(enumerate_linear_tgds(UNARY, 0, 1))
        assert any(not t.body for t in tgds)

    def test_covers_specific_candidates(self):
        keys = {
            canonical_key(t) for t in enumerate_linear_tgds(BINARY, 2, 1)
        }
        for text in (
            "E(x, y) -> E(y, x)",
            "E(x, y) -> exists z . E(y, z)",
            "E(x, x) -> exists z . E(x, z), E(z, x)",
        ):
            assert canonical_key(parse_tgd(text, BINARY)) in keys


class TestGuardedEnumeration:
    def test_all_guarded_within_width(self):
        for tgd in enumerate_guarded_tgds(UNARY, 1, 0):
            assert tgd.is_guarded
            assert tgd.width[0] <= 1

    def test_includes_multi_atom_bodies(self):
        tgds = list(enumerate_guarded_tgds(UNARY, 1, 0))
        assert any(len(t.body) == 2 for t in tgds)

    def test_superset_of_linear(self):
        linear = {
            canonical_key(t) for t in enumerate_linear_tgds(UNARY, 1, 0)
        }
        guarded = {
            canonical_key(t) for t in enumerate_guarded_tgds(UNARY, 1, 0)
        }
        assert linear <= guarded

    def test_covers_separation_witness(self):
        keys = {
            canonical_key(t) for t in enumerate_guarded_tgds(UNARY, 1, 0)
        }
        assert canonical_key(parse_tgd("R(x), P(x) -> T(x)", UNARY)) in keys

    def test_body_cap(self):
        capped = list(
            enumerate_guarded_tgds(UNARY, 1, 0, max_extra_body_atoms=0)
        )
        assert all(len(t.body) <= 1 for t in capped)


class TestGenericEnumeration:
    def test_respects_class_filters(self):
        fg = list(enumerate_frontier_guarded_tgds(UNARY, 2, 0))
        assert fg and all_in_class(fg, TGDClass.FRONTIER_GUARDED)

    def test_frontier_guarded_strictly_between(self):
        # R(x), P(y) -> T(x) is frontier-guarded, not guarded.
        keys = {
            canonical_key(t)
            for t in enumerate_frontier_guarded_tgds(UNARY, 2, 0)
        }
        witness = parse_tgd("R(x), P(y) -> T(x)", UNARY)
        assert canonical_key(witness) in keys
        guarded_keys = {
            canonical_key(t) for t in enumerate_guarded_tgds(UNARY, 2, 0)
        }
        assert canonical_key(witness) not in guarded_keys

    def test_full_enumeration_is_full(self):
        full = list(enumerate_full_tgds(UNARY, 2))
        assert full and all(t.is_full for t in full)

    def test_tgd_enumeration_body_cap(self):
        tgds = list(enumerate_tgds(UNARY, 2, 0, max_body_atoms=1))
        assert all(len(t.body) <= 1 for t in tgds)


class TestDisjunctiveEnumeration:
    def test_dds_have_no_existentials(self):
        for dd in enumerate_dds(UNARY, 1, max_body_atoms=1):
            assert dd.is_dd

    def test_edds_respect_width(self):
        for edd in enumerate_edds(UNARY, 1, 1, max_disjuncts=2):
            n, m = edd.width
            assert n <= 1 and m <= 1

    def test_edds_include_equality_heads(self):
        edds = list(enumerate_edds(BINARY, 2, 0, max_disjuncts=1))
        assert any(e.is_egd for e in edds)


class TestTriviality:
    def test_trivial_tgd_detection(self):
        assert is_trivial_tgd(parse_tgd("R(x) -> R(x)", UNARY))
        assert not is_trivial_tgd(parse_tgd("R(x) -> P(x)", UNARY))


class TestConstructionErrorsPropagate:
    """Only malformed candidates (``DependencyError``) are skipped; any
    other error while building a tgd is a bug and must surface instead
    of silently shrinking the §9.2 candidate counts."""

    ENUMERATORS = {
        "linear": lambda: enumerate_linear_tgds(UNARY, 1, 1),
        "guarded": lambda: enumerate_guarded_tgds(UNARY, 1, 1),
        "tgds": lambda: enumerate_tgds(UNARY, 1, 1),
    }

    @staticmethod
    def _raising(error):
        def build(body, head):
            raise error

        return build

    @pytest.mark.parametrize("name", sorted(ENUMERATORS))
    def test_unexpected_error_propagates(self, name, monkeypatch):
        from repro.dependencies import enumeration

        monkeypatch.setattr(
            enumeration, "TGD", self._raising(RuntimeError("bug"))
        )
        with pytest.raises(RuntimeError, match="bug"):
            list(self.ENUMERATORS[name]())

    @pytest.mark.parametrize("name", sorted(ENUMERATORS))
    def test_malformed_candidates_are_skipped(self, name, monkeypatch):
        from repro.dependencies import DependencyError, enumeration

        monkeypatch.setattr(
            enumeration, "TGD", self._raising(DependencyError("malformed"))
        )
        assert list(self.ENUMERATORS[name]()) == []

    def test_random_tgd_propagates(self, monkeypatch):
        import random

        from repro.workloads import random_tgd, random_tgds

        monkeypatch.setattr(
            random_tgds, "TGD", self._raising(RuntimeError("bug"))
        )
        with pytest.raises(RuntimeError, match="bug"):
            random_tgd(random.Random(0), BINARY)
