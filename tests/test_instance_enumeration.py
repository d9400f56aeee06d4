"""Unit tests for bounded instance enumeration."""

from repro import Instance, Schema
from repro.instances import (
    all_extensions,
    all_instances,
    all_instances_up_to,
    default_domain,
)


class TestAllInstances:
    def test_count_matches_formula(self):
        schema = Schema.of(("S", 1))
        domain = default_domain(2)
        instances = list(all_instances(schema, domain))
        assert len(instances) == 2 ** sum(2 ** rel.arity for rel in schema) == 4

    def test_binary_relation_count(self):
        schema = Schema.of(("R", 2))
        instances = list(all_instances(schema, default_domain(2)))
        assert len(instances) == 16  # 2^(2^2)

    def test_all_share_domain(self):
        schema = Schema.of(("S", 1))
        domain = default_domain(2)
        for inst in all_instances(schema, domain):
            assert inst.domain == frozenset(domain)

    def test_no_duplicates(self):
        schema = Schema.of(("S", 1), ("P", 1))
        instances = list(all_instances(schema, default_domain(1)))
        assert len(instances) == len(set(instances)) == 4

    def test_up_to_accumulates_layers(self):
        schema = Schema.of(("S", 1))
        layers = list(all_instances_up_to(schema, 2))
        # k=0: 1 (empty), k=1: 2, k=2: 4
        assert len(layers) == 7

    def test_zero_ary_relation(self):
        schema = Schema.of(("Aux", 0))
        instances = list(all_instances(schema, default_domain(1)))
        assert len(instances) == 2  # Aux present or absent


class TestAllExtensions:
    def test_base_is_first(self):
        schema = Schema.of(("S", 1))
        base = Instance.parse("S(a)", schema)
        extensions = list(all_extensions(base, []))
        assert extensions[0] == base

    def test_every_extension_contains_base(self):
        schema = Schema.of(("S", 1))
        base = Instance.parse("S(a)", schema)
        from repro.lang import Const

        for ext in all_extensions(base, [Const("x")]):
            assert base.is_subset_of(ext)

    def test_extension_count(self):
        schema = Schema.of(("S", 1))
        base = Instance.parse("S(a)", schema)
        from repro.lang import Const

        # tuples over {a, x}: S(a) already present, S(x) optional -> 2.
        assert len(list(all_extensions(base, [Const("x")]))) == 2
