"""Unit tests for instance persistence (CSV directories and JSON)."""

import pytest

from repro import Instance, Schema, chase, parse_tgds
from repro.instances import (
    InstanceError,
    instance_from_json,
    instance_to_json,
    load_instance_csv,
    load_instance_json,
    save_instance_csv,
    save_instance_json,
)
from repro.lang import Const

SCHEMA = Schema.of(("E", 2), ("P", 1))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        original = Instance.parse("E(a, b). E(b, c). P(a)", SCHEMA)
        save_instance_csv(original, tmp_path)
        loaded = load_instance_csv(tmp_path, SCHEMA)
        assert loaded.facts() == original.facts()

    def test_schema_inferred(self, tmp_path):
        original = Instance.parse("E(a, b)", SCHEMA)
        save_instance_csv(original, tmp_path)
        loaded = load_instance_csv(tmp_path)
        assert loaded.schema.relation("E").arity == 2
        # P.csv exists but is empty of rows; it still declares P/1.
        assert "P" in loaded.schema

    def test_nulls_rejected(self, tmp_path):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        chased = chase(Instance.parse("P(a)", SCHEMA), rules).instance
        with pytest.raises(InstanceError):
            save_instance_csv(chased, tmp_path)

    def test_arity_mismatch_detected(self, tmp_path):
        (tmp_path / "E.csv").write_text("c0\nonly-one-column\n")
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path, SCHEMA)

    def test_ragged_row_detected(self, tmp_path):
        (tmp_path / "E.csv").write_text("c0,c1\na,b\nc\n")
        with pytest.raises(InstanceError):
            load_instance_csv(tmp_path)


class TestJson:
    def test_roundtrip_constants(self):
        original = Instance.parse("E(a, b). P(a)", SCHEMA)
        assert instance_from_json(instance_to_json(original)) == original

    def test_roundtrip_nulls(self):
        rules = parse_tgds("P(x) -> exists z . E(x, z)", SCHEMA)
        chased = chase(Instance.parse("P(a)", SCHEMA), rules).instance
        again = instance_from_json(instance_to_json(chased))
        assert again == chased

    def test_roundtrip_inactive_elements(self):
        padded = Instance.parse("P(a)", SCHEMA).with_domain(
            {Const("a"), Const("ghost")}
        )
        again = instance_from_json(instance_to_json(padded))
        assert again == padded

    def test_file_roundtrip(self, tmp_path):
        original = Instance.parse("E(a, b)", SCHEMA)
        path = tmp_path / "instance.json"
        save_instance_json(original, path)
        assert load_instance_json(path) == original

    def test_deterministic_output(self):
        original = Instance.parse("E(a, b). E(b, a). P(a)", SCHEMA)
        assert instance_to_json(original) == instance_to_json(original)

    def test_bad_element_rejected(self):
        with pytest.raises(Exception):
            instance_from_json('{"schema": {"P": 1}, "relations": {"P": [[42]]}}')

    @pytest.mark.parametrize(
        "document, names",
        [
            ('[["E", "a", "b"]]', "JSON object"),
            ("{", "not a JSON document"),
            ('{"relations": {}}', "'schema'"),
            ('{"schema": {"P": "1"}}', "arity of 'P'"),
            ('{"schema": {"P": 1.5}}', "arity of 'P'"),
            ('{"schema": {"P": true}}', "arity of 'P'"),
            ('{"schema": {"P": -1}}', "arity of 'P'"),
            ('{"schema": {"": 1}}', "relation name"),
            ('{"schema": {"P": 1}, "relations": {"Q": [["a"]]}}',
             "relation 'Q'"),
            ('{"schema": {"P": 1}, "relations": [["a"]]}', "'relations'"),
            ('{"schema": {"P": 1}, "relations": {"P": "a"}}', "rows of 'P'"),
            ('{"schema": {"P": 1}, "relations": {"P": [["a", "b"]]}}',
             "wrong arity"),
            ('{"schema": {"P": 1}, "relations": {"P": [[{"null": "x"}]]}}',
             "{'null': 'x'}"),
            ('{"schema": {"P": 1}, "relations": {"P": [[{"null": 1.5}]]}}',
             "{'null': 1.5}"),
            ('{"schema": {"P": 1}, "inactive": {"a": 1}}', "'inactive'"),
        ],
    )
    def test_malformed_documents_raise_instance_error(self, document, names):
        with pytest.raises(InstanceError) as info:
            instance_from_json(document)
        assert names in str(info.value)
