"""Loading and saving instances.

Two interchange formats:

* **directory of CSVs** — one ``<Relation>.csv`` per relation, one row
  per tuple (the shape every relational tool emits);
* **JSON** — a single document with the schema and relations, able to
  round-trip labeled nulls (serialized as ``{"null": i}``).

Dependency files are plain text (one rule per line) and handled by
:func:`repro.lang.parser.parse_tgds` / the CLI loader.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from ..lang.schema import Relation, Schema, SchemaError
from ..lang.terms import Const, Null
from .instance import Instance, InstanceError

__all__ = [
    "save_instance_csv",
    "load_instance_csv",
    "instance_to_json",
    "instance_from_json",
    "save_instance_json",
    "load_instance_json",
]


def save_instance_csv(instance: Instance, directory: Union[str, Path]) -> None:
    """Write one ``<Relation>.csv`` per relation (header = column index).

    Only constant elements can be written; nulls have no CSV story —
    use the JSON format for chase results.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for rel in instance.schema:
        path = directory / f"{rel.name}.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"c{i}" for i in range(rel.arity)])
            for tup in sorted(instance.tuples(rel), key=repr):
                row = []
                for elem in tup:
                    if not isinstance(elem, Const):
                        raise InstanceError(
                            f"CSV export supports constants only, got "
                            f"{elem!r}; use the JSON format"
                        )
                    row.append(elem.name)
                writer.writerow(row)


def load_instance_csv(
    directory: Union[str, Path], schema: Schema | None = None
) -> Instance:
    """Read every ``*.csv`` in the directory as a relation.

    Arities are inferred from the headers when no schema is given.
    """
    directory = Path(directory)
    relations: dict[Relation, set[tuple]] = {}
    for path in sorted(directory.glob("*.csv")):
        name = path.stem
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                continue
            arity = len(header)
            rel = (
                schema.relation(name) if schema is not None else Relation(name, arity)
            )
            if rel.arity != arity:
                raise InstanceError(
                    f"{path.name} has {arity} columns, schema says "
                    f"{rel.arity}"
                )
            tuples = relations.setdefault(rel, set())
            for row in reader:
                if len(row) != arity:
                    raise InstanceError(f"ragged row in {path.name}: {row}")
                tuples.add(tuple(Const(cell) for cell in row))
    if schema is None:
        schema = Schema(relations.keys())
    domain = {elem for tuples in relations.values() for tup in tuples for elem in tup}
    return Instance(schema, domain, relations)


def _element_to_json(elem: object):
    if isinstance(elem, Const):
        return elem.name
    if isinstance(elem, Null):
        return {"null": elem.index}
    raise InstanceError(f"cannot serialize element {elem!r}")


def _element_from_json(value):
    if isinstance(value, str):
        return Const(value)
    if isinstance(value, dict) and "null" in value:
        index = value["null"]
        if isinstance(index, int) and not isinstance(index, bool):
            return Null(index)
    raise InstanceError(f"cannot deserialize element {value!r}")


def instance_to_json(instance: Instance) -> str:
    """A single JSON document (schema, relations, inactive elements)."""
    document = {
        "schema": {rel.name: rel.arity for rel in instance.schema},
        "relations": {
            rel.name: [
                [_element_to_json(e) for e in tup]
                for tup in sorted(instance.tuples(rel), key=repr)
            ]
            for rel in instance.schema
        },
        "inactive": [
            _element_to_json(e)
            for e in sorted(
                instance.domain - instance.active_domain, key=repr
            )
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


_JSON_KINDS = {dict: "object", list: "array"}


def _json_field(document: dict, key: str, kind: type, default):
    value = document.get(key, default)
    if not isinstance(value, kind):
        raise InstanceError(
            f"{key!r} must be a JSON {_JSON_KINDS[kind]}, got {value!r}"
        )
    return value


def instance_from_json(text: str) -> Instance:
    """Read an :func:`instance_to_json` document.

    A document that is not JSON, or whose schema, relations, rows or
    elements are ill-formed, raises :class:`InstanceError` naming the
    bad part.
    """
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise InstanceError(f"not a JSON document: {exc}") from None
    if not isinstance(document, dict):
        raise InstanceError(
            f"an instance document is a JSON object, got "
            f"{type(document).__name__}"
        )
    declared = []
    for name, arity in _json_field(document, "schema", dict, None).items():
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise InstanceError(
                f"arity of {name!r} must be an integer, got {arity!r}"
            )
        try:
            declared.append(Relation(name, arity))
        except SchemaError as exc:
            raise InstanceError(str(exc)) from None
    schema = Schema(declared)
    relations: dict[Relation, set[tuple]] = {}
    domain = set()
    for name, rows in _json_field(document, "relations", dict, {}).items():
        rel = schema.get(name)
        if rel is None:
            raise InstanceError(f"relation {name!r} is not in the schema")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows
        ):
            raise InstanceError(
                f"rows of {name!r} must be a list of lists, got {rows!r}"
            )
        tuples = set()
        for row in rows:
            tup = tuple(_element_from_json(v) for v in row)
            tuples.add(tup)
            domain.update(tup)
        relations[rel] = tuples
    for value in _json_field(document, "inactive", list, []):
        domain.add(_element_from_json(value))
    return Instance(schema, domain, relations)


def save_instance_json(instance: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(instance_to_json(instance))


def load_instance_json(path: Union[str, Path]) -> Instance:
    return instance_from_json(Path(path).read_text())
