"""The relational language: terms, schemas, atoms, parsing, printing."""

from .atoms import Atom, Fact, atoms_variables
from .parser import (
    ParseError,
    parse_atom,
    parse_atoms,
    parse_dependency,
    parse_edd,
    parse_egd,
    parse_fact,
    parse_facts,
    parse_tgd,
    parse_tgds,
)
from .printer import format_dependencies, format_instance, format_table
from .schema import Relation, Schema, SchemaError
from .terms import Const, FreshConsts, FreshNulls, FreshVars, Null, Var

__all__ = [
    "Atom", "Fact", "atoms_variables",
    "ParseError", "parse_atom", "parse_atoms", "parse_dependency", "parse_edd",
    "parse_egd", "parse_fact", "parse_facts", "parse_tgd", "parse_tgds",
    "format_dependencies", "format_instance", "format_table",
    "Relation", "Schema", "SchemaError",
    "Const", "FreshConsts", "FreshNulls", "FreshVars", "Null", "Var",
]
