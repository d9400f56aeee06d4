"""Shared fixtures: the schemas and instances used across the suite."""

from __future__ import annotations

import random

import pytest

from repro import Instance, Schema, parse_tgds
from repro.lang import Const
from repro.memo import clear_memos


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Isolate tests from the process-wide memos.

    The memos are deliberately global (repeated questions across a
    session should hit), but tests assert cold-start behaviour — counter
    values, chase spans — that memos warmed by an earlier test would
    silently satisfy or shift."""
    clear_memos()
    yield


@pytest.fixture
def unary_schema() -> Schema:
    """The Section 9.1 schema: three unary relations."""
    return Schema.of(("R", 1), ("P", 1), ("T", 1))


@pytest.fixture
def binary_schema() -> Schema:
    return Schema.of(("R", 2), ("S", 2), ("T", 2))


@pytest.fixture
def mixed_schema() -> Schema:
    return Schema.of(("E", 2), ("V", 1))


@pytest.fixture
def example_52_instance(binary_schema) -> Instance:
    """The instance I of Example 5.2."""
    return Instance.parse("R(a, b). S(b, a). T(a, a)", binary_schema)


@pytest.fixture
def example_52_tgd(binary_schema):
    """σ = R(x, y), S(y, z) → T(x, z) of Example 5.2."""
    return parse_tgds("R(x, y), S(y, z) -> T(x, z)", binary_schema)[0]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20210620)  # PODS'21 started June 20, 2021


@pytest.fixture
def c():
    """Constant factory: c('a') == Const('a')."""
    return Const
