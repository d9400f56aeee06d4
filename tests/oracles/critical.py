"""The k-critical check of Section 3.1, for the instances
``critical_instance`` and the workload generators build."""

from __future__ import annotations

from repro import Instance


def is_critical(instance: Instance) -> bool:
    """Every possible tuple over the k-element domain is a fact."""
    k = len(instance.domain)
    return all(
        len(instance.tuples(rel)) == k ** rel.arity for rel in instance.schema
    )
