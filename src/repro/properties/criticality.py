"""Criticality (Definition 3.1) and 1-criticality.

An ontology is *k-critical* if it contains a k-critical instance, and
*critical* if it is k-critical for every k > 0.  Every TGD-ontology is
critical (Lemma 3.2): a critical instance satisfies every tgd because any
head can be satisfied by mapping the existentials anywhere.

Checking k-criticality is exact: by isomorphism closure it suffices to
test membership of *the* canonical k-critical instance.
"""

from __future__ import annotations

from ..entailment.trivalent import TriBool
from ..instances.critical import critical_instance
from ..ontology.base import Ontology
from ..search import run_search
from .report import PropertyReport, search_report

__all__ = ["is_k_critical", "criticality_report"]


def is_k_critical(ontology: Ontology, k: int) -> bool:
    """Does the ontology contain a k-critical instance?  Exact."""
    return ontology.contains(critical_instance(ontology.schema, k))


def criticality_report(ontology: Ontology, max_k: int = 4) -> PropertyReport:
    """Check k-criticality for every ``k = 1 .. max_k``.

    Criticality quantifies over all k; the report covers the stated
    range exhaustively (for TGD-ontologies a failure at any k already
    refutes tgd-axiomatizability).
    """
    outcome = run_search(
        (critical_instance(ontology.schema, k) for k in range(1, max_k + 1)),
        lambda critical: TriBool.of(not ontology.contains(critical)),
        stop_after_accepts=1,
    )
    return search_report(
        "criticality",
        outcome,
        scope=f"k <= {max_k}",
        details=f"the {outcome.considered}-critical instance is not a member",
    )
