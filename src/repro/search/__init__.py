"""``repro.search`` — the candidate-search kernel.

One engine behind Algorithms 1/2 (:mod:`repro.rewriting.rewrite`), the
Theorem 4.1/5.6 synthesis pipelines (:mod:`repro.synthesis`), and the
characterization batteries (:mod:`repro.properties`): one in-process
gate → decide → record loop over any iterable of candidates, pluggable
deciders, and budgets that degrade gracefully instead of hanging.  See
DESIGN.md §7 for the architecture and the determinism contract.
"""

from .deciders import (
    Decider,
    EntailmentDecider,
    PredicateDecider,
    ValidityDecider,
    Verdict,
)
from .kernel import SearchBudget, SearchOutcome, run_search

__all__ = [
    "Decider",
    "EntailmentDecider",
    "PredicateDecider",
    "SearchBudget",
    "SearchOutcome",
    "ValidityDecider",
    "Verdict",
    "run_search",
]
