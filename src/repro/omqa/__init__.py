"""Ontology-mediated query answering: CQs, certain answers, and UCQ
rewriting for linear tgds."""

from .cq import CQ, UCQ, certain_answers, chase_certain_answers
from .rewriting import RewritingResult, rewrite_ucq, subsumes

__all__ = [
    "CQ", "UCQ", "certain_answers", "chase_certain_answers",
    "RewritingResult", "rewrite_ucq", "subsumes",
]
