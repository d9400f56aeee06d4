"""repro.analysis — static analysis of dependency sets.

The subsystem behind ``repro lint``: explained fragment membership
(:mod:`.fragments`), termination certificates beyond weak acyclicity —
syntactic (:mod:`.acyclicity`) and chase-based semantic MSA/MFA
(:mod:`.semantic`) tiers joined in :mod:`.certificates` — the shared
rule dependency graph (:mod:`.depgraph`), rule-set hygiene
(:mod:`.hygiene`), egd/denial stratification (:mod:`.stratification`),
the entailment-backed deep lint (:mod:`.deep`), the deterministic lint
driver (:mod:`.lint`), and the text/JSON/SARIF renderers
(:mod:`.sarif`).

The certificate layer is also the engines' budget gate:
``entails`` / ``certain_answer`` / the ontology layer and ``repro chase
--certificate auto`` ask :func:`default_budget` whether a chase needs a
round budget.  It is the only gating seam; ``chase`` itself takes plain
budgets.
"""

from .acyclicity import (
    AcyclicityReport,
    is_jointly_acyclic,
    is_super_weakly_acyclic,
    joint_acyclicity_report,
    super_weak_acyclicity_report,
)
from .certificates import (
    Certificate,
    CertificateReport,
    certificate_for,
    default_budget,
    guarantees_termination,
)
from .deep import (
    deep_diagnostics,
    escalated_subsumption_diagnostics,
    loop_restriction_diagnostics,
    semantic_reachability_diagnostics,
)
from .depgraph import DepGraph, depgraph_for
from .diagnostics import Diagnostic, Severity, sort_diagnostics, worst_severity
from .fragments import (
    FragmentExplanation,
    explain_fragment,
    explain_fragments,
    fragment_diagnostics,
)
from .hygiene import hygiene_diagnostics
from .lint import LintReport, run_lint
from .sarif import render_json, render_sarif, render_text, sarif_payload
from .semantic import (
    SemanticReport,
    is_mfa,
    is_msa,
    mfa_report,
    msa_report,
)
from .stratification import stratification_diagnostics

__all__ = [
    "AcyclicityReport",
    "Certificate",
    "CertificateReport",
    "DepGraph",
    "Diagnostic",
    "FragmentExplanation",
    "LintReport",
    "SemanticReport",
    "Severity",
    "certificate_for",
    "deep_diagnostics",
    "default_budget",
    "depgraph_for",
    "escalated_subsumption_diagnostics",
    "explain_fragment",
    "explain_fragments",
    "fragment_diagnostics",
    "guarantees_termination",
    "hygiene_diagnostics",
    "is_jointly_acyclic",
    "is_mfa",
    "is_msa",
    "is_super_weakly_acyclic",
    "joint_acyclicity_report",
    "loop_restriction_diagnostics",
    "mfa_report",
    "msa_report",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "sarif_payload",
    "semantic_reachability_diagnostics",
    "sort_diagnostics",
    "stratification_diagnostics",
    "super_weak_acyclicity_report",
    "worst_severity",
]
