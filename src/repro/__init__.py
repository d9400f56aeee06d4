"""repro — Model-theoretic Characterizations of Rule-based Ontologies.

A from-scratch reproduction of Console, Kolaitis & Pieris (PODS 2021):
tuple-generating dependencies and their central subclasses (full, linear,
guarded, frontier-guarded), the chase, entailment, the paper's
model-theoretic properties (criticality, ⊗-closure, the novel (n, m)-
locality and its refinements), the constructive axiomatization theorems,
and the rewriting Algorithms 1 (`G-to-L`) and 2 (`FG-to-G`).

Quickstart::

    from repro import Schema, Instance, parse_tgds, chase

    schema = Schema.of(("Enrolled", 2), ("Student", 1))
    rules = parse_tgds("Enrolled(s, c) -> Student(s)", schema)
    db = Instance.parse("Enrolled(ada, logic)", schema)
    print(chase(db, rules).instance)

See ``examples/`` for end-to-end walkthroughs and ``DESIGN.md`` for the
paper-to-module map.
"""

from .analysis import (
    Certificate,
    CertificateReport,
    Diagnostic,
    LintReport,
    Severity,
    certificate_for,
    is_jointly_acyclic,
    is_super_weakly_acyclic,
    run_lint,
)
from .chase import ChaseResult, StopReason, chase, is_weakly_acyclic
from .dependencies import (
    EDD,
    EGD,
    TGD,
    DenialConstraint,
    DependencyError,
    EqualityDisjunct,
    ExistentialDisjunct,
    TGDClass,
    canonicalize,
    classify,
    enumerate_guarded_tgds,
    enumerate_linear_tgds,
    enumerate_tgds,
    set_width,
)
from .entailment import BCQ, TriBool, certain_answer, entails, equivalent
from .homomorphisms import are_isomorphic, find_homomorphism
from .instances import (
    Instance,
    critical_instance,
    direct_product,
    disjoint_union,
    intersection,
    non_oblivious_duplicating_extension,
    oblivious_duplicating_extension,
    union,
)
from .lang import (
    Atom,
    Const,
    Fact,
    Relation,
    Schema,
    Var,
    parse_dependency,
    parse_tgd,
    parse_tgds,
)
from .ontology import AxiomaticOntology, FiniteOntology, Ontology
from .properties import (
    CharacterizationResult,
    LocalityMode,
    PropertyReport,
    characterize,
    criticality_report,
    locality_report,
    locally_embeddable,
    product_closure_report,
)
from .rewriting import (
    PreflightError,
    RewriteResult,
    frontier_guarded_to_guarded,
    guarded_to_linear,
    rewrite,
)
from .omqa import CQ, UCQ, certain_answers as certain_cq_answers, rewrite_ucq
from .search import (
    CandidateSource,
    SearchBudget,
    SearchOutcome,
    Verdict,
    run_search,
)
from .synthesis import synthesize_full_tgds, synthesize_tgds

__version__ = "1.0.0"

__all__ = [
    "Certificate", "CertificateReport", "Diagnostic", "LintReport", "Severity",
    "certificate_for", "is_jointly_acyclic", "is_super_weakly_acyclic",
    "run_lint",
    "ChaseResult", "StopReason", "chase", "is_weakly_acyclic",
    "EDD", "EGD", "TGD", "DenialConstraint", "DependencyError", "EqualityDisjunct",
    "ExistentialDisjunct", "TGDClass", "canonicalize", "classify",
    "enumerate_guarded_tgds", "enumerate_linear_tgds", "enumerate_tgds",
    "set_width",
    "BCQ", "TriBool", "certain_answer", "entails", "equivalent",
    "are_isomorphic", "find_homomorphism",
    "Instance", "critical_instance", "direct_product", "disjoint_union",
    "intersection", "non_oblivious_duplicating_extension",
    "oblivious_duplicating_extension", "union",
    "Atom", "Const", "Fact", "Relation", "Schema", "Var",
    "parse_dependency", "parse_tgd", "parse_tgds",
    "AxiomaticOntology", "FiniteOntology", "Ontology",
    "CharacterizationResult", "characterize",
    "LocalityMode", "PropertyReport", "criticality_report",
    "locality_report", "locally_embeddable", "product_closure_report",
    "PreflightError", "RewriteResult", "frontier_guarded_to_guarded",
    "guarded_to_linear", "rewrite",
    "CQ", "UCQ", "certain_cq_answers", "rewrite_ucq",
    "CandidateSource", "SearchBudget", "SearchOutcome", "Verdict",
    "run_search",
    "synthesize_full_tgds", "synthesize_tgds",
    "__version__",
]
