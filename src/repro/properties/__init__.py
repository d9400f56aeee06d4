"""Model-theoretic properties of ontologies (Sections 3, 5-8)."""

from .characterize import (
    CharacterizationResult,
    ClassVerdict,
    characterize,
)
from .closures import (
    binary_closure_report,
    disjoint_union_closure_report,
    domain_independence_report,
    duplicating_extension_closure_report,
    intersection_closure_report,
    product_closure_report,
    subinstance_closure_report,
    union_closure_report,
)
from .criticality import criticality_report, is_k_critical
from .diagrams import (
    DiagramError,
    RelativeDiagram,
    extract_edd,
    find_separating_anchor,
    phi_satisfied_by,
    relative_diagram,
)
from .locality import (
    LocalityMode,
    anchors_for,
    locality_report,
    locally_embeddable,
    neighbourhood_embeds,
)
from .modularity import is_n_modular_for, modularity_report, small_refutation
from .report import PropertyReport

__all__ = [
    "CharacterizationResult", "ClassVerdict", "characterize",
    "binary_closure_report", "disjoint_union_closure_report",
    "domain_independence_report", "duplicating_extension_closure_report",
    "intersection_closure_report", "product_closure_report",
    "subinstance_closure_report", "union_closure_report",
    "criticality_report", "is_k_critical",
    "DiagramError", "RelativeDiagram", "extract_edd",
    "find_separating_anchor", "phi_satisfied_by",
    "relative_diagram",
    "LocalityMode", "anchors_for", "locality_report", "locally_embeddable",
    "neighbourhood_embeds",
    "is_n_modular_for", "modularity_report", "small_refutation",
    "PropertyReport",
]
