"""Description-logic front-end: DL-Lite/EL TBoxes as tgd ontologies."""

from .syntax import (
    And,
    AtomicConcept,
    Axiom,
    Concept,
    ConceptInclusion,
    Disjointness,
    DLError,
    Exists,
    FunctionalRole,
    Role,
    RoleInclusion,
)
from .translate import TBox, abox_instance, translate_axiom

__all__ = [
    "And", "AtomicConcept", "Axiom", "Concept", "ConceptInclusion",
    "Disjointness", "DLError", "Exists", "FunctionalRole", "Role",
    "RoleInclusion",
    "TBox", "abox_instance", "translate_axiom",
]
