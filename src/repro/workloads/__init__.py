"""Workload generators and curated scenarios."""

from .factory import (
    WorkloadSpec,
    constraints_of,
    dependencies_of,
    generate_rows,
    level_sizes,
    materialize,
    schema_of,
    write_workload,
)
from .random_instances import random_instance, random_model
from .random_tgds import random_schema, random_tgd, random_tgd_set
from .scenarios import (
    Scenario,
    all_scenarios,
    company_guarded,
    example_5_2,
    family_frontier_guarded,
    library_weakly_acyclic,
    social_non_terminating,
    triangle_full,
    university_linear,
)

__all__ = [
    "WorkloadSpec", "constraints_of",
    "dependencies_of", "generate_rows", "level_sizes", "materialize",
    "schema_of", "write_workload",
    "random_instance", "random_model",
    "random_schema", "random_tgd", "random_tgd_set",
    "Scenario", "all_scenarios", "company_guarded", "example_5_2",
    "family_frontier_guarded", "library_weakly_acyclic",
    "social_non_terminating", "triangle_full", "university_linear",
]
