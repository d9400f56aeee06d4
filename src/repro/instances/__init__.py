"""Instances and their algebra."""

from .critical import (
    all_non_oblivious_duplicating_extensions,
    critical_instance,
    critical_instance_over,
    non_oblivious_duplicating_extension,
    oblivious_duplicating_extension,
)
from .enumeration import (
    all_extensions,
    all_instances,
    all_instances_up_to,
    default_domain,
)
from .instance import Instance, InstanceError
from .io import (
    instance_from_json,
    instance_to_json,
    load_instance_csv,
    load_instance_json,
    save_instance_csv,
    save_instance_json,
)
from .neighbourhood import (
    induced_subinstances,
    m_neighbourhood,
    maximal_m_neighbourhood_members,
    subinstances_with_adom_at_most,
)
from .operations import (
    direct_product,
    direct_product_many,
    disjoint_union,
    intersection,
    rename_apart,
    union,
)
from .streaming import (
    DEFAULT_BATCH_ROWS,
    FactStream,
    FactStreamError,
    FactStreamWriter,
    instance_from_stream,
)

__all__ = [
    "Instance", "InstanceError",
    "DEFAULT_BATCH_ROWS", "FactStream", "FactStreamError",
    "FactStreamWriter", "instance_from_stream",
    "instance_from_json", "instance_to_json", "load_instance_csv",
    "load_instance_json", "save_instance_csv", "save_instance_json",
    "critical_instance", "critical_instance_over",
    "oblivious_duplicating_extension", "non_oblivious_duplicating_extension",
    "all_non_oblivious_duplicating_extensions",
    "all_extensions", "all_instances", "all_instances_up_to",
    "default_domain",
    "induced_subinstances", "m_neighbourhood",
    "maximal_m_neighbourhood_members", "subinstances_with_adom_at_most",
    "direct_product", "direct_product_many", "disjoint_union",
    "intersection", "rename_apart", "union",
]
