"""The chase and its termination analysis."""

from .engine import (
    ChaseError,
    ChaseMonitorStop,
    ChaseResult,
    ChaseRun,
    Inventor,
    StopReason,
    chase,
)
from .provenance import Firing, TracedChaseResult, explain, traced_chase
from .termination import (
    WeakAcyclicityReport,
    is_weakly_acyclic,
    position_graph,
    weak_acyclicity_report,
)

__all__ = [
    "ChaseError", "ChaseMonitorStop", "ChaseResult", "ChaseRun",
    "Inventor", "StopReason", "chase",
    "Firing", "TracedChaseResult", "explain", "traced_chase",
    "WeakAcyclicityReport", "is_weakly_acyclic", "position_graph",
    "weak_acyclicity_report",
]
