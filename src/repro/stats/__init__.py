"""Instance statistics and the selectivity cost model.

The adaptive join-ordering strategy (``order="adaptive"`` on the
homomorphism-search entry points, the chase and the entailment stack)
is driven by per-relation statistics that the chase's working state
maintains incrementally while it mutates:

* **row counts** — the relation extent size;
* **per-position distinct counts** — how many different values occur
  at each argument position (the classic ``V(R, a)`` statistic);
* **per-position max-bucket skew** — the size of the largest
  ``(position, value)`` index bucket, i.e. the worst case a bound
  probe at that position can return.

:class:`~repro.stats.relation.StatsAccumulator` is the incremental
form the working state feeds on every insert (O(arity) per fact, O(arity)
snapshot); :func:`~repro.stats.relation.compute_stats` is the
from-scratch reference the property tests compare it against.
:mod:`repro.stats.cost` turns snapshots into per-atom selectivity
estimates, a join-order choice, and a guard bound that triggers a
fallback to the static reference order when the estimated worst case
blows up.
"""

from .cost import (
    GUARD_CAP,
    MISPREDICT_FACTOR,
    OrderDecision,
    choose_order,
)
from .relation import RelationStats, StatsAccumulator, compute_stats

__all__ = [
    "GUARD_CAP",
    "MISPREDICT_FACTOR",
    "OrderDecision",
    "RelationStats",
    "StatsAccumulator",
    "choose_order",
    "compute_stats",
]
