"""Columnar interned-fact storage (the ``backend="columnar"`` engine).

The object backend stores facts as Python tuples of
:class:`~repro.lang.terms.Const` / :class:`~repro.lang.terms.Null`
objects and pays object hashing and rich ``__eq__`` calls on every join
probe.  This package replaces the *representation* without touching the
*semantics*:

* :class:`InternTable` — a per-instance table mapping domain elements
  to dense integer IDs (deterministic and insertion-ordered, with a
  renaming-invariant :meth:`~InternTable.digest` usable as a
  plan-cache-style workload key);
* :class:`ColumnarStore` — each relation as per-position flat
  ``array('q')`` columns plus per-position hash indexes from value-ID
  to row-ID lists, with incrementally maintained canonically-sorted
  row views;
* :func:`iterate_columnar` / :func:`execute_plan_columnar` — the
  compiled :class:`~repro.homomorphisms.plans.JoinPlan` executor run
  directly against the columns at ID level (batched index probes,
  forward checks over row-ID buckets), decoding elements only when an
  assignment is yielded;
* :class:`ColumnarState` — the mutable chase working state backed by a
  store, a drop-in for the object backend's ``_State``.

Differential contract
---------------------

``backend="columnar"`` is pinned to the object backend the same way the
semi-naive strategy is pinned to the naive one and the compiled plans
to the interpreter: **bit-identical results** — same fact streams, same
null numbering, same trigger order, and parity on the shared telemetry
counters (``chase.*``, ``hom.matches`` / ``hom.backtracks`` /
``hom.index_probes`` / ``hom.forward_prunes``).  The object backend is
kept forever as the reference; ``tests/test_differential_chase.py``
crosses backend × strategy × matcher (compiled plans vs the
interpreted test oracle) on hundreds of scenarios.

Two counters are specific to this backend: ``columnar.intern_hits``
(element already interned) and ``columnar.row_probes`` (row IDs
enumerated from index buckets by the ID-level executor).
"""

from ..instances.instance import BACKENDS, DEFAULT_BACKEND
from .execute import execute_plan_columnar, iterate_columnar
from .intern import InternTable
from .state import ColumnarState
from .store import ColumnarStore

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ColumnarState",
    "ColumnarStore",
    "InternTable",
    "execute_plan_columnar",
    "iterate_columnar",
]
