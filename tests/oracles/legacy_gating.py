"""Legacy budget gating: the reference the certificate-gated budget is
measured against.

The engines ask :func:`repro.analysis.certificates.default_budget`
whether a chase needs a round budget, and it answers from the memoized
certificate lattice (weak, joint and super-weak acyclicity, then the
semantic MSA/MFA tiers).  Before that lattice existed, every call ran
a fresh weak-acyclicity check and ignored the refinements.  Gating may
only widen the set of inputs chased to a definitive fixpoint: on weakly
acyclic sets both answer alike, so engine verdicts are bit-identical
(``tests/test_analysis.py``, ``benchmarks/bench_analysis.py``).

:func:`legacy_gating` swaps the legacy budget into every module that
looks ``default_budget`` up, so a whole ``entails`` /
``certain_answer`` / omqa run inside the block budgets the old way.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Iterator, Sequence

from repro.analysis import certificates as _certificates
from repro.chase.termination import is_weakly_acyclic
from repro.dependencies.egd import EGD
from repro.dependencies.tgd import TGD
from repro.entailment import bcq as _bcq
from repro.entailment import implication as _implication
from repro.omqa import cq as _cq

__all__ = ["gating", "legacy_budget", "legacy_gating"]

# Every module that binds ``default_budget`` at import time; the
# ontology layer imports it from ``repro.analysis.certificates`` at
# call time, so patching that module covers it too.
_SEAMS = (_certificates, _implication, _bcq, _cq)


def legacy_budget(
    dependencies: Sequence[object], fallback: int
) -> int | None:
    """A fresh weak-acyclicity check per call, refinements ignored."""
    deps = [dep for dep in dependencies if isinstance(dep, (TGD, EGD))]
    return None if is_weakly_acyclic(deps) else fallback


@contextmanager
def legacy_gating() -> Iterator[None]:
    """Budget every chase inside the block with :func:`legacy_budget`."""
    originals = [module.default_budget for module in _SEAMS]
    for module in _SEAMS:
        module.default_budget = legacy_budget
    try:
        yield
    finally:
        for module, original in zip(_SEAMS, originals):
            module.default_budget = original


def gating(gated: bool) -> AbstractContextManager[None]:
    """The engine's certificate gating for ``True``;
    :func:`legacy_gating` for ``False``."""
    return nullcontext() if gated else legacy_gating()
