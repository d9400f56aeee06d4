"""Memoized entailment verdicts.

``Σ ⊨ σ`` is pure: the freeze-and-chase reduction in
:mod:`repro.entailment.implication` is deterministic in ``(Σ, σ,
max_rounds)``.  The rewriting algorithms exploit none of that purity —
Algorithm 1/2 candidate loops and especially
:func:`repro.rewriting.rewrite.minimize_tgds` re-decide entailment over
heavily overlapping premise subsets.  This module adds the missing memo
layer.

Keys are canonical: premises are an (unordered) *set* of dependencies
up to variable renaming, via
:func:`repro.dependencies.canonical.canonical_key` for tgds and an
analogous bijection-minimized key for egds, so ``{R(x) → P(x)}`` and
``{R(y) → P(y)}`` share an entry.  Dependencies too wide to
canonicalize exactly (more than
:data:`~repro.dependencies.canonical.MAX_CANONICAL_VARIABLES`
variables) fall back to a structural key — correct, merely missing
cross-renaming hits.  The chase budget ``max_rounds`` is part of the
key: a verdict under one budget never answers for another.

The cache is a bounded :class:`~repro.memo.Memo`.  Hits, misses, and
evictions are tracked on the memo and mirrored to telemetry counters
(``entailment.cache_hits`` / ``entailment.cache_misses`` /
``entailment.cache_evictions``) so benchmark counter deltas carry them.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ..dependencies.canonical import MAX_CANONICAL_VARIABLES, _atoms_key
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..lang.atoms import atoms_variables
from ..memo import Memo, register
from .trivalent import TriBool

__all__ = [
    "ENTAILMENT_CACHE",
    "dependency_cache_key",
    "entailment_cache_key",
]

DEFAULT_CACHE_SIZE = 32768


def _egd_canonical_key(egd: EGD) -> tuple:
    """Bijection-minimized key for an egd (body as a set, ``lhs = rhs``
    as an unordered pair)."""
    variables = tuple(dict.fromkeys(atoms_variables(egd.body)))
    best: tuple | None = None
    for perm in itertools.permutations(range(len(variables))):
        mapping = dict(zip(variables, perm))
        equality = tuple(sorted((mapping[egd.lhs], mapping[egd.rhs])))
        key = (_atoms_key(egd.body, mapping), equality)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def dependency_cache_key(dep: object) -> tuple:
    """A hashable key identifying the dependency up to variable renaming.

    Exact (renaming-invariant) for tgds and egds within the
    canonicalization width; otherwise a structural fallback that is
    still sound — alphabetic variants simply occupy separate entries.
    """
    if isinstance(dep, TGD):
        from ..dependencies.canonical import canonical_key

        if len(dep.variables()) <= MAX_CANONICAL_VARIABLES:
            return ("tgd", canonical_key(dep))
        return ("tgd-str", str(dep))
    if isinstance(dep, EGD):
        if len(set(atoms_variables(dep.body))) <= MAX_CANONICAL_VARIABLES:
            return ("egd", _egd_canonical_key(dep))
        return ("egd-str", str(dep))
    # edd conclusions (and anything else) get a structural key; str() is
    # deterministic for every dependency type in this package.
    return (type(dep).__name__, str(dep))


def entailment_cache_key(
    dependencies: Sequence[object],
    conclusion: object,
    max_rounds: int | None,
) -> tuple:
    """The memo key for ``entails(dependencies, conclusion, max_rounds)``.

    Premises are a frozenset — entailment is insensitive to their order
    and multiplicity — and the chase budget is part of the key.
    """
    return (
        frozenset(dependency_cache_key(dep) for dep in dependencies),
        dependency_cache_key(conclusion),
        max_rounds,
    )


ENTAILMENT_CACHE: Memo[TriBool] = register("entailment", Memo(
    DEFAULT_CACHE_SIZE,
    hit_counter="entailment.cache_hits",
    miss_counter="entailment.cache_misses",
    eviction_counter="entailment.cache_evictions",
))
"""The process-wide memo used by :func:`repro.entailment.entails`."""
