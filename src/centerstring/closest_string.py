"""Closest String solver: r-subset agreement decomposition + restricted solve.

Every r-element subset of the inputs fixes its agreement positions from
the subset and optimizes the rest; every input string is also tried as a
center directly.  The first candidate of minimum radius wins, inputs
before subsets, the rule the substring solvers share.

The subsets run in one serial loop, in lexicographic order.  A subset
whose restricted lower bound (`restricted_lower_bound`) already exceeds
the best radius of the inputs and the subsets before it cannot hold that
first minimum, so its restricted solve is skipped: no LP, no rounding, no
patch sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

from ._seeds import derive_seed
from .core import CenterSolution, Seq, StringInstance
from .errors import DomainError, EstimatorAtLeastOne, NumericalFailure
from .lp_round import (
    DEFAULT_ENUM_BUDGET,
    RoundingConfig,
    build_restricted,
    restricted_lower_bound,
    solve_restricted,
)

# the rounding errors a subset can end in; see solve_closest_string
_ROUNDING_FAILURES = (EstimatorAtLeastOne, NumericalFailure)


@dataclass(frozen=True)
class ClosestStringConfig:
    r: int = 2
    rounding: RoundingConfig = RoundingConfig()

    def __post_init__(self) -> None:
        if self.r < 2:
            raise DomainError("subset size r must be >= 2")


def subset_candidates(inst: StringInstance, r: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing r-tuples of string indices, lexicographic."""
    if r > inst.n:
        raise DomainError(f"r={r} exceeds the number of strings n={inst.n}")
    return itertools.combinations(range(inst.n), r)


def solve_closest_string(
    inst: StringInstance,
    cfg: ClosestStringConfig = ClosestStringConfig(),
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> CenterSolution:
    """Approximate center string with ratio at most 1 + 1/(2r-1) + r*eps'.

    The candidates are the input strings, then one center per r-subset in
    lexicographic order; the first of minimum radius wins.  r is clamped
    to n for small instances.  Deterministic for a fixed (instance,
    config) pair.

    A subset gets no restricted solve when its exact lower bound (see
    `restricted_lower_bound`) is strictly above the best radius reached
    so far, which starts at the best input's cost: its candidate could not
    be the first minimum.  A subset whose restricted solve fails
    (EstimatorAtLeastOne under mode="derandomized", or NumericalFailure
    from the LP) fails the solve only when its lower bound is at most the
    radius found, so that a subset that could not win raises nothing
    whether or not it was skipped; of several such subsets the first
    raises.  An enum_budget below 1 raises DomainError before any subset
    is solved.
    """
    if enum_budget < 1:
        raise DomainError("enum_budget must be >= 1")
    r = min(cfg.r, inst.n)
    radius, row = min(
        ((int((inst.matrix != s).sum(axis=1).max()), s) for s in inst.matrix),
        key=lambda c: c[0],
    )
    failed: list[tuple[int, Exception]] = []
    for subset in subset_candidates(inst, r):
        # subset members agree on all of Q, so the first one serves as the anchor
        rows = inst.matrix[list(subset)]
        on_q = (rows == rows[0]).all(axis=0)
        p = build_restricted(inst, rows[0], on_q)
        bound = restricted_lower_bound(p)
        if bound > radius:
            continue
        seed = derive_seed(cfg.rounding.rng_seed, "subset", subset)
        try:
            center, cost = solve_restricted(
                p, replace(cfg.rounding, rng_seed=seed), enum_budget=enum_budget
            )
        except _ROUNDING_FAILURES as exc:
            failed.append((bound, exc))
            continue
        if cost < radius:
            radius, row = cost, center
    for bound, exc in failed:
        if bound <= radius:
            raise exc
    return CenterSolution(Seq(inst.alphabet, row.tobytes()), radius, (0,) * inst.n)
