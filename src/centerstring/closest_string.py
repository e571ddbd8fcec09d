"""Closest String solver: r-subset agreement decomposition + restricted solve.

Every r-element subset of the inputs fixes its agreement positions from
the subset and optimizes the rest; every input string is also tried as a
center directly.  The first candidate of minimum radius wins, inputs
before subsets, the rule the substring solvers share.

A subset whose restricted lower bound (`restricted_lower_bound`) already
exceeds the best radius reached so far cannot hold that first minimum, so
its restricted solve is skipped: no LP, no rounding, no patch sweep.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ._seeds import derive_seed
from .core import CenterSolution, Seq, StringInstance, cost_string
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
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.r < 2:
            raise DomainError("subset size r must be >= 2")


def subset_candidates(inst: StringInstance, r: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing r-tuples of string indices, lexicographic."""
    if r > inst.n:
        raise DomainError(f"r={r} exceeds the number of strings n={inst.n}")
    return itertools.combinations(range(inst.n), r)


def _subset_work(
    inst: StringInstance,
    subset: tuple[int, ...],
    cfg: ClosestStringConfig,
    enum_budget: int,
    best: list[int],
) -> tuple[int, np.ndarray | Exception] | None:
    """(radius, center row) of one subset's restricted solve; (lower
    bound, error) when that solve fails; None when its lower bound exceeds
    best[0], the smallest radius reached so far."""
    # subset members agree on all of Q, so the first one serves as the anchor
    rows = inst.matrix[list(subset)]
    on_q = (rows == rows[0]).all(axis=0)
    p = build_restricted(inst, rows[0], on_q)
    bound = restricted_lower_bound(p)
    if bound > best[0]:
        return None
    seed = derive_seed(cfg.rounding.rng_seed, "subset", subset)
    try:
        row, cost = solve_restricted(
            p, replace(cfg.rounding, rng_seed=seed), enum_budget=enum_budget
        )
    except _ROUNDING_FAILURES as exc:
        return bound, exc
    # unlocked: a racing worker may leave a larger value behind, but every
    # value stored is a radius some candidate reached, so a skip stays sound
    if cost < best[0]:
        best[0] = cost
    return cost, row


def solve_closest_string(
    inst: StringInstance,
    cfg: ClosestStringConfig = ClosestStringConfig(),
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> CenterSolution:
    """Approximate center string with ratio at most 1 + 1/(2r-1) + r*eps'.

    The candidates are the input strings, then one center per r-subset in
    lexicographic order; the first of minimum radius wins.  r is clamped
    to n for small instances.  Deterministic for a fixed (instance,
    config) pair, also under parallel subset evaluation.

    A subset gets no restricted solve when its exact lower bound (see
    `restricted_lower_bound`) is strictly above the best radius reached
    so far, which starts at the best input's cost: its candidate could not
    be the first minimum.  Under parallel=True which subsets are skipped
    may vary, but the result does not.  A subset whose restricted solve
    fails (EstimatorAtLeastOne under mode="derandomized", or
    NumericalFailure from the LP) fails the solve only when its lower
    bound is at most the radius found, so that a subset that could not
    win raises nothing whether or not it was skipped.  An enum_budget
    below 1 raises DomainError before any subset is solved.
    """
    if enum_budget < 1:
        raise DomainError("enum_budget must be >= 1")
    r = min(cfg.r, inst.n)
    candidates = [(cost_string(inst, s), s.arr) for s in inst.strings]
    best = [min(cost for cost, _ in candidates)]

    def work(sub: tuple[int, ...]) -> tuple[int, np.ndarray | Exception] | None:
        return _subset_work(inst, sub, cfg, enum_budget, best)

    subsets = list(subset_candidates(inst, r))
    if cfg.parallel and len(subsets) > 1:
        with ThreadPoolExecutor() as pool:
            solved = [c for c in pool.map(work, subsets) if c is not None]
    else:
        solved = [c for c in map(work, subsets) if c is not None]
    candidates.extend(c for c in solved if not isinstance(c[1], Exception))

    radius, row = min(candidates, key=lambda c: c[0])
    for bound, exc in solved:
        if isinstance(exc, Exception) and bound <= radius:
            raise exc
    return CenterSolution(Seq(inst.alphabet, row.tobytes()), radius, (0,) * inst.n)
