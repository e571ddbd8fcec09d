"""Closest String solver: r-subset agreement decomposition + restricted solve.

Every r-element subset of the inputs fixes its agreement positions from
the subset and optimizes the rest; every input string is also tried as a
center directly.  The first candidate of minimum radius wins, inputs
before subsets, the rule the substring solvers share.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator

from ._seeds import derive_seed
from .core import CenterSolution, Seq, StringInstance, agreement_positions, cost_string
from .errors import DomainError
from .lp_round import (
    DEFAULT_ENUM_BUDGET,
    RoundingConfig,
    build_restricted,
    solve_restricted,
)


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
) -> tuple[int, Seq]:
    """(radius, center) of one subset's restricted solve."""
    # subset members agree on all of q, so the first one serves as the anchor
    q = agreement_positions([inst.strings[i] for i in subset])
    seed = derive_seed(cfg.rounding.rng_seed, "subset", subset)
    p = build_restricted(inst, inst.strings[subset[0]], q)
    center, cost = solve_restricted(
        p, replace(cfg.rounding, rng_seed=seed), enum_budget=enum_budget
    )
    return cost, center


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
    """
    r = min(cfg.r, inst.n)
    candidates = [(cost_string(inst, s), s) for s in inst.strings]

    subsets = list(subset_candidates(inst, r))
    if cfg.parallel and len(subsets) > 1:
        with ThreadPoolExecutor() as pool:
            candidates.extend(
                pool.map(lambda sub: _subset_work(inst, sub, cfg, enum_budget), subsets)
            )
    else:
        candidates.extend(_subset_work(inst, sub, cfg, enum_budget) for sub in subsets)

    radius, center = min(candidates, key=lambda c: c[0])
    return CenterSolution(center, radius, (0,) * inst.n)
