"""Closest String solver: r-subset agreement decomposition + restricted solve.

Every r-element subset of the inputs fixes its agreement positions from
the subset and optimizes the rest; every input string is also tried as a
center directly.  The first candidate of minimum radius wins, inputs
before subsets, the rule the substring solvers share.

The subsets run in one serial loop, in lexicographic order.  A subset
whose lower bound already exceeds the best radius of the inputs and the
subsets before it cannot hold that first minimum, so its restricted solve
is skipped: no restricted problem is built for it, and it gets no LP, no
rounding and no patch sweep.  The bounds come from `subset_bounds`, the
one place that computes them, in one array pass over all subsets in
chunks of bounded size, ahead of the loop that reads them.

A solved subset's LP is rounded by the one rule of
`lp_round.solve_restricted`: derandomized rounding, with randomized
rounding as its fallback, so no rounding error reaches this loop.  Only
an LP that does not end optimal (NumericalFailure) can fail a subset,
and that failure is deferred until the final radius shows whether the
subset could have won.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ._seeds import derive_seed
from .core import CenterSolution, Seq, StringInstance
from .errors import DomainError, NumericalFailure
from .lp_round import (
    DEFAULT_ENUM_BUDGET,
    RoundingConfig,
    build_restricted,
    solve_restricted,
)

# cap on the cells of each array one subset_bounds chunk holds
_BOUND_CELLS = 1 << 18


@dataclass(frozen=True)
class ClosestStringConfig:
    """Settings of the whole-string solver: the subset size r, the
    rounding of each subset's LP, and enum_budget, the most patches a
    subset sweeps exactly before it takes the LP path instead."""

    r: int = 2
    rounding: RoundingConfig = RoundingConfig()
    enum_budget: int = DEFAULT_ENUM_BUDGET

    def __post_init__(self) -> None:
        if self.r < 2:
            raise DomainError("subset size r must be >= 2")
        if self.enum_budget < 1:
            raise DomainError("enum_budget must be >= 1")


def _masked_distances(matrix: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(S, n, n) int64 array: [s, i, j] counts the positions where the
    (S, m) bool masks[s] holds and rows i and j of the (n, m) matrix differ.

    One float64 matrix product per block of positions, a block's (n*n,
    width) difference table holding at most about _BOUND_CELLS cells.
    Sums of 0/1 products stay exact integers in float64.
    """
    n, m = matrix.shape
    out = np.zeros((len(masks), n * n))
    width = max(1, _BOUND_CELLS // (n * n + len(masks)))
    for b in range(0, m, width):
        block = matrix[:, b:b + width]
        differ = (block[:, None, :] != block[None, :, :]).reshape(n * n, -1).astype(np.float64)
        out += masks[:, b:b + width].astype(np.float64) @ differ.T
    return out.astype(np.int64).reshape(-1, n, n)


def subset_bounds(
    inst: StringInstance, r: int, whole: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """A lower bound on the cost of every center of each r-subset's
    restricted problem, for all r-subsets (r <= n) in chunks, in
    lexicographic order, without building a restricted problem, from
    whole, the (n, n) int64 table of Hamming distances between the strings.

    Per chunk of S subsets, yields the (S, r) int64 subsets, whose first
    member is the anchor; the (S, m) bool agreement masks Q; the (S, n)
    int64 costs f of the anchor to each string on Q, the fixed costs of
    build_restricted(inst, inst.matrix[subset[0]], Q); and the (S,) int64
    pair bounds ceil(max over i, j of (f_i + f_j + d_P(s_i, s_j)) / 2),
    d_P counting the differences on the free positions P.

    Why it bounds: a center c equals the anchor on Q, so its distance to
    string i is f_i + d_P(c, s_i).  The triangle inequality on P gives
    d_P(c, s_i) + d_P(c, s_j) >= d_P(s_i, s_j), so the larger of c's
    distances to s_i and s_j, an integer, is at least half of
    f_i + f_j + d_P(s_i, s_j), rounded up; i = j gives f_i itself.

    f_i is the anchor's distance to string i, read from whole, less their
    distance on P, so one distance table on P per subset gives both.  A
    chunk holds about _BOUND_CELLS cells per array, so memory does not
    grow with the number of subsets.
    """
    matrix = inst.matrix
    n, m = matrix.shape
    subsets = itertools.combinations(range(n), r)
    size = max(1, _BOUND_CELLS // (n * n + r * m))
    while chunk := list(itertools.islice(subsets, size)):
        chunk = np.array(chunk, dtype=np.int64)
        rows = matrix[chunk]  # (S, r, m)
        on_q = (rows == rows[:, :1]).all(axis=1)
        d_free = _masked_distances(matrix, ~on_q)
        anchors = chunk[:, 0]
        fixed = whole[anchors] - d_free[np.arange(len(chunk)), anchors]
        pair = d_free + fixed[:, :, None] + fixed[:, None, :]
        yield chunk, on_q, fixed, (pair.max(axis=(1, 2)) + 1) // 2


def solve_closest_string(
    inst: StringInstance, cfg: ClosestStringConfig = ClosestStringConfig()
) -> CenterSolution:
    """Approximate center string with ratio at most 1 + 1/(2r-1) + r*eps'.

    The candidates are the input strings, then one center per r-subset in
    lexicographic order; the first of minimum radius wins.  r is clamped
    to n for small instances.  Deterministic for a fixed (instance,
    config) pair; every setting, each subset's enum_budget included, is
    in cfg and was checked when cfg was built.

    One (n, n) table of the distances between the inputs gives both the
    inputs' costs, its row maxima, and the anchors' costs that
    `subset_bounds` reads.

    A subset gets no restricted solve when its lower bound from
    `subset_bounds` is strictly above the best radius reached so far,
    which starts at the best input's cost: its candidate could not be the
    first minimum.  A subset whose LP fails (NumericalFailure) fails the
    solve only when its lower bound is at most the radius found, so that a
    subset that could not win raises nothing whether or not it was
    skipped; of several such subsets the first raises.
    """
    r = min(cfg.r, inst.n)
    whole = _masked_distances(inst.matrix, np.ones((1, inst.m), dtype=bool))[0]
    costs = whole.max(axis=1)  # each input's cost as a center
    best = int(np.argmin(costs))
    radius, row = int(costs[best]), inst.matrix[best]
    failed: list[tuple[int, Exception]] = []
    for subsets, on_q, _, bounds in subset_bounds(inst, r, whole):
        for subset, mask, bound in zip(subsets.tolist(), on_q, bounds.tolist()):
            if bound > radius:
                continue
            # subset members agree on all of Q, so the first one serves as the anchor
            p = build_restricted(inst, inst.matrix[subset[0]], mask)
            seed = derive_seed(cfg.rounding.rng_seed, "subset", tuple(subset))
            try:
                center, cost = solve_restricted(p, replace(cfg.rounding, rng_seed=seed), cfg.enum_budget)
            except NumericalFailure as exc:
                failed.append((bound, exc))
                continue
            if cost < radius:
                radius, row = cost, center
    for bound, exc in failed:
        if bound <= radius:
            raise exc
    return CenterSolution(Seq(inst.alphabet, row.tobytes()), radius, (0,) * inst.n)
