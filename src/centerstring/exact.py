"""Exponential-time exact solvers used as ground truth for the PTAS suite.

Kept independent of the lp_round enumeration machinery on purpose: these
certify the approximation algorithms, so they must not share a code path
with them.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CenterSolution,
    Seq,
    StringInstance,
    SubstringInstance,
    cost_string,
    cost_substring,
)
from .errors import BudgetExceeded

DEFAULT_EXACT_BUDGET = 1 << 20
_CHUNK = 1 << 14


def _digits_of(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return tuple(reversed(out))


def _chunk_digits(lo: int, hi: int, base: int, width: int) -> np.ndarray:
    ids = np.arange(lo, hi, dtype=np.int64)
    digits = np.empty((hi - lo, width), dtype=np.int16)
    rem = ids.copy()
    for j in range(width - 1, -1, -1):
        digits[:, j] = rem % base
        rem //= base
    return digits


def exact_closest_string(
    inst: StringInstance,
    budget: int = DEFAULT_EXACT_BUDGET,
    branch_and_bound: bool = False,
) -> CenterSolution:
    """True minimum-radius center; ties pick the lexicographically smallest.

    The plain sweep enumerates all |alphabet|^m candidates and requires
    that count to fit in `budget`; branch_and_bound prunes on the prefix
    lower bound (max mismatches so far) instead and ignores the budget.
    """
    k = inst.alphabet.size
    m = inst.m
    mat = inst.matrix

    if branch_and_bound:
        center = Seq(inst.alphabet, _bnb_center(mat, k, m))
    else:
        total = k ** m
        if total > budget:
            raise BudgetExceeded(f"{k}^{m} = {total} candidates exceed budget {budget}")
        best_cost = None
        best_id = -1
        for lo in range(0, total, _CHUNK):
            hi = min(lo + _CHUNK, total)
            digits = _chunk_digits(lo, hi, k, m)
            costs = (digits[:, None, :] != mat[None, :, :]).sum(axis=2).max(axis=1)
            local = int(np.argmin(costs))
            if best_cost is None or costs[local] < best_cost:
                best_cost = int(costs[local])
                best_id = lo + local
        center = Seq(inst.alphabet, _digits_of(best_id, k, m))

    radius = cost_string(inst, center)
    return CenterSolution(center, radius, (0,) * inst.n)


def _bnb_center(mat: np.ndarray, k: int, m: int) -> tuple[int, ...]:
    n = len(mat)
    best_radius = m + 1
    best: tuple[int, ...] | None = None
    prefix = [0] * m
    mism = np.zeros(n, dtype=np.int64)

    def recurse(depth: int) -> None:
        nonlocal best_radius, best, mism
        bound = int(mism.max())
        # strict inequality keeps equal-radius branches alive so the
        # lexicographically first optimum is found
        if bound > best_radius:
            return
        if depth == m:
            if bound < best_radius:
                best_radius = bound
                best = tuple(prefix)
            return
        col = mat[:, depth]
        for a in range(k):
            delta = (col != a).astype(np.int64)
            mism += delta
            prefix[depth] = a
            recurse(depth + 1)
            mism -= delta

    recurse(0)
    assert best is not None
    return best


def exact_closest_substring(
    inst: SubstringInstance, budget: int = DEFAULT_EXACT_BUDGET
) -> CenterSolution:
    """Exhaustive sweep over all length-L centers scored by the window cost."""
    k = inst.alphabet.size
    l = inst.window
    total = k ** l
    if total > budget:
        raise BudgetExceeded(f"{k}^{l} = {total} candidates exceed budget {budget}")
    best_cost = None
    best_id = -1
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        digits = _chunk_digits(lo, hi, k, l)
        costs = np.zeros(hi - lo, dtype=np.int64)
        for wins in inst.windows:
            mism = (digits[:, None, :] != wins[None, :, :]).sum(axis=2).min(axis=1)
            np.maximum(costs, mism, out=costs)
        local = int(np.argmin(costs))
        if best_cost is None or costs[local] < best_cost:
            best_cost = int(costs[local])
            best_id = lo + local
    center = Seq(inst.alphabet, _digits_of(best_id, k, l))
    radius, offsets = cost_substring(inst, center)
    return CenterSolution(center, radius, offsets)


def best_input_center(inst: StringInstance) -> CenterSolution:
    """The classic 2-approximation: the best input string used as center."""
    best_i = 0
    best_cost = cost_string(inst, inst.strings[0])
    for i in range(1, inst.n):
        c = cost_string(inst, inst.strings[i])
        if c < best_cost:
            best_i, best_cost = i, c
    return CenterSolution(inst.strings[best_i], best_cost, (0,) * inst.n)
