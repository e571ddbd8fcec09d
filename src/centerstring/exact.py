"""Exponential-time exact solvers used as ground truth for the PTAS suite.

Closest Substring and short whole strings are swept over every candidate
center.  Past the sweep, whole strings get one integer program over their
distinct columns, solved by scipy.optimize.milp, which is imported there
only.  Kept independent of the lp_round machinery on purpose: these certify
the approximation algorithms, so they must not share a code path with them.
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
_CELLS = 1 << 20  # (candidate, window) mismatch counts held at once


def _chunk_digits(lo: int, hi: int, base: int, width: int) -> np.ndarray:
    """(width, hi - lo) base-`base` digits of the ids lo..hi-1, most
    significant first: row j holds digit j of every id."""
    rem = np.arange(lo, hi, dtype=np.int64)
    digits = np.empty((width, hi - lo), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        digits[j] = rem % base
        rem //= base
    return digits


def exact_closest_string(inst: StringInstance, budget: int = DEFAULT_EXACT_BUDGET) -> CenterSolution:
    """True minimum-radius center.

    The instance picks the path.  When the |alphabet|^m candidates fit in
    `budget`, the plain sweep returns the lexicographically first optimum.
    Past it, _program_center returns an optimum of the column-type integer
    program; it is the lexicographically smallest only among centers with
    its per-type symbol counts, so it may differ from the sweep's at the
    same radius.  BudgetExceeded when the program is over `budget` or not
    proven optimal within it: an unproven incumbent is never returned.
    """
    k, m = inst.alphabet.size, inst.m
    if k ** m <= budget:
        # one window per string: the substring sweep, in the same order
        whole = SubstringInstance(inst.alphabet, inst.matrix, m)
        center = exact_closest_substring(whole, budget).center
        radius = cost_string(inst, center)
    else:
        try:
            data, d = _program_center(inst.matrix, k, budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"{k}^{m} candidates exceed budget {budget}; {exc}") from None
        center = Seq(inst.alphabet, data)
        radius = cost_string(inst, center)
        assert radius == d, "the program's center misses its optimum"
    return CenterSolution(center, radius, (0,) * inst.n)


def _program_center(mat: np.ndarray, k: int, budget: int) -> tuple[np.ndarray, int]:
    """An optimal center and its radius from one integer program over the
    distinct columns (Gramm, Niedermeier and Rossmanith, Algorithmica 37).

    Equal columns are interchangeable, so a center needs only x[t, a]: how
    many positions of column type t take symbol a, for each symbol present
    in t (any other symbol mismatches every string there).  Minimize d
    subject to sum_a x[t, a] = count_t and, per string i,
    sum over a != type_t[i] of x[t, a] <= d.  Each type's positions, in
    order, take its symbols in ascending order.  `budget` caps variables x
    rows, refused before the matrix is built, and branch-and-bound nodes
    at budget // (variables x rows); only a proven optimum is returned.
    """
    n, m = mat.shape
    types, inverse, counts = np.unique(mat.T, axis=0, return_inverse=True, return_counts=True)
    present = np.zeros((len(types), k), dtype=bool)
    present[np.arange(len(types))[:, None], types] = True
    var_type, var_symbol = np.nonzero(present)  # by type, symbols ascending
    nvar, nrow = len(var_type) + 1, len(types) + n  # d is the last variable
    if nvar * nrow > budget:
        raise BudgetExceeded(
            f"the column-type program's {nvar} variables x {nrow} rows exceed budget {budget}")
    from scipy.optimize import milp

    # dense: the string rows miss most symbols, and the budget caps the cells
    lhs = np.zeros((nrow, nvar))
    lhs[var_type, np.arange(nvar - 1)] = 1
    lhs[len(types):, :-1] = types[var_type].T != var_symbol
    lhs[len(types):, -1] = -1
    nodes = budget // (nvar * nrow)
    res = milp(
        np.r_[np.zeros(nvar - 1), 1], integrality=1,
        constraints=(lhs, np.r_[counts, np.full(n, -np.inf)], np.r_[counts, np.zeros(n)]),
        options={"mip_rel_gap": 0, "node_limit": nodes},
    )
    if res.status != 0:
        raise BudgetExceeded(
            f"the column-type program was not proven optimal within budget {budget} // "
            f"({nvar} variables x {nrow} rows) = {nodes} branch-and-bound nodes")
    x = np.rint(res.x).astype(np.int64)
    center = np.empty(m, dtype=np.uint8)
    center[np.argsort(inverse, kind="stable")] = np.repeat(var_symbol, x[:-1])
    return center, int(x[-1])


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
        # a string's windows go in blocks whose (chunk, block) counts hold at
        # most max(_CELLS, chunk) cells, summed one position at a time, so
        # memory stays flat in the string length
        step = max(1, _CELLS // (hi - lo))
        for wins in inst.windows:
            nearest = np.full(hi - lo, l, dtype=np.int64)
            for a in range(0, len(wins), step):
                block = wins[a:a + step].T.copy()
                mism = np.zeros((hi - lo, block.shape[1]), dtype=np.int16)
                for j in range(l):
                    mism += digits[j][:, None] != block[j]
                np.minimum(nearest, mism.min(axis=1), out=nearest)
            np.maximum(costs, nearest, out=costs)
        local = int(np.argmin(costs))
        if best_cost is None or costs[local] < best_cost:
            best_cost = int(costs[local])
            best_id = lo + local
    center = Seq(inst.alphabet, _chunk_digits(best_id, best_id + 1, k, l)[:, 0])
    radius, offsets = cost_substring(inst, center)
    return CenterSolution(center, radius, offsets)

