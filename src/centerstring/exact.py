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


def exact_closest_string(
    inst: StringInstance,
    budget: int = DEFAULT_EXACT_BUDGET,
    branch_and_bound: bool = False,
) -> CenterSolution:
    """True minimum-radius center; ties pick the lexicographically smallest.

    The plain sweep enumerates all |alphabet|^m candidates and requires
    that count to fit in `budget`; branch_and_bound prunes on a lower bound
    over pairs of strings instead (see _bnb_center) and ignores the budget.
    """
    if branch_and_bound:
        center = Seq(inst.alphabet, _bnb_center(inst.matrix, inst.alphabet.size, inst.m))
    else:
        # one window per string: the substring sweep, in the same order
        whole = SubstringInstance(inst.alphabet, inst.matrix, inst.m)
        center = exact_closest_substring(whole, budget).center
    radius = cost_string(inst, center)
    return CenterSolution(center, radius, (0,) * inst.n)


def _bnb_center(mat: np.ndarray, k: int, m: int) -> tuple[int, ...]:
    """Depth-first search over prefixes, symbols in increasing order.

    A loop with an explicit per-depth symbol counter rather than one call
    per position, so m is not limited by the interpreter's recursion depth.
    The bound starts at the best input string's cost + 1, above the
    optimum, so the search prunes from the first descent on.  A prefix of
    length t with mism_i mismatches to string i is bounded by the largest
    ceil((mism_i + mism_j + d(s_i[t:], s_j[t:])) / 2) over pairs i, j: a
    completion's distances to s_i and s_j sum to at least that numerator
    (triangle inequality on the suffix), and i = j gives max mism_i.
    """
    n = len(mat)
    best_radius = min(int((mat != row).sum(axis=1).max()) for row in mat) + 1
    best: tuple[int, ...] | None = None
    prefix = [0] * m
    mism = np.zeros(n, dtype=np.int64)
    # suffix[t][i, j] = d(s_i[t:], s_j[t:]), built once per call
    suffix = np.zeros((m + 1, n, n), dtype=np.int32)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + (mat[:, None, t] != mat[None, :, t])

    def expand(depth: int) -> bool:
        """Check the node prefix[:depth]; True when its children are to be tried."""
        nonlocal best_radius, best
        bound = (int((mism[:, None] + mism + suffix[depth]).max()) + 1) // 2
        # no leaf below the node beats the bound, and leaves come in
        # lexicographic order, so a later leaf of equal radius never wins;
        # at a leaf the bound is the radius
        if bound >= best_radius:
            return False
        if depth == m:
            best_radius = bound
            best = tuple(prefix)
            return False
        return True

    # nxt[d]: the next symbol to try at position d of the open node
    # prefix[:d]; added[d]: the mismatches position d's symbol added to mism.
    # The open nodes are prefix[:0] .. prefix[:depth].
    nxt = [0] * m
    added: list[np.ndarray | None] = [None] * m
    depth = 0 if expand(0) else -1
    while depth >= 0:
        if nxt[depth] == k:
            # every child tried: close the node and undo the symbol that led to it
            depth -= 1
            if depth >= 0:
                mism -= added[depth]
            continue
        prefix[depth] = nxt[depth]
        nxt[depth] += 1
        added[depth] = (mat[:, depth] != prefix[depth]).astype(np.int64)
        mism += added[depth]
        if expand(depth + 1):
            depth += 1
            nxt[depth] = 0
        else:
            mism -= added[depth]
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

