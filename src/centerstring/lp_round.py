"""Restricted center optimization: LP relaxation, rounding, enumeration.

Given an anchor row fixed on an agreement set Q, the remaining free
positions P are optimized either exhaustively (small P) or through the
fractional LP followed by randomized rounding or derandomization by
conditional expectations with exact Poisson-binomial tail probabilities.

A `RestrictedProblem` holds read-only arrays built once: the strings on P
and their costs on Q, which every layer (lower bound, LP, rounding, sweep)
reads.  Every patch routine returns a (|P|,) uint8 array of indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import MASK64
from .core import StringInstance
from .errors import (
    BudgetExceeded, DomainError, EstimatorAtLeastOne, FrameMismatch, NumericalFailure,
)

LP_TOLERANCE = 1e-9
DEFAULT_ENUM_BUDGET = 1 << 20
# cap on the row x patch cells one sweep chunk scores
_SWEEP_CELLS = 1 << 20

_ROUNDING_MODES = ("randomized", "derandomized", "auto")


@dataclass(frozen=True)
class RoundingConfig:
    """Knobs for the rounding stage of the restricted solve."""

    mode: str = "auto"
    trials: int = 32
    epsilon_prime: float = 0.5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in _ROUNDING_MODES:
            raise DomainError(f"mode must be one of {_ROUNDING_MODES}")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not 0.0 < self.epsilon_prime <= 1.0:
            raise DomainError("epsilon_prime must be in (0, 1]")


# eq=False: a generated __eq__ or __hash__ over ndarrays raises
@dataclass(frozen=True, eq=False)
class RestrictedProblem:
    """Center optimization over the free positions P, the anchor row fixed
    on the agreement set Q.  All read-only arrays: P the sorted intp free
    positions, anchor the (m,) uint8 row, rows = inst.matrix[:, P] of shape
    (n, |P|), and fixed the (n,) int64 cost of the anchor to each string on
    Q; a center costs string i fixed[i] plus its patch's mismatches with rows[i].
    inst is kept for n and the alphabet size, which the solvers and
    perfbench's patch-count and LP-size hooks read from it.
    """

    inst: StringInstance
    P: np.ndarray
    anchor: np.ndarray
    rows: np.ndarray
    fixed: np.ndarray


@dataclass(frozen=True, eq=False)
class FractionalCenter:
    """The LP objective plus weights, a read-only (|P|, k) float64 array:
    weights[j, a] is symbol a's weight at free position P[j], rows sum to 1."""

    problem: RestrictedProblem
    weights: np.ndarray
    objective: float


def build_restricted(inst: StringInstance, anchor: np.ndarray, on_q: np.ndarray) -> RestrictedProblem:
    """Fix the (m,) anchor row where the boolean mask on_q holds and
    precompute the rows on P and each string's cost on Q."""
    if len(anchor) != inst.m or len(on_q) != inst.m:
        raise FrameMismatch(f"anchor length {len(anchor)} and mask length {len(on_q)} vs m={inst.m}")
    anchor = np.array(anchor, dtype=np.uint8)
    on_q = np.asarray(on_q, dtype=bool)
    P = np.flatnonzero(~on_q)
    fixed = (inst.matrix[:, on_q] != anchor[on_q]).sum(axis=1, dtype=np.int64)
    p = RestrictedProblem(inst, P, anchor, inst.matrix[:, P], fixed)
    for a in (p.P, p.anchor, p.rows, p.fixed):  # all fresh arrays
        a.flags.writeable = False
    return p


def restricted_lower_bound(p: RestrictedProblem) -> int:
    """Exact integer lower bound on the cost of every center of p.

    A center equals the anchor on Q, so its distance to string i is
    fixed[i] plus its distance to rows[i] on P.  The triangle
    inequality on P then bounds the cost of any center by
    ceil((f_i + f_j + d_P(s_i, s_j)) / 2) for every pair i, j; i = j
    gives f_i itself.
    """
    rows, f = p.rows, p.fixed
    pair = (rows[:, None, :] != rows[None, :, :]).sum(axis=2) + f[:, None] + f[None, :]
    return int((pair.max() + 1) // 2)


def solve_lp(p: RestrictedProblem) -> FractionalCenter:
    """Optimal fractional solution of the 0-1 model's LP relaxation.

    Variables are the objective d plus one weight per (position, symbol);
    any exact LP method over these |P|*|alphabet|+1 variables and n+|P|
    rows qualifies, HiGHS via scipy is used here.
    """
    n, np_ = p.rows.shape
    if np_ < 1:
        raise DomainError("solve_lp needs at least one free position")
    k = p.inst.alphabet.size

    nvars = 1 + np_ * k
    # one simplex constraint per position
    a_eq = np.zeros((np_, nvars))
    a_eq[:, 1:] = np.repeat(np.eye(np_), k, axis=1)
    b_eq = np.ones(np_)
    # one mismatch budget constraint per string: sum chi*x - d <= -fixed_i
    a_ub = np.zeros((n, nvars))
    a_ub[:, 0] = -1.0
    a_ub[:, 1:] = (p.rows[:, :, None] != np.arange(k)).reshape(n, np_ * k)
    b_ub = -p.fixed.astype(float)

    c = np.zeros(nvars)
    c[0] = 1.0
    # d in [0, inf), every weight in [0, 1]
    bounds = np.tile([0.0, 1.0], (nvars, 1))
    bounds[0, 1] = np.inf
    # imported here: scipy.optimize dominates the package's start-up time
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise NumericalFailure(f"LP solver failed: {res.message}")

    # round the objective up to the tolerance grid so solver slack can never
    # fake infeasibility in later bound checks
    objective = max(0.0, math.ceil(res.fun / LP_TOLERANCE) * LP_TOLERANCE)

    w = np.clip(res.x[1:].reshape(np_, k), 0.0, 1.0)
    w /= w.sum(axis=1, keepdims=True)
    w.flags.writeable = False
    return FractionalCenter(p, w, float(objective))


def _cumulative_weights(frac: FractionalCenter) -> np.ndarray:
    """(|P|, k) running sums of the weights, the last column exactly 1."""
    cum = np.cumsum(frac.weights, axis=1)
    cum[:, -1] = 1.0
    return cum


def _draw(cum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per position, the first symbol whose running weight exceeds a uniform draw."""
    u = rng.random(cum.shape[0])
    return (u[:, None] >= cum).sum(axis=1)


def sample_patch(frac: FractionalCenter, rng: np.random.Generator) -> np.ndarray:
    """One independent per-position draw from the fractional weights."""
    return _draw(_cumulative_weights(frac), rng).astype(np.uint8)


def round_randomized(frac: FractionalCenter, cfg: RoundingConfig) -> np.ndarray:
    """Best of cfg.trials independent rounding draws; ties keep the lowest trial.

    Trial t uses the derived seed rng_seed + t, so parallel evaluation of
    trials would reproduce the serial result.  Every trial draws as
    sample_patch does, from running weights built once per call.
    """
    p = frac.problem
    cum = _cumulative_weights(frac)
    patches = np.array([
        _draw(cum, np.random.default_rng((cfg.rng_seed + t) & MASK64))
        for t in range(cfg.trials)
    ], dtype=np.uint8)
    # (trials, n) cost of every string under every trial's patch
    costs = (patches[:, None, :] != p.rows).sum(axis=2) + p.fixed
    return patches[int(np.argmin(costs.max(axis=1)))]


def round_derandomized(frac: FractionalCenter, epsilon_prime: float) -> np.ndarray:
    """Fix positions left to right, minimizing the exact failure estimator.

    The estimator is the sum over strings of the Poisson-binomial tail
    probability that the string's final cost exceeds objective +
    epsilon_prime*|P|.  Whenever the estimator starts below 1 the returned
    patch is certified to satisfy that bound for every string.

    Tail table: tails[j, i, t] = Pr[#mismatches of string i over positions
    j.. >= t], shape (|P|+1, n, |P|+2).  Column 0 is exactly 1 (t <= 0) and
    column |P|+1 exactly 0 (more than the |P| - j remaining positions can
    give), so a threshold t is looked up at clip(t, 0, |P|+1).  Position j
    scores all k symbols with one (k, n) lookup in tails[j+1]; ties go to
    the larger weight, then the smaller symbol.
    """
    if not 0.0 < epsilon_prime <= 1.0:
        raise DomainError("epsilon_prime must be in (0, 1]")
    p = frac.problem
    n, np_ = p.rows.shape
    k = p.inst.alphabet.size
    w = frac.weights  # (|P|, k)
    if np_ == 0:
        return np.zeros(0, dtype=np.uint8)

    bound = frac.objective + epsilon_prime * np_
    # violation for string i means final count >= k_i
    thresholds = np.floor(bound - p.fixed + 1e-12).astype(np.int64) + 1

    # per-string mismatch probability at each position under the weights
    q = 1.0 - w[np.arange(np_)[None, :], p.rows]  # (n, |P|)

    # filled with pmf[j, i, t] = Pr[#mismatches of string i over positions
    # j.. == t] by the backward recurrence, then summed in place into tails
    last = np_ + 1
    tails = np.zeros((np_ + 1, n, last + 1))
    tails[np_, :, 0] = 1.0
    for j in range(np_ - 1, -1, -1):
        qj = q[:, j][:, None]
        np.multiply(tails[j + 1], 1.0 - qj, out=tails[j])
        tails[j, :, 1:] += tails[j + 1, :, :-1] * qj
    rev = tails[:, :, ::-1]
    np.cumsum(rev, axis=2, out=rev)
    tails[:, :, 0] = 1.0
    strings = np.arange(n)

    estimator = float(tails[0, strings, np.clip(thresholds, 0, last)].sum())
    if estimator >= 1.0:
        raise EstimatorAtLeastOne(
            f"failure estimator {estimator:.6f} >= 1 for epsilon_prime={epsilon_prime}"
        )

    # chi[j, a, i] = 1 when string i mismatches symbol a at position j
    chi = (p.rows.T[:, None, :] != np.arange(k)[:, None]).astype(np.int64)
    neg_w = (-w).tolist()
    choices: list[int] = []
    # string i violates the bound if it mismatches >= left[i] of the
    # positions still open
    left = thresholds.copy()
    for j in range(np_):
        # clip(t, 0, |P|+1); np.clip costs three times as much on these sizes
        t_needed = np.minimum(np.maximum(left - chi[j], 0), last)  # (k, n)
        scores = tails[j + 1, strings, t_needed].sum(axis=1).tolist()
        best = min(range(k), key=lambda a: (scores[a], neg_w[j][a], a))
        choices.append(best)
        left -= chi[j, best]
    return np.array(choices, dtype=np.uint8)


def _mismatch_table(cols: np.ndarray, k: int, seed: np.ndarray) -> np.ndarray:
    """(nrows, k^c) int32 table: seed[row] + mismatches of each row's c
    columns against every patch over them, patches in lexicographic order."""
    syms = np.arange(k)
    table = seed[:, None]
    for j in range(cols.shape[1]):
        table = (table[:, :, None] + (cols[:, j, None] != syms)[:, None, :]).reshape(len(cols), -1)
    return table


def sweep_patches(
    rows: np.ndarray, fixed: np.ndarray, k: int, starts: np.ndarray | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exact min-max over every patch x in range(k)^|P|, |P| = rows.shape[1].

    A patch scores the max over groups of the min over the group's rows of
    fixed[row] + mismatches(row, x); `starts` lists each group's first row
    (None makes every row its own group).  Patches run in lexicographic
    order and the first minimum wins.  |P| = 0 is the single empty patch.
    Returns (score, patch).

    Split table: the first h = |P| // 2 positions and the other |P| - h
    each get a table of every row's mismatches against every patch over
    them (`fixed` seeds the second), so a patch costs one add of a high
    and a low table entry per row.  Chunks run over the high patches; a
    chunk's cost array holds at most max(_SWEEP_CELLS, nrows * k^(|P| - h))
    int32 cells, k^(|P| - h) being the low table's width.
    """
    nrows, np_ = rows.shape
    if np_ == 0:
        costs = np.asarray(fixed)
        worst = costs if starts is None else np.minimum.reduceat(costs, starts)
        return int(worst.max()), ()
    h = np_ // 2
    hi = _mismatch_table(rows[:, :h], k, np.zeros(nrows, dtype=np.int32))
    lo = _mismatch_table(rows[:, h:], k, np.asarray(fixed, dtype=np.int32))
    n_lo = lo.shape[1]
    chunk = max(1, _SWEEP_CELLS // (nrows * n_lo))
    if starts is not None:
        groups = list(zip(starts, [*starts[1:], nrows]))
    best_cost = None
    best_id = -1
    for a in range(0, hi.shape[1], chunk):
        costs = hi[:, a:a + chunk, None] + lo[:, None, :]
        if starts is None:
            worst = costs.max(axis=0).ravel()
        else:
            # one slice-min per group, folded in place: np.minimum.reduceat
            # over the row axis is several times slower than the add itself
            (s, e), *rest = groups
            worst = costs[s:e].min(axis=0)
            for s, e in rest:
                np.maximum(worst, costs[s:e].min(axis=0), out=worst)
            worst = worst.ravel()
        local = int(np.argmin(worst))
        if best_cost is None or worst[local] < best_cost:
            best_cost = int(worst[local])
            best_id = a * n_lo + local
    patch = []
    for _ in range(np_):
        best_id, digit = divmod(best_id, k)
        patch.append(digit)
    return best_cost, tuple(reversed(patch))


def enumerate_small_P(p: RestrictedProblem, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Exact optimizer of the restricted problem by sweeping all patches.

    Candidates are enumerated in lexicographic alphabet order, so the
    returned minimizer is the lexicographically smallest one.
    """
    k = p.inst.alphabet.size
    np_ = len(p.P)
    total = k ** np_
    if total > budget:
        raise BudgetExceeded(f"{k}^{np_} = {total} patches exceed budget {budget}")
    return np.array(sweep_patches(p.rows, p.fixed, k)[1], dtype=np.uint8)


def enumeration_threshold(n: int, epsilon_prime: float) -> float:
    """Free-position count below which exhaustive enumeration is used."""
    return 4.0 * math.log(n) / (epsilon_prime * epsilon_prime)


def solve_restricted(
    p: RestrictedProblem,
    cfg: RoundingConfig,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[np.ndarray, int]:
    """Solve the restricted problem; return the (m,) uint8 anchor with the
    patch written on P, and its cost over the strings, read from fixed and rows.

    Dispatch: below the enumeration threshold the patch is found exactly,
    unless its k^|P| patches exceed enum_budget; otherwise the LP is solved
    and rounded per cfg.mode (auto attempts the derandomized rounding and
    falls back to randomized when the estimator starts at >= 1).
    """
    np_ = len(p.P)
    small = np_ < enumeration_threshold(p.inst.n, cfg.epsilon_prime)
    if np_ == 0 or (small and p.inst.alphabet.size ** np_ <= enum_budget):
        patch = enumerate_small_P(p, budget=enum_budget)
    else:
        frac = solve_lp(p)
        if cfg.mode == "randomized":
            patch = round_randomized(frac, cfg)
        elif cfg.mode == "derandomized":
            patch = round_derandomized(frac, cfg.epsilon_prime)
        else:
            try:
                patch = round_derandomized(frac, cfg.epsilon_prime)
            except EstimatorAtLeastOne:
                patch = round_randomized(frac, cfg)
    row = p.anchor.copy()
    row[p.P] = patch
    return row, int((p.fixed + (p.rows != patch).sum(axis=1)).max())

