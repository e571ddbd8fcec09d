"""Restricted center optimization: LP relaxation, rounding, enumeration.

Given an anchor row fixed on an agreement set Q, the remaining free
positions P are optimized either exhaustively (small P) or through the
fractional LP and one rounding rule: derandomization by conditional
expectations with exact Poisson-binomial tail probabilities, falling back
to the best of several randomized roundings where that derandomization
certifies nothing or its table is over its cap (see `solve_restricted`).

A `RestrictedProblem` holds read-only arrays built once: the strings on P
and their costs on Q, which every layer (LP, rounding, sweep) reads.
Every patch routine returns a (|P|,) uint8 array of indices.  The lower
bound by which the whole-string solver skips a subset needs no restricted
problem: it lives in `closest_string.subset_bounds`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

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
# cap on the cells of round_derandomized's tail table: 1 GiB of float64
_TAIL_CELLS = 1 << 27


@dataclass(frozen=True)
class RoundingConfig:
    """Knobs for the rounding stage of the restricted solve: the accuracy
    epsilon_prime, and the trials and seed of the randomized fallback."""

    trials: int = 32
    epsilon_prime: float = 0.5
    rng_seed: int = 0

    def __post_init__(self) -> None:
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


class _ArrayLP(NamedTuple):
    """The arguments of the array overload of HiGHS's passModel, in its
    order: the matrix in compressed columns, a_start holding the first
    entry of each of the num_col columns."""

    num_col: int
    num_row: int
    num_nz: int
    a_format: object
    sense: object
    offset: float
    col_cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    a_start: np.ndarray
    a_index: np.ndarray
    a_value: np.ndarray
    integrality: np.ndarray


_HIGHS_MODULE = "scipy.optimize._highspy._core"
_highs_lock = threading.Lock()
_local = threading.local()


def _highs():
    """scipy's bundled HiGHS bindings, the extension module
    scipy.optimize._highspy._core.

    Importing it by that name runs scipy.optimize's __init__ first, which
    loads over 500 modules and about 49 MB of resident memory to reach
    this one file.  So unless scipy.optimize has loaded the module
    already, the extension file is loaded on its own from scipy's
    optimize/_highspy directory, under its full name, and registered in
    sys.modules, where a later import of scipy.optimize finds and reuses
    it: about 26 modules, 4.7 MB and 8 ms (scipy 1.17.1).  The lock
    makes threads that reach their first LP together load it once.
    """
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    with _highs_lock:
        module = sys.modules.get(_HIGHS_MODULE)
        if module is None:
            import scipy

            where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
            spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [where])
            if spec is None:
                raise ImportError(f"scipy {scipy.__version__} has no HiGHS extension _core in {where}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_HIGHS_MODULE] = module
    return module


def _thread_solver():
    """This thread's HiGHS solver, made at the thread's first LP with
    console log and presolve off.  A HiGHS object is not safe to share
    between threads, so every thread that solves LPs gets its own."""
    solver = getattr(_local, "solver", None)
    if solver is None:
        solver = _local.solver = _highs()._Highs()
        solver.setOptionValue("log_to_console", False)
        solver.setOptionValue("presolve", "off")
    return solver


def _run_highs(lp: _ArrayLP):
    """Solve lp on this thread's HiGHS solver.  Returns HiGHS's model
    status string, then the column values and the objective, both None
    unless the model status is optimal: an error from passModel or run
    fails the LP as well.

    passModel replaces the solver's model and drops its basis and
    solution, so no state carries over from one LP to the next: an LP
    returns the same vertex, bit for bit, whatever the solver ran before.
    """
    highs = _highs()
    solver = _thread_solver()
    if solver.passModel(*lp) == highs.HighsStatus.kError:
        return solver.modelStatusToString(highs.HighsModelStatus.kModelError), None, None
    failed = solver.run() == highs.HighsStatus.kError
    status = solver.getModelStatus()
    if failed or status != highs.HighsModelStatus.kOptimal:
        return solver.modelStatusToString(status), None, None
    return solver.modelStatusToString(status), solver.getSolution().col_value, solver.getObjectiveValue()


def solve_lp(p: RestrictedProblem) -> FractionalCenter:
    """Optimal fractional solution of the 0-1 model's LP relaxation.

    Variables are the objective d plus one weight per (position, symbol);
    any exact LP method over these |P|*|alphabet|+1 variables and n+|P|
    rows qualifies.  HiGHS solves it here (`_run_highs`), through the
    HiGHS bindings bundled with scipy, loaded without scipy.optimize
    (`_highs`), from one sparse column-wise matrix: the n string rows,
    then the |P| simplex rows.  Nothing is declared integral.

    The bindings are called directly, with the arrays going in through
    passModel's array overload, because on LPs of a few dozen rows scipy's
    Python front end costs more than HiGHS itself.  Each thread reuses one
    solver object (`_thread_solver`), as a fresh one per LP costs a build
    and a cold run.  HiGHS runs without presolve, which costs more than it
    saves on these LPs.  The same LPs passed row-wise returned the same
    vertices, bit for bit (965 LPs), but HiGHS took 8% longer on string_dna's.

    The optimum value does not depend on presolve or on the HiGHS version,
    but the optimal vertex, and so the rounding that reads it, may; the
    ratio bound holds for any optimal LP solution.  A solve that does not
    end optimal raises NumericalFailure with HiGHS's model status.
    """
    n, np_ = p.rows.shape
    if np_ < 1:
        raise DomainError("solve_lp needs at least one free position")
    k = p.inst.alphabet.size

    highs = _highs()
    nvars = 1 + np_ * k
    # Compressed columns straight from index arrays, so memory is linear
    # in |P|: a dense simplex block would hold |P|^2*k cells for its |P|*k
    # nonzeros.  Column 0 is d, -1 in every string row.  The weight of
    # symbol a at position j is column 1 + j*k + a: 1 in each string row
    # i with rows[i, j] != a (string i: sum chi*x - d <= -fixed_i), then 1
    # in simplex row n + j (position j's k weights sum to 1).  Row v of
    # `entry` marks the rows of weight column 1 + v, its simplex row as
    # the extra last cell n, so its nonzeros in row-major order are the
    # weight columns' entries column by column, rows ascending, each
    # column's simplex entry last.
    entry = np.ones((np_ * k, n + 1), dtype=bool)
    entry[:, :n] = (p.rows.T[:, None, :] != np.arange(k)[:, None]).reshape(np_ * k, n)
    row = np.flatnonzero(entry) % (n + 1)
    last = np.flatnonzero(row == n)  # each weight column's simplex entry
    indices = np.empty(n + len(row), dtype=np.int32)
    indices[:n] = np.arange(n)
    indices[n:] = row
    indices[n + last] = n + np.arange(np_ * k) // k
    a_start = np.empty(nvars, dtype=np.int32)
    a_start[0] = 0
    a_start[1:] = n
    a_start[2:] += last[:-1] + 1  # column 1 + v starts past column v's simplex entry

    value = np.ones(len(indices))
    value[:n] = -1.0
    cost = np.zeros(nvars)
    cost[0] = 1.0
    # d in [0, inf), every weight in [0, 1]
    upper = np.ones(nvars)
    upper[0] = math.inf
    row_lower = np.ones(n + np_)
    row_lower[:n] = -math.inf
    row_upper = np.ones(n + np_)
    row_upper[:n] = -p.fixed.astype(np.float64)
    lp = _ArrayLP(
        nvars, n + np_, len(indices), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        cost, np.zeros(nvars), upper, row_lower, row_upper,
        a_start, indices, value,
        np.zeros(nvars, dtype=np.int32),  # every column continuous
    )

    status, x, fun = _run_highs(lp)
    if x is None:
        raise NumericalFailure(f"LP solver failed: {status}")

    # round the objective up to the tolerance grid so solver slack can never
    # fake infeasibility in later bound checks
    objective = max(0.0, math.ceil(fun / LP_TOLERANCE) * LP_TOLERANCE)

    w = np.clip(np.array(x[1:]).reshape(np_, k), 0.0, 1.0)
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

    Trial t draws from its own stream, seeded rng_seed + t, as
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

    Only live strings, those whose threshold is at most |P|, enter the
    estimator: a string that needs more mismatches than P has positions
    can never violate the bound, and its tail terms are exactly 0.0 at
    every step.  With no live string every score is 0.0, so the tie rule
    below picks the per-position argmax of the weights (the smaller
    symbol on a tie), and that argmax is returned at once, before any
    mismatch probability or table is built.

    Tail table: tails[j, i, t] = Pr[#mismatches of live string i over
    positions j.. >= t], shape (|P|+1, #live, |P|+2).  Column 0 is exactly
    1 (t <= 0) and column |P|+1 exactly 0 (more than the |P| - j remaining
    positions can give), so a threshold t is looked up at clip(t, 0, |P|+1).
    Position j scores all k symbols with one (k, #live) lookup in
    tails[j+1]; ties go to the larger weight, then the smaller symbol.
    A table of more than _TAIL_CELLS cells raises BudgetExceeded before
    it is allocated; the table grows as |P|^2 times #live.
    """
    if not 0.0 < epsilon_prime <= 1.0:
        raise DomainError("epsilon_prime must be in (0, 1]")
    p = frac.problem
    np_ = len(p.P)
    k = p.inst.alphabet.size
    w = frac.weights  # (|P|, k)
    if np_ == 0:
        return np.zeros(0, dtype=np.uint8)

    bound = frac.objective + epsilon_prime * np_
    # violation for string i means final count >= k_i
    thresholds = np.floor(bound - p.fixed + 1e-12).astype(np.int64) + 1
    live = thresholds <= np_
    # all 3,302 roundings of string_dna's seed-1 batch return here; going
    # on to the empty table took that batch from 17-19 to 34-36 ms per
    # solve (min of 3 passes, 3 alternating runs), with identical outputs
    if not live.any():
        return np.argmax(w, axis=1).astype(np.uint8)
    thresholds, rows = thresholds[live], p.rows[live]
    n = len(rows)
    cells = (np_ + 1) * n * (np_ + 2)
    if cells > _TAIL_CELLS:
        raise BudgetExceeded(f"derandomized tail table of {cells} cells exceeds cap {_TAIL_CELLS}")

    # per-string mismatch probability at each position under the weights
    q = 1.0 - w[np.arange(np_)[None, :], rows]  # (n, |P|)

    # the backward recurrence of the tails themselves: at least t mismatches
    # over j.. is a mismatch at j and t - 1 over j+1.., or a match and t
    last = np_ + 1
    tails = np.zeros((np_ + 1, n, last + 1))
    tails[:, :, 0] = 1.0
    for j in range(np_ - 1, -1, -1):
        qj = q[:, j][:, None]
        np.multiply(tails[j + 1, :, 1:], 1.0 - qj, out=tails[j, :, 1:])
        tails[j, :, 1:] += tails[j + 1, :, :-1] * qj
    strings = np.arange(n)

    estimator = float(tails[0, strings, np.clip(thresholds, 0, last)].sum())
    if estimator >= 1.0:
        raise EstimatorAtLeastOne(
            f"failure estimator {estimator:.6f} >= 1 for epsilon_prime={epsilon_prime}"
        )

    # chi[j, a, i] = 1 when string i mismatches symbol a at position j
    chi = (rows.T[:, None, :] != np.arange(k)[:, None]).astype(np.int64)
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


def _mismatch_table(mism: np.ndarray) -> np.ndarray:
    """(nrows, k^c) int32 table of each row's mismatches against every patch
    over c positions, patches in lexicographic order, from the (nrows, c, k)
    int32 mismatch indicators of those positions."""
    if mism.shape[1] == 0:
        return np.zeros((len(mism), 1), dtype=np.int32)
    table = mism[:, 0]
    for j in range(1, mism.shape[1]):
        table = (table[:, :, None] + mism[:, j, None, :]).reshape(len(mism), -1)
    return table


def sweep_patches(
    rows: np.ndarray, fixed: np.ndarray, k: int, starts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact min-max over every patch x in range(k)^|P|, |P| = rows.shape[1],
    under each of A seed rows, `fixed` of shape (A, nrows).

    Under seed row a, a patch scores the max over groups of the min over
    the group's rows of fixed[a, row] + mismatches(row, x); `starts` lists
    each group's first row (None makes every row its own group).  Patches
    run in lexicographic order and the first minimum wins.  |P| = 0 is the
    single empty patch.  Returns an (A,) int64 array of scores and an
    (A, |P|) uint8 array of patches; one restricted problem is the batch
    of one seed row, fixed[None].

    Split table: the first h = |P| // 2 positions and the other |P| - h
    each get a table of every row's mismatches against every patch over
    them, built once per call; a chunk of seed rows adds its seeds to the
    second, so a patch costs one add of a high and a low table entry per
    row.  Chunks run over (seed row, high patch) pairs, every high patch of
    a seed row before the next seed row; a chunk's cost array holds at
    most max(_SWEEP_CELLS, nrows * k^(|P| - h)) int32 cells, k^(|P| - h)
    being the low table's width.
    """
    nrows, np_ = rows.shape
    seeds = np.asarray(fixed, dtype=np.int32).T  # (nrows, A)
    if np_ == 0:
        # the split table below gives the same; it took 41 instead of 12 us per substring_sampling solve
        worst = seeds if starts is None else np.minimum.reduceat(seeds, starts)
        scores, ids = worst.max(axis=0), np.zeros(seeds.shape[1], dtype=np.intp)
    else:
        h = np_ // 2
        mism = (rows[:, :, None] != np.arange(k, dtype=rows.dtype)).astype(np.int32)
        hi, lo = _mismatch_table(mism[:, :h]), _mismatch_table(mism[:, h:])
        n_hi, n_lo = hi.shape[1], lo.shape[1]
        pairs = max(1, _SWEEP_CELLS // (nrows * n_lo))
        hi_step, seed_step = min(pairs, n_hi), max(1, pairs // n_hi)
        if starts is not None:
            bounds = starts.tolist()
            groups = list(zip(bounds, [*bounds[1:], nrows]))
        parts = []
        for s in range(0, seeds.shape[1], seed_step):
            # (nrows, seed rows, n_lo): the low table under each seed row
            seeded = lo[:, None, :] + seeds[:, s:s + seed_step, None]
            span = np.arange(seeded.shape[1])
            for a in range(0, n_hi, hi_step):
                costs = hi[:, None, a:a + hi_step, None] + seeded[:, :, None, :]
                if starts is None:
                    # one-row groups give the same; they took 19% longer per string_sweep sweep
                    worst = costs.max(axis=0)
                else:
                    # one slice-min per group, folded in place: np.minimum.reduceat
                    # over the row axis is several times slower than the add itself
                    (b, e), *rest = groups
                    worst = costs[b:e].min(axis=0)
                    for b, e in rest:
                        np.maximum(worst, costs[b:e].min(axis=0), out=worst)
                del costs  # so that one chunk's costs are alive at a time
                worst = worst.reshape(len(span), -1)
                local = np.argmin(worst, axis=1)
                found = worst[span, local]
                if a == 0:
                    best, best_id = found, local
                else:
                    # a later chunk holds later patches: it wins only when strictly lower
                    better = found < best
                    best = np.where(better, found, best)
                    best_id = np.where(better, a * n_lo + local, best_id)
            parts.append((best, best_id))
        scores, ids = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    # _guesses' numpy digit grid gives the same; it took 8% longer on substring_sampling's sweeps
    digits = range(np_ - 1, -1, -1)
    patches = np.array([[i // k ** e % k for e in digits] for i in ids.tolist()], dtype=np.uint8)
    return scores.astype(np.int64), patches


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
    return sweep_patches(p.rows, p.fixed[None], k)[1][0]


def enumeration_threshold(n: int, epsilon_prime: float) -> float:
    """Free-position count below which exhaustive enumeration is used:
    4 ln(n) / epsilon'^2, which is inf (0 at n = 1) once epsilon'^2
    underflows to 0."""
    square = epsilon_prime * epsilon_prime
    if not square:
        return math.inf if n > 1 else 0.0
    return 4.0 * math.log(n) / square


def solve_restricted(
    p: RestrictedProblem,
    cfg: RoundingConfig,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[np.ndarray, int]:
    """Solve the restricted problem; return the (m,) uint8 anchor with the
    patch written on P, and its cost over the strings, read from fixed and rows.

    Dispatch: below the enumeration threshold the patch is found exactly,
    unless its k^|P| patches exceed enum_budget; otherwise the LP is solved
    and rounded by the one rounding rule: derandomized rounding, falling
    back to the best of cfg.trials randomized roundings when the failure
    estimator starts at >= 1 or the tail table exceeds _TAIL_CELLS.  The
    whole-string solver passes its ClosestStringConfig.enum_budget, checked
    to be >= 1 when that config was built; a guessed substring tuple keeps
    the default.
    """
    np_ = len(p.P)
    small = np_ < enumeration_threshold(p.inst.n, cfg.epsilon_prime)
    if np_ == 0 or (small and p.inst.alphabet.size ** np_ <= enum_budget):
        patch = enumerate_small_P(p, budget=enum_budget)
    else:
        frac = solve_lp(p)
        try:
            patch = round_derandomized(frac, cfg.epsilon_prime)
        except (EstimatorAtLeastOne, BudgetExceeded):
            # At |P| >= 4 ln(n) / eps'^2, the paper's threshold, Hoeffding
            # bounds the starting estimator by n * exp(-2 eps'^2 |P|) < 1
            # (at most n^-7 for n >= 2).  So the estimator fallback fires
            # only for an LP run below that threshold because k^|P| >
            # enum_budget, and the table fallback only past _TAIL_CELLS.
            patch = round_randomized(frac, cfg)
    row = p.anchor.copy()
    row[p.P] = patch
    return row, int((p.fixed + (p.rows != patch).sum(axis=1)).max())
