"""Closest Substring solvers.

One per-tuple loop serves every mode.  Each window tuple either has its
free positions P solved exactly or has its center guessed on a random
position multiset R.  A tuple is swept (every patch over P, scored by the
patch-sweep kernel shared with the Closest String solver) when |P| is at
most the mode's sweep limit: L for small_d, |R| for sampling, and the
largest c with k^c <= y_budget for auto.  Otherwise every guess y on R
selects one window per input string by a scaled proxy score, and the
selected windows go to the restricted LP machinery.  The first candidate
of minimum radius, in enumeration order, wins.

A swept candidate depends only on the tuple's agreement mask Q and the
anchor's letters on Q, not on which windows were picked, so each distinct
(Q, anchor on Q) pair is swept once per solve and repeats reuse its
candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ._seeds import derive_seed
from .core import (
    CenterSolution,
    PositionSet,
    Seq,
    StringInstance,
    SubstringInstance,
    agreement_positions,
    cost_substring,
    restrict,
)
from .errors import BudgetExceeded, DomainError, LengthMismatch
from .lp_round import RoundingConfig, build_restricted, solve_restricted, sweep_patches

_SUBSTRING_MODES = ("small_d", "sampling", "auto")


@dataclass(frozen=True)
class SubstringConfig:
    """Knobs of the substring solvers.  The LP stage of a guessed tuple
    rounds in rounding_mode with `trials` attempts, at epsilon' = epsilon
    and with seeds derived from rng_seed."""

    r: int = 2
    epsilon: float = 1.0
    rounding_mode: str = "auto"
    trials: int = 32
    y_budget: int = 1 << 16
    mode: str = "auto"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.r < 2:
            raise DomainError("subset size r must be >= 2")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError("epsilon must be in (0, 1]")
        RoundingConfig(mode=self.rounding_mode, trials=self.trials)  # raises with its messages
        if self.y_budget < 1:
            raise DomainError("y_budget must be >= 1")
        if self.mode not in _SUBSTRING_MODES:
            raise DomainError(f"mode must be one of {_SUBSTRING_MODES}")


Picks = tuple[tuple[int, int], ...]


def enumerate_window_tuples(inst: SubstringInstance, r: int) -> Iterator[Picks]:
    """The picks ((string index, offset), ...) of every window tuple, in
    deterministic order: support size ascending, then string subsets and
    offsets lexicographically.

    The picks name distinct strings: repeats of a string collapse to one
    pick, mirroring the rule that two windows chosen from the same string
    must be identical.  The first pick is the anchor.
    """
    counts = [len(s) - inst.window + 1 for s in inst.strings]
    for k in range(1, min(r, inst.n) + 1):
        for subset in itertools.combinations(range(inst.n), k):
            for offsets in itertools.product(*(range(counts[i]) for i in subset)):
                yield tuple(zip(subset, offsets))


def _agreed_tuples(
    inst: SubstringInstance, cfg: SubstringConfig, mode: str
) -> list[tuple[Picks, np.ndarray, np.ndarray, bool]]:
    """(picks, anchor row, agreement mask on_q, swept) of every window
    tuple, in enumeration order; on_q marks the positions Q where every
    picked window equals the anchor.

    A tuple is swept over its k^|P| patches when its free-position count
    |P| is at most the mode's sweep limit: L for small_d (every tuple), the
    sample size |R| for sampling, and the largest c with k^c <= y_budget
    for auto.  Any other tuple makes k^|R| center guesses on R.  Raises
    BudgetExceeded at the first tuple whose count exceeds y_budget, so an
    overrun surfaces before any sweep, window selection or LP runs; outside
    small_d the message ends with how to make every tuple fit.
    """
    k = inst.alphabet.size
    size = _sample_size_of(inst, cfg.epsilon)
    limit = {"small_d": inst.window, "sampling": size, "auto": _max_exponent(k, cfg.y_budget)}[mode]
    agreed = []
    for picks in enumerate_window_tuples(inst, cfg.r):
        rows = np.array([inst.windows[i][o] for i, o in picks])
        on_q = (rows == rows[0]).all(axis=0)
        free = inst.window - int(on_q.sum())
        swept = free <= limit
        count = free if swept else size
        if k ** count > cfg.y_budget:
            work = f"|P|={free} needs {k}^{free} patches" if swept else f"|R|={size} needs {k}^{size} guesses"
            hint = "" if mode == "small_d" else "; " + _budget_hint(inst, cfg.y_budget, cfg.epsilon)
            raise BudgetExceeded(f"{work}, over budget {cfg.y_budget}{hint}")
        agreed.append((picks, rows[0], on_q, swept))
    return agreed


def solve_small_substring(
    inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()
) -> CenterSolution:
    """Exhaustive-patch substring solver, ratio at most 1 + 1/(2r-1).

    Sweeps every window tuple.  Intended for small optimal radius, where
    the free-position sets stay logarithmic; if any window tuple's patch
    count exceeds cfg.y_budget it raises BudgetExceeded before sweeping
    anything.
    """
    return _solve(inst, cfg, "small_d")


def sample_size(epsilon: float, n: int, m: int) -> int:
    """Number of random positions to draw: ceil((4/eps^2) * ln(n*m)).

    Natural log, matching the exp(-eps^2|R|/2) tail the size must defeat.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must be in (0, 1]")
    if n < 1 or m < 1:
        raise DomainError("n and m must be >= 1")
    return math.ceil(4.0 / (epsilon * epsilon) * math.log(n * m))


def _sample_size_of(inst: SubstringInstance, epsilon: float) -> int:
    """sample_size at the instance's n and longest string."""
    return sample_size(epsilon, inst.n, max(len(s) for s in inst.strings))


def select_windows(
    inst: SubstringInstance,
    y: Seq,
    r_sample: PositionSet,
    anchor_q: Seq,
    q: PositionSet,
) -> list[Seq]:
    """Per input string, the window minimizing
    d(y, w|_R) * |P|/|R| + d(anchor_q, w|_Q), scored in exact rational
    arithmetic; ties go to the smallest offset.  With an empty R the score
    reduces to the Q term alone.
    """
    if len(y) != len(r_sample):
        raise LengthMismatch(f"|y|={len(y)} vs |R|={len(r_sample)}")
    l = q.frame
    p_size = l - len(set(q.positions))
    r_size = len(r_sample)
    r_idx = np.array(r_sample.positions, dtype=np.intp)
    q_idx = np.array(q.positions, dtype=np.intp)
    y_arr = y.arr
    aq_arr = anchor_q.arr

    chosen: list[Seq] = []
    for s, wins in zip(inst.strings, inst.windows):
        d_q = (wins[:, q_idx] != aq_arr).sum(axis=1)
        if r_size:
            d_r = (wins[:, r_idx] != y_arr).sum(axis=1)
            # compare d_r*|P|/|R| + d_q exactly via the |R|-scaled integers
            scores = d_r.astype(np.int64) * p_size + d_q.astype(np.int64) * r_size
        else:
            scores = d_q.astype(np.int64)
        off = int(np.argmin(scores))
        chosen.append(s.window(off, l))
    return chosen


def _draw_sample(p: PositionSet, size: int, seed: int) -> PositionSet:
    """Multiset of `size` positions drawn with replacement from p.

    Only guessed tuples draw one, and then size < |p|: sampling guesses a
    tuple only when |P| > |R|, and auto only when k^|P| exceeds y_budget
    while k^|R| fits it.
    """
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(p), size=size)
    drawn = sorted(p.positions[i] for i in idx)
    return PositionSet(tuple(drawn), p.frame, multiset=True)


def _max_exponent(k: int, budget: int) -> int:
    """The largest c with k^c <= budget (budget >= 1)."""
    c = 0
    while k ** (c + 1) <= budget:
        c += 1
    return c


def _budget_hint(inst: SubstringInstance, y_budget: int, epsilon: float) -> str:
    """How to make every tuple fit y_budget in sampling or auto: the
    smallest epsilon in (0, 1] whose sample fits, or, when none does, the
    budget that fits at this epsilon (k^min(|R|, L), as |P| <= L)."""
    k = inst.alphabet.size
    max_r = _max_exponent(k, y_budget)
    if max_r:
        nm = inst.n * max(len(s) for s in inst.strings)
        # rounded up, so the printed value itself fits
        eps_min = math.ceil(math.sqrt(4.0 * math.log(nm) / max_r) * 1e4) / 1e4
        if eps_min <= 1.0:
            return f"epsilon >= {eps_min:.4f} would fit"
        needed = f"epsilon >= {eps_min:.4f} would be needed"
    else:
        needed = f"a budget below {k} fits no guess"
    size = min(_sample_size_of(inst, epsilon), inst.window)
    return f"no epsilon in (0, 1] fits ({needed}); y_budget >= {k}^{size} would fit at epsilon {epsilon}"


def _centers(inst: SubstringInstance, cfg: SubstringConfig, mode: str) -> Iterator[tuple[int, Seq]]:
    """(radius, center) candidates in enumeration order: per window tuple,
    its swept center, or else the restricted solve's center for every
    guess y on R.

    A swept tuple's center keeps the anchor on Q.  Every window of every
    string is one row of the shared patch sweep, restricted to P and
    charged its distance to the anchor on Q; a string's rows form one
    group, so the sweep scores a patch by max over strings of min over
    windows, the candidate's substring radius.  Nothing else of the tuple
    enters, so a swept tuple whose (Q mask, anchor on Q) pair was already
    swept in this solve yields that pair's candidate again.
    """
    agreed = _agreed_tuples(inst, cfg, mode)
    k = inst.alphabet.size
    size = _sample_size_of(inst, cfg.epsilon)
    wins = np.concatenate(inst.windows)
    starts = np.cumsum([0] + [len(w) for w in inst.windows[:-1]])
    # the LP stage must stay within error epsilon*|P| overall
    rounding = RoundingConfig(cfg.rounding_mode, cfg.trials, epsilon_prime=cfg.epsilon)

    # one key per (Q mask, anchor on Q) pair; the mask's fixed length L
    # keeps the concatenation unambiguous
    swept_by_pair: dict[bytes, tuple[int, Seq]] = {}
    for picks, anchor, on_q, swept in agreed:
        if swept:
            letters = anchor[on_q]
            pair = on_q.tobytes() + letters.tobytes()
            if pair not in swept_by_pair:
                on_p = ~on_q
                fixed = (wins[:, on_q] != letters).sum(axis=1)
                cost, patch = sweep_patches(wins[:, on_p], fixed, k, starts)
                center = anchor.copy()
                center[on_p] = patch
                swept_by_pair[pair] = cost, Seq(inst.alphabet, center.tobytes())
            yield swept_by_pair[pair]
            continue
        windows = [inst.strings[i].window(o, inst.window) for i, o in picks]
        q = agreement_positions(windows)
        r_sample = _draw_sample(q.complement(), size, derive_seed(cfg.rng_seed, "sample", picks))
        anchor_q = restrict(windows[0], q)
        memo: dict[tuple[bytes, ...], tuple[int, Seq]] = {}
        for y_digits in itertools.product(range(k), repeat=len(r_sample)):
            y = Seq(inst.alphabet, y_digits)
            selected = select_windows(inst, y, r_sample, anchor_q, q)
            key = tuple(t.data for t in selected)
            if key not in memo:
                sub_inst = StringInstance(inst.alphabet, tuple(selected))
                problem = build_restricted(sub_inst, anchor, on_q)
                # the seed token keeps the repr of index tuples
                seed = derive_seed(cfg.rng_seed, "round", picks, tuple(map(tuple, key)))
                center, _ = solve_restricted(problem, replace(rounding, rng_seed=seed))
                memo[key] = cost_substring(inst, center)[0], center
            yield memo[key]


def _solve(inst: SubstringInstance, cfg: SubstringConfig, mode: str) -> CenterSolution:
    """The first candidate of minimum radius under the mode's sweep limit."""
    _, center = min(_centers(inst, cfg, mode), key=lambda c: c[0])
    radius, offsets = cost_substring(inst, center)
    return CenterSolution(center, radius, offsets)


def solve_closest_substring(
    inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()
) -> CenterSolution:
    """Sampling-based substring solver, ratio 1 + 1/(2r-1) + 3*epsilon*r
    with high probability.

    For every window tuple the sample size |R| = sample_size(epsilon, n, m)
    is compared with the free positions P.  When |R| >= |P| the sample
    would be all of P, so every center guess is a whole patch; the tuple
    is then swept exactly (the small_d sweep, ratio 1 + 1/(2r-1)), which
    is at least as good as every guess together.  Otherwise R is drawn
    once from P (seeded per tuple); every center guess y on R selects one
    window per string, and the restricted LP pipeline (solved within error
    epsilon*|P|) produces a candidate center.  cfg.y_budget caps the
    patches swept or the guesses made per tuple; an overrun raises
    BudgetExceeded before any tuple is solved.
    """
    return _solve(inst, cfg, "sampling")


def solve_substring(inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()) -> CenterSolution:
    """Mode dispatcher: small_d, sampling or auto.

    The modes differ only in the sweep limit on a tuple's free positions
    (see _agreed_tuples).  Auto sweeps every tuple whose k^|P| patches fit
    cfg.y_budget and guesses the others on R as sampling does, so its ratio
    is the small_d bound 1 + 1/(2r-1) whenever every tuple is swept, and
    the sampling bound otherwise.
    """
    if cfg.mode == "small_d":
        return solve_small_substring(inst, cfg)
    if cfg.mode == "sampling":
        return solve_closest_substring(inst, cfg)
    return _solve(inst, cfg, "auto")
