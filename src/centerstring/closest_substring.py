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

Both run on the tuple's anchor row and boolean agreement mask Q, and a
candidate is a (radius, center row) pair.  A repeated candidate can never
be the first minimum, so it is dropped where first seen: the pre-pass keeps
one swept tuple per (Q, anchor on Q) pair, all a swept candidate depends
on, and a guessed tuple solves each distinct window selection once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ._seeds import derive_seed
from .core import CenterSolution, Seq, StringInstance, SubstringInstance, cost_substring
from .core import agreement_positions  # noqa: F401  perfbench's tracer test reads it from this module
from .errors import BudgetExceeded, DomainError, LengthMismatch
from .lp_round import RoundingConfig, build_restricted, solve_restricted, sweep_patches

_SUBSTRING_MODES = ("small_d", "sampling", "auto")
# guesses scored per select_windows call: memory stays flat in k^|R|
_GUESS_BLOCK = 1 << 14
# (guess x window x |R|) compares select_windows holds at once
_SELECT_CELLS = 1 << 18


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
    """(picks, anchor row, agreement mask on_q, swept) of the window
    tuples in enumeration order, keeping only the first swept tuple of each
    (Q mask, anchor on Q) pair; on_q marks the positions Q where every
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
    swept_pairs: set[bytes] = set()  # the mask's fixed length L keeps keys unambiguous
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
        if swept:
            pair = on_q.tobytes() + rows[0, on_q].tobytes()
            if pair in swept_pairs:
                continue
            swept_pairs.add(pair)
        # a copy, so that the tuple's rows are freed
        agreed.append((picks, rows[0].copy(), on_q, swept))
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
    inst: SubstringInstance, ys: np.ndarray, r_idx: np.ndarray, anchor: np.ndarray, on_q: np.ndarray
) -> np.ndarray:
    """(g, n) offsets: per guess row y of the (g, |R|) uint8 array ys and
    per input string, the window w minimizing
    d(y, w|_R) * |P|/|R| + d(anchor, w) on the agreement mask on_q, where
    r_idx lists R (repeats allowed) and P is the positions off on_q.
    Scored exactly as d_R * |P| + d_Q * max(|R|, 1), so an empty R leaves
    the Q term alone; ties go to the smallest offset.
    """
    r_size = len(r_idx)
    if ys.shape[1] != r_size:
        raise LengthMismatch(f"|y|={ys.shape[1]} vs |R|={r_size}")
    p_size = inst.window - int(on_q.sum())
    letters = anchor[on_q]
    offsets = np.empty((len(ys), inst.n), dtype=np.intp)
    for i, wins in enumerate(inst.windows):
        q_cost = (wins[:, on_q] != letters).sum(axis=1, dtype=np.int64) * max(r_size, 1)
        sampled = wins[:, r_idx]
        step = max(1, _SELECT_CELLS // max(1, sampled.size))
        for a in range(0, len(ys), step):
            d_r = (ys[a:a + step, None, :] != sampled).sum(axis=2, dtype=np.int64)
            offsets[a:a + step, i] = np.argmin(d_r * p_size + q_cost, axis=1)
    return offsets


def _guesses(k: int, size: int) -> Iterator[np.ndarray]:
    """All k^size guesses on R as uint8 rows in lexicographic order, in
    blocks of at most _GUESS_BLOCK rows: one fixed grid of the low digits
    under each prefix of the high digits."""
    low = min(size, _max_exponent(k, _GUESS_BLOCK))
    ids = np.arange(k ** low)
    grid = (ids[:, None] // k ** np.arange(low - 1, -1, -1) % k).astype(np.uint8)
    for prefix in itertools.product(range(k), repeat=size - low):
        ys = np.empty((len(grid), size), dtype=np.uint8)
        ys[:, :size - low] = prefix
        ys[:, size - low:] = grid
        yield ys


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


def _centers(inst: SubstringInstance, cfg: SubstringConfig, mode: str) -> Iterator[tuple[int, np.ndarray]]:
    """(radius, center row) candidates in enumeration order: per kept
    window tuple, its swept center, or else the restricted solve's center
    for every distinct selection its guesses y on R make, at the
    selection's first guess.

    A swept tuple's center keeps the anchor on Q.  Every window of every
    string is one row of the shared patch sweep, restricted to P and
    charged its distance to the anchor on Q; a string's rows form one
    group, so the sweep scores a patch by max over strings of min over
    windows, the candidate's substring radius.

    A guessed tuple draws R from P (seeded per tuple).  Its selections are
    keyed by window contents; each new one is solved as the StringInstance
    of its selected windows, whose restricted problem keeps the anchor on
    Q, and its center is scored on every window like a swept one.
    """
    agreed = _agreed_tuples(inst, cfg, mode)
    k = inst.alphabet.size
    size = _sample_size_of(inst, cfg.epsilon)
    wins = np.concatenate(inst.windows)
    starts = np.cumsum([0] + [len(w) for w in inst.windows[:-1]])
    # the LP stage must stay within error epsilon*|P| overall
    rounding = RoundingConfig(cfg.rounding_mode, cfg.trials, epsilon_prime=cfg.epsilon)

    for picks, anchor, on_q, swept in agreed:
        if swept:
            on_p = ~on_q
            fixed = (wins[:, on_q] != anchor[on_q]).sum(axis=1)
            cost, patch = sweep_patches(wins[:, on_p], fixed, k, starts)
            center = anchor.copy()
            center[on_p] = patch
            yield cost, center
            continue
        free = np.flatnonzero(~on_q)
        rng = np.random.default_rng(derive_seed(cfg.rng_seed, "sample", picks))
        r_idx = np.sort(free[rng.integers(0, len(free), size=size)])
        seen: set[bytes] = set()
        for ys in _guesses(k, size):
            offsets = select_windows(inst, ys, r_idx, anchor, on_q)
            _, first = np.unique(offsets, axis=0, return_index=True)
            for row in offsets[np.sort(first)]:
                selected = wins[starts + row]
                key = selected.tobytes()  # windows of one length L: unambiguous
                if key in seen:
                    continue
                seen.add(key)
                problem = build_restricted(StringInstance(inst.alphabet, selected), anchor, on_q)
                # the seed token keeps the repr of index tuples
                seed = derive_seed(cfg.rng_seed, "round", picks, tuple(map(tuple, selected.tolist())))
                center, _ = solve_restricted(problem, replace(rounding, rng_seed=seed))
                yield int(np.minimum.reduceat((wins != center).sum(axis=1), starts).max()), center


def _solve(inst: SubstringInstance, cfg: SubstringConfig, mode: str) -> CenterSolution:
    """The first candidate of minimum radius under the mode's sweep limit."""
    _, row = min(_centers(inst, cfg, mode), key=lambda c: c[0])
    center = Seq(inst.alphabet, row.tobytes())
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
    window per string, and each distinct selection goes once through the
    restricted LP pipeline (solved within error epsilon*|P|), which
    produces a candidate center.  cfg.y_budget caps the
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
