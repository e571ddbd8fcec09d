"""Closest Substring solvers.

Two pipelines share the window-tuple enumeration: the small-radius path
sweeps every patch over the tuple's free positions with the patch-sweep
kernel it shares with the Closest String solver, while the sampling
path guesses the center on a random position multiset R, selects one
window per input string by a scaled proxy score, and hands the selected
windows to the restricted LP machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._seeds import derive_seed
from .core import (
    CenterSolution,
    PositionSet,
    Seq,
    StringInstance,
    SubstringInstance,
    agreement_positions,
    compose,
    cost_substring,
    restrict,
)
from .errors import BudgetExceeded, DomainError, LengthMismatch
from .lp_round import (
    DEFAULT_ENUM_BUDGET,
    RoundingConfig,
    build_restricted,
    solve_restricted,
    sweep_patches,
)

_SUBSTRING_MODES = ("small_d", "sampling", "auto")


@dataclass(frozen=True)
class SubstringConfig:
    r: int = 2
    epsilon: float = 1.0
    rounding: RoundingConfig = RoundingConfig()
    y_budget: int = 1 << 16
    mode: str = "auto"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.r < 2:
            raise DomainError("subset size r must be >= 2")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError("epsilon must be in (0, 1]")
        if self.y_budget < 1:
            raise DomainError("y_budget must be >= 1")
        if self.mode not in _SUBSTRING_MODES:
            raise DomainError(f"mode must be one of {_SUBSTRING_MODES}")


@dataclass(frozen=True)
class WindowTuple:
    """r window picks with distinct strings; repeats of a string collapse
    to one pick, mirroring the rule that two windows chosen from the same
    string must be identical.  The first pick is the anchor."""

    picks: tuple[tuple[int, int], ...]  # (string index, offset), sorted
    windows: tuple[Seq, ...]

    @property
    def anchor(self) -> Seq:
        return self.windows[0]


def enumerate_window_tuples(inst: SubstringInstance, r: int) -> Iterator[WindowTuple]:
    """All window tuples in deterministic order: support size ascending,
    then string subsets and offsets lexicographically."""
    l = inst.window
    counts = [len(s) - l + 1 for s in inst.strings]
    for k in range(1, min(r, inst.n) + 1):
        for subset in itertools.combinations(range(inst.n), k):
            for offsets in itertools.product(*(range(counts[i]) for i in subset)):
                picks = tuple(zip(subset, offsets))
                windows = tuple(inst.strings[i].window(o, l) for i, o in picks)
                yield WindowTuple(picks, windows)


def _best_solution(
    inst: SubstringInstance, candidates: Iterable[tuple[int, Seq]]
) -> CenterSolution:
    """The first (cost, center) candidate of minimum cost, in enumeration order."""
    _, center = min(candidates, key=lambda c: c[0])
    radius, offsets = cost_substring(inst, center)
    return CenterSolution(center, radius, offsets)


def _trivial_costs(inst: SubstringInstance, strings: Sequence[int]) -> Iterator[tuple[int, Seq]]:
    """Every window of the given strings as a center, with its radius."""
    l = inst.window
    for i in strings:
        s = inst.strings[i]
        for off in range(len(s) - l + 1):
            center = s.window(off, l)
            yield cost_substring(inst, center)[0], center


def _agreed_tuples(
    inst: SubstringInstance, r: int, y_budget: int
) -> list[tuple[Seq, PositionSet]]:
    """(anchor, agreement set Q) of every window tuple, in enumeration order.

    Raises BudgetExceeded at the first tuple whose k^|P| patches exceed
    y_budget, so an overrun surfaces before any sweep runs.
    """
    k = inst.alphabet.size
    agreed = []
    for wt in enumerate_window_tuples(inst, r):
        q = agreement_positions(wt.windows)
        free = q.frame - len(q)
        if k ** free > y_budget:
            raise BudgetExceeded(f"|P|={free} needs {k}^{free} patches, over budget {y_budget}")
        agreed.append((wt.anchor, q))
    return agreed


def _swept_centers(
    inst: SubstringInstance, agreed: list[tuple[Seq, PositionSet]]
) -> Iterator[tuple[int, Seq]]:
    """Per window tuple, the best center that keeps the anchor on Q.

    Every window of every string is one row of the shared patch sweep,
    restricted to P and charged its distance to the anchor on Q; a
    string's rows form one group, so the sweep scores a patch by max over
    strings of min over windows, the candidate's substring radius.
    """
    k = inst.alphabet.size
    wins = np.concatenate(inst.windows)
    starts = np.cumsum([0] + [len(w) for w in inst.windows[:-1]])
    for anchor, q in agreed:
        p = q.complement()
        q_idx = np.array(q.positions, dtype=np.intp)
        p_idx = np.array(p.positions, dtype=np.intp)
        fixed = (wins[:, q_idx] != anchor.arr[q_idx]).sum(axis=1)
        cost, patch = sweep_patches(wins[:, p_idx], fixed, k, starts)
        yield cost, compose(anchor, Seq(inst.alphabet, patch), p)


def solve_small_substring(
    inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()
) -> CenterSolution:
    """Exhaustive-patch substring solver, ratio at most 1 + 1/(2r-1).

    Intended for small optimal radius, where the free-position sets stay
    logarithmic; if any window tuple's patch count exceeds cfg.y_budget
    it raises BudgetExceeded before sweeping anything.
    """
    agreed = _agreed_tuples(inst, cfg.r, cfg.y_budget)
    return _best_solution(
        inst,
        itertools.chain(_trivial_costs(inst, range(inst.n)), _swept_centers(inst, agreed)),
    )


def sample_size(epsilon: float, n: int, m: int) -> int:
    """Number of random positions to draw: ceil((4/eps^2) * ln(n*m)).

    Natural log, matching the exp(-eps^2|R|/2) tail the size must defeat.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must be in (0, 1]")
    if n < 1 or m < 1:
        raise DomainError("n and m must be >= 1")
    return math.ceil(4.0 / (epsilon * epsilon) * math.log(n * m))


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
    """Multiset of `size` positions drawn with replacement from p; when the
    requested size reaches |p| (or is 0), fall back to exhaustive p."""
    if size <= 0 or size >= len(p):
        return PositionSet(p.positions, p.frame, multiset=True)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(p), size=size)
    drawn = sorted(p.positions[i] for i in idx)
    return PositionSet(tuple(drawn), p.frame, multiset=True)


def _min_feasible_epsilon(n: int, m: int, k: int, y_budget: int) -> float:
    """Smallest epsilon whose sample fits the y enumeration budget."""
    max_r = max(1, math.floor(math.log(y_budget) / math.log(k)))
    return math.sqrt(4.0 * math.log(n * m) / max_r)


def _sampled_centers(
    inst: SubstringInstance, cfg: SubstringConfig, enum_budget: int
) -> Iterator[tuple[int, Seq]]:
    """Per window tuple and center guess y, the restricted solve's center."""
    k = inst.alphabet.size
    n = inst.n
    m_max = max(len(s) for s in inst.strings)
    r_formula = sample_size(cfg.epsilon, n, m_max)
    # the LP stage must stay within error epsilon*|P| overall
    rounding = replace(cfg.rounding, epsilon_prime=cfg.epsilon)

    for wt in enumerate_window_tuples(inst, cfg.r):
        q = agreement_positions(wt.windows)
        p = q.complement()
        r_sample = _draw_sample(p, r_formula, derive_seed(cfg.rng_seed, "sample", wt.picks))
        if k ** len(r_sample) > cfg.y_budget:
            eps_min = _min_feasible_epsilon(n, m_max, k, cfg.y_budget)
            raise BudgetExceeded(
                f"|R|={len(r_sample)} needs {k}^{len(r_sample)} guesses, over budget "
                f"{cfg.y_budget}; epsilon >= {eps_min:.4f} would fit"
            )
        anchor_q = restrict(wt.anchor, q)
        memo: dict[tuple[bytes, ...], Seq] = {}
        for y_digits in itertools.product(range(k), repeat=len(r_sample)):
            y = Seq(inst.alphabet, y_digits)
            selected = select_windows(inst, y, r_sample, anchor_q, q)
            key = tuple(t.data for t in selected)
            center = memo.get(key)
            if center is None:
                sub_inst = StringInstance(inst.alphabet, tuple(selected))
                problem = build_restricted(sub_inst, wt.anchor, q)
                # the seed token keeps the repr of index tuples
                seed = derive_seed(cfg.rng_seed, "round", wt.picks, tuple(map(tuple, key)))
                center, _ = solve_restricted(
                    problem, replace(rounding, rng_seed=seed), enum_budget=enum_budget
                )
                memo[key] = center
            yield cost_substring(inst, center)[0], center


def solve_closest_substring(
    inst: SubstringInstance,
    cfg: SubstringConfig = SubstringConfig(),
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> CenterSolution:
    """Sampling-based substring solver, ratio 1 + 1/(2r-1) + 3*epsilon*r
    with high probability.

    For every window tuple, a position multiset R is drawn once from the
    free positions (seeded per tuple); every center guess y on R selects
    one window per string, and the restricted LP pipeline (solved within
    error epsilon*|P|) produces a candidate center.  All windows of the
    first string are also tried directly.
    """
    return _best_solution(
        inst,
        itertools.chain(_trivial_costs(inst, [0]), _sampled_centers(inst, cfg, enum_budget)),
    )


def best_trivial_radius(inst: SubstringInstance) -> int:
    """Radius of the best input window used directly as the center."""
    return min(cost for cost, _ in _trivial_costs(inst, range(inst.n)))


def solve_substring(
    inst: SubstringInstance,
    cfg: SubstringConfig = SubstringConfig(),
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> CenterSolution:
    """Mode dispatcher: small_d, sampling, or the auto gate.

    Auto runs the exhaustive path when the best trivial candidate already
    certifies a radius at most log2 of the input size, the regime where
    that path is polynomial, and the sampling path otherwise.
    """
    if cfg.mode == "small_d":
        return solve_small_substring(inst, cfg)
    if cfg.mode == "sampling":
        return solve_closest_substring(inst, cfg, enum_budget=enum_budget)
    total_symbols = sum(len(s) for s in inst.strings)
    if best_trivial_radius(inst) <= math.log2(max(2, total_symbols)):
        return solve_small_substring(inst, cfg)
    return solve_closest_substring(inst, cfg, enum_budget=enum_budget)
