"""Closest Substring solvers.

Two pipelines share the window-tuple enumeration and the per-tuple
patch sweep: the small-radius path sweeps every patch over each tuple's
free positions P with the patch-sweep kernel it shares with the Closest
String solver.  The sampling path sweeps the tuples whose sample R would
cover P; for the others it guesses the center on a random position
multiset R, selects one window per input string by a scaled proxy score,
and hands the selected windows to the restricted LP machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

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
    inst: SubstringInstance, r: int, y_budget: int, epsilon: float | None = None
) -> list[tuple[tuple[tuple[int, int], ...], Seq, PositionSet]]:
    """(picks, anchor, agreement set Q) of every window tuple, in enumeration order.

    A tuple enumerates k^|P| patches; on the sampling path (`epsilon`
    given) it enumerates k^min(|P|, |R|), the guesses on R or, when R
    covers P, the patches swept.  Raises BudgetExceeded at the first tuple
    whose count exceeds y_budget, so an overrun surfaces before any sweep,
    window selection or LP runs.
    """
    k = inst.alphabet.size
    # |P| <= L, so L caps nothing on the small_d path
    size = inst.window if epsilon is None else _sample_size_of(inst, epsilon)
    agreed = []
    for wt in enumerate_window_tuples(inst, r):
        q = agreement_positions(wt.windows)
        count = min(q.frame - len(q), size)
        if k ** count > y_budget:
            if epsilon is None:
                raise BudgetExceeded(f"|P|={count} needs {k}^{count} patches, over budget {y_budget}")
            raise BudgetExceeded(
                f"|R|={count} needs {k}^{count} guesses, over budget {y_budget}; "
                + _budget_hint(inst, y_budget, epsilon)
            )
        agreed.append((wt.picks, wt.anchor, q))
    return agreed


def _tuple_sweeper(inst: SubstringInstance) -> Callable[[Seq, PositionSet], tuple[int, Seq]]:
    """The per-tuple patch sweep, with the window rows built once per solve.

    The returned function gives a window tuple's best center that keeps
    the anchor on Q, with its radius.  Every window of every string is one
    row of the shared patch sweep, restricted to P and charged its
    distance to the anchor on Q; a string's rows form one group, so the
    sweep scores a patch by max over strings of min over windows, the
    candidate's substring radius.
    """
    k = inst.alphabet.size
    wins = np.concatenate(inst.windows)
    starts = np.cumsum([0] + [len(w) for w in inst.windows[:-1]])

    def sweep(anchor: Seq, q: PositionSet) -> tuple[int, Seq]:
        on_q = np.zeros(q.frame, dtype=bool)
        on_q[list(q.positions)] = True
        on_p = ~on_q
        fixed = (wins[:, on_q] != anchor.arr[on_q]).sum(axis=1)
        cost, patch = sweep_patches(wins[:, on_p], fixed, k, starts)
        center = anchor.arr.copy()
        center[on_p] = patch
        return cost, Seq(inst.alphabet, center.tobytes())

    return sweep


def solve_small_substring(
    inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()
) -> CenterSolution:
    """Exhaustive-patch substring solver, ratio at most 1 + 1/(2r-1).

    Intended for small optimal radius, where the free-position sets stay
    logarithmic; if any window tuple's patch count exceeds cfg.y_budget
    it raises BudgetExceeded before sweeping anything.
    """
    agreed = _agreed_tuples(inst, cfg.r, cfg.y_budget)
    sweep = _tuple_sweeper(inst)
    return _best_solution(
        inst,
        itertools.chain(
            _trivial_costs(inst, range(inst.n)),
            (sweep(anchor, q) for _, anchor, q in agreed),
        ),
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

    Only tuples whose sample does not cover P draw one (0 < size < |p|);
    a covered tuple is swept instead.
    """
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(p), size=size)
    drawn = sorted(p.positions[i] for i in idx)
    return PositionSet(tuple(drawn), p.frame, multiset=True)


def _budget_hint(inst: SubstringInstance, y_budget: int, epsilon: float) -> str:
    """How to make every tuple fit y_budget on the sampling path: the
    smallest epsilon in (0, 1] whose sample fits, or, when none does, the
    budget that fits at this epsilon (k^min(|R|, L), as |P| <= L)."""
    k = inst.alphabet.size
    max_r = 0
    while k ** (max_r + 1) <= y_budget:
        max_r += 1
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


def _sampled_centers(
    inst: SubstringInstance,
    cfg: SubstringConfig,
    enum_budget: int,
    agreed: list[tuple[tuple[tuple[int, int], ...], Seq, PositionSet]],
) -> Iterator[tuple[int, Seq]]:
    """Per window tuple, the swept center when the sample covers P, and
    otherwise the restricted solve's center for every guess y on R."""
    k = inst.alphabet.size
    r_formula = _sample_size_of(inst, cfg.epsilon)
    sweep = _tuple_sweeper(inst)
    # the LP stage must stay within error epsilon*|P| overall
    rounding = replace(cfg.rounding, epsilon_prime=cfg.epsilon)

    for picks, anchor, q in agreed:
        if q.frame - len(q) <= r_formula:
            # R would be all of P, so every guess is a whole patch composed
            # into the anchor: the sweep's best is at least as good as them all
            yield sweep(anchor, q)
            continue
        p = q.complement()
        r_sample = _draw_sample(p, r_formula, derive_seed(cfg.rng_seed, "sample", picks))
        anchor_q = restrict(anchor, q)
        memo: dict[tuple[bytes, ...], Seq] = {}
        for y_digits in itertools.product(range(k), repeat=len(r_sample)):
            y = Seq(inst.alphabet, y_digits)
            selected = select_windows(inst, y, r_sample, anchor_q, q)
            key = tuple(t.data for t in selected)
            center = memo.get(key)
            if center is None:
                sub_inst = StringInstance(inst.alphabet, tuple(selected))
                problem = build_restricted(sub_inst, anchor, q)
                # the seed token keeps the repr of index tuples
                seed = derive_seed(cfg.rng_seed, "round", picks, tuple(map(tuple, key)))
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

    For every window tuple the sample size |R| = sample_size(epsilon, n, m)
    is compared with the free positions P.  When |R| >= |P| the sample
    would be all of P, so every center guess is a whole patch; the tuple
    is then swept exactly (the small_d sweep, ratio 1 + 1/(2r-1)), which
    is at least as good as every guess together.  Otherwise R is drawn
    once from P (seeded per tuple); every center guess y on R selects one
    window per string, and the restricted LP pipeline (solved within error
    epsilon*|P|) produces a candidate center.  All windows of the first
    string are also tried directly.  cfg.y_budget caps the patches swept
    or the guesses made per tuple; an overrun raises BudgetExceeded before
    any tuple is solved.
    """
    agreed = _agreed_tuples(inst, cfg.r, cfg.y_budget, cfg.epsilon)
    return _best_solution(
        inst,
        itertools.chain(
            _trivial_costs(inst, [0]), _sampled_centers(inst, cfg, enum_budget, agreed)
        ),
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
