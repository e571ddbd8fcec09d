"""Closest Substring solvers.

`solve_substring` runs one solve path for every mode; the paper's two
algorithms, `solve_small_substring` and `solve_closest_substring`, are it
with the mode fixed to small_d or sampling.  Each window tuple either has
its free positions P solved exactly or has its center guessed on a random
position multiset R.  A tuple is swept (every patch over P, scored by the
patch-sweep kernel shared with the Closest String solver) when |P| is at
most the mode's sweep limit: L for small_d, |R| for sampling, and the
largest c with k^c <= y_budget for auto.  Otherwise every guess y on R
selects one window per input string by a scaled proxy score, and the
selected windows go to the restricted LP machinery, whose one rounding
rule is derandomized rounding with randomized rounding as its fallback.
The candidate of smallest (radius, enumeration index) wins, whatever
order the candidates are scored in.  The solution counts the guessed
tuples (`CenterSolution.guessed_tuples`), so it says itself which ratio
holds: the small_d one when none was guessed, the sampling one else.

Both run on the tuple's anchor row and boolean agreement mask Q, and a
candidate is a (radius, center row) pair.  A repeated candidate can never
win, as its first copy has a smaller index, so the pre-pass `_plan`
keeps one swept tuple per (Q, anchor on Q) pair, all a swept candidate
depends on.  It reads the tuples in array blocks, one per string subset
(the single windows all in one), and returns the kept swept tuples as
arrays, one row each (mask, anchor and enumeration index), grouped by
mask Q, with the guessed tuples as a list in enumeration order.  Swept
tuples with the same Q share P, so one sweep per mask scores all of its
anchors; a guessed tuple solves each distinct window selection once.

No candidate has radius below the instance bound: half the largest,
over string pairs, of the pair's smallest window-to-window distance,
rounded up (0 with one string).  For that pair (i, j) and a center's
nearest windows w_i and w_j, d(c, w_i) + d(c, w_j) is at least
d(w_i, w_j), so the larger of the two is at least the bound.  _plan
reads it off the agreement counts of its pair blocks.  The swept masks,
by ascending first index, and then the guessed tuples stop at the first
whose (instance bound, first index) is above the best (radius, index) so
far, and the rows of a mask, ascending too, stop at the same test.  The
stop is exact: the bound is at most every radius, the best only falls
and the indices past the stop only rise, so no later candidate could
win; centers, radii and witnesses are those of scoring every tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, NamedTuple

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
# (tuple x L) mask cells of one _plan block or of the swept tuples it piles
# up between deduplications: memory stays flat in the number of tuples
_TUPLE_CELLS = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class SubstringConfig:
    """Knobs of the substring solvers.  The LP stage of a guessed tuple
    rounds by `lp_round.solve_restricted`'s one rule at epsilon' = epsilon;
    its randomized fallback makes `trials` attempts, with seeds derived
    from rng_seed."""

    r: int = 2
    epsilon: float = 1.0
    trials: int = 32
    y_budget: int = 1 << 16
    mode: str = "auto"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.r < 2:
            raise DomainError("subset size r must be >= 2")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError("epsilon must be in (0, 1]")
        RoundingConfig(trials=self.trials)  # raises with its message
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


class SweptTuples(NamedTuple):
    """The swept tuples a plan keeps, one row each, grouped by agreement
    mask: group g is rows edges[g]:edges[g + 1], the groups in first-seen
    order of their masks, so each group's first index is strictly above
    the previous group's, and each group's rows in enumeration order."""

    masks: np.ndarray  # (T, L) bool: each tuple's agreement mask Q
    anchors: np.ndarray  # (T, L) uint8: each tuple's anchor window
    indices: np.ndarray  # (T,) int64: each tuple's enumeration index
    edges: list[int]  # G + 1 group bounds


Guessed = list[tuple[int, Picks, np.ndarray, np.ndarray]]


def _plan(inst: SubstringInstance, cfg: SubstringConfig, size: int) -> tuple[SweptTuples, Guessed, int]:
    """The pre-pass over the window tuples, each named by its enumeration
    index and read as its anchor row and boolean agreement mask on_q (the
    positions Q where every picked window equals the anchor), for the
    sample size |R| = size.

    Returns the swept tuples as SweptTuples, compact (T, L) masks and
    anchors and (T,) enumeration indices: the first tuple of each
    (Q, anchor on Q) pair, all that a swept candidate depends on, grouped
    by mask, masks in first-seen order.  The guessed tuples as
    (index, picks, anchor, on_q), in enumeration order, with picks of
    Python ints, as the per-tuple seeds hash their repr.  And the instance
    bound (see the module docstring): a pair block's agreement counts are
    L minus its window-to-window distances, so each string pair's
    smallest distance is L minus the largest count of its blocks.

    A tuple is swept over its k^|P| patches when its free-position count
    |P| is at most cfg.mode's sweep limit: L for small_d (every tuple), the
    sample size |R| for sampling, and the largest c with k^c <= y_budget
    for auto.  Any other tuple makes k^|R| center guesses on R.  Raises
    BudgetExceeded at the first tuple whose count exceeds y_budget, so an
    overrun surfaces before any sweep, window selection or LP runs; outside
    small_d the message ends with how to make every tuple fit.

    The tuples are read in array blocks: all single windows, then one
    block per string subset, split by anchor offset where a block would
    pass _TUPLE_CELLS mask cells.  One broadcast compare per other string
    of the subset gives every mask of the block, and a lookup of each
    mask's size in a per-|Q| table finds its first tuple over budget.  One
    _first_distinct_rows pass over the swept tuples keeps the first of
    each (Q, anchor on Q) pair; it also runs whenever _TUPLE_CELLS mask
    cells of new swept tuples have piled up, so memory follows the
    distinct pairs, not the tuples.  A stable sort on the first kept row
    of each mask groups the rows.
    """
    k = inst.alphabet.size
    l = inst.window
    fits = _max_exponent(k, cfg.y_budget)  # the largest count c with k^c <= y_budget
    # every |P| is at most L, so the cap decides nothing; it keeps a huge |R| out of numpy
    limit = min(l, {"small_d": l, "sampling": size, "auto": fits}[cfg.mode])
    counts = [len(w) for w in inst.windows]
    # per |Q| = 0..L, whether a tuple agreeing on that many positions is over budget
    p_sizes = l - np.arange(l + 1)
    over_at = np.where(p_sizes <= limit, p_sizes > fits, size > fits)
    # a single window agrees with itself everywhere, so the single-window
    # tuples, first in enumeration order, form one block, all swept at
    # |P| = 0: one block per string took a substring_sampling plan from
    # about 150 to 190 us
    wins = np.concatenate(inst.windows)
    parts = [(np.ones(wins.shape, dtype=bool), wins, np.arange(len(wins)))]  # (masks, anchors, indices)
    fresh = len(wins)  # swept tuples piled up since the last deduplication
    start = len(wins)  # the enumeration index of the next block's first tuple
    guessed: Guessed = []
    gap = 0  # the largest, over string pairs, of the pair's smallest window distance
    for width in range(2, min(cfg.r, inst.n) + 1):
        for subset in itertools.combinations(range(inst.n), width):
            first, *rest = subset
            most = 0  # the most positions any window pair of this string pair agrees on
            per_anchor = math.prod(counts[j] for j in rest)
            step = max(1, _TUPLE_CELLS // (per_anchor * l))
            for o in range(0, counts[first], step):
                anchor = inst.windows[first][o:o + step]
                on_q = np.ones((len(anchor), 1, l), dtype=bool)
                for j in rest:
                    agree = anchor[:, None, :] == inst.windows[j]
                    on_q = (on_q[:, :, None, :] & agree[:, None, :, :]).reshape(len(anchor), -1, l)
                on_q = on_q.reshape(-1, l)
                agreed = on_q.sum(axis=1)
                if width == 2:
                    most = max(most, int(agreed.max()))
                over = np.flatnonzero(over_at[agreed])
                if len(over):
                    p_size = l - int(agreed[over[0]])
                    if p_size <= limit:
                        work = f"|P|={p_size} needs {k}^{p_size} patches"
                    else:
                        work = f"|R|={size} needs {k}^{size} guesses"
                    hint = "" if cfg.mode == "small_d" else "; " + _budget_hint(inst, cfg.y_budget, cfg.epsilon)
                    raise BudgetExceeded(f"{work}, over budget {cfg.y_budget}{hint}")
                sweep = agreed >= l - limit
                rows = np.flatnonzero(sweep)
                parts.append((on_q[rows], anchor[rows // per_anchor], start + rows))
                fresh += len(rows)
                if fresh * l > _TUPLE_CELLS:
                    # memory follows the distinct pairs, not the tuples
                    parts, fresh = [_first_of_each_key(parts, k)], 0
                if len(rows) < len(on_q):
                    lost = np.flatnonzero(~sweep)
                    offsets = np.stack(np.unravel_index(lost, [len(anchor)] + [counts[j] for j in rest]), axis=1)
                    offsets[:, 0] += o
                    for index, picked, a, q in zip(
                        (start + lost).tolist(), offsets.tolist(), anchor[lost // per_anchor], on_q[lost]
                    ):
                        guessed.append((index, tuple(zip(subset, picked)), a, q))
                start += len(on_q)
            if width == 2:
                gap = max(gap, l - most)
    masks, anchors, indices = _first_of_each_key(parts, k)
    _, seen, mask_of = np.unique(_row_keys(masks, [2] * l), return_index=True, return_inverse=True)
    first_seen = seen[mask_of]  # per tuple, the first tuple with its mask
    order = np.argsort(first_seen, kind="stable")
    cuts = np.flatnonzero(np.diff(first_seen[order])) + 1
    swept = SweptTuples(masks[order], anchors[order], indices[order], [0, *cuts.tolist(), len(order)])
    return swept, guessed, (gap + 1) // 2


def _first_of_each_key(parts: list, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (masks, anchors, indices) of parts, swept tuples in enumeration
    order, concatenated, keeping each (Q, anchor on Q) pair's first tuple:
    each row keyed as its anchor's letter + 1 on Q and 0 off it."""
    masks, anchors, indices = map(np.concatenate, zip(*parts))
    letters = np.where(masks, anchors + np.int16(1), 0)
    first = _first_distinct_rows(letters, [k + 1] * masks.shape[1])
    return masks[first], anchors[first], indices[first]


def sample_size(epsilon: float, n: int, m: int) -> int:
    """Number of random positions to draw: ceil((4/eps^2) * ln(n*m)).

    Natural log, matching the exp(-eps^2|R|/2) tail the size must defeat.
    Where the float expression is not finite (eps below about 1e-154) the
    size is computed exactly in fractions: a huge int, or 0 at n*m = 1.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("epsilon must be in (0, 1]")
    if n < 1 or m < 1:
        raise DomainError("n and m must be >= 1")
    log_nm = math.log(n * m)
    size = 4.0 / (epsilon * epsilon) * log_nm if epsilon * epsilon else math.inf
    if math.isfinite(size):
        return math.ceil(size)
    return math.ceil(4 / Fraction(epsilon) ** 2 * Fraction(log_nm))


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


def _row_keys(rows: np.ndarray, counts: list[int]) -> np.ndarray:
    """One int64 per row of the (g, c) integer array rows, whose column i
    ranges over counts[i] values, equal exactly where the rows are.

    Each row is keyed in mixed radix, column by column; the keys are
    re-ranked densely whenever the next column could overflow them, so
    distinct rows keep distinct keys.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1  # every key is below span
    for column, count in zip(rows.T, counts):
        if span > _INT64_MAX // count:
            ranks, key = np.unique(key, return_inverse=True)
            span = len(ranks)
        key = key * count + column
        span *= count
    return key


def _first_distinct_rows(rows: np.ndarray, counts: list[int]) -> np.ndarray:
    """Sorted indices of the first occurrence of each distinct row of the
    (g, c) integer array rows, whose column i ranges over counts[i] values.
    np.unique(rows, axis=0, return_index=True) gives the same indices but
    took 9-13x as long on guess offsets of 6,561 and 16,384 rows."""
    return np.sort(np.unique(_row_keys(rows, counts), return_index=True)[1])


def _q_costs(wins_t: np.ndarray, on_q: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """(t, W) int32: each of the (t, L) anchors' mismatches with each window
    on the shared (L,) agreement mask on_q, a sweep's seed rows.  The
    windows come position-major, as the (L, W) wins_t, so the compares run
    along the windows: on (T, W, L) they took 3-4x as long at L = 6 and 8."""
    return ((anchors[:, :, None] != wins_t) & on_q[:, None]).sum(axis=1, dtype=np.int32)


def solve_substring(inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()) -> CenterSolution:
    """The substring solver: the candidate of smallest (radius, enumeration
    index) over the window tuples, each swept or guessed under cfg.mode's
    sweep limit (see _plan).

    A swept tuple's center keeps the anchor on Q.  Every window of every
    string is one row of the shared patch sweep, restricted to P and
    charged its distance to the anchor on Q; a string's rows form one
    group, so the sweep scores a patch by max over strings of min over
    windows, the candidate's substring radius.  One sweep per mask Q
    scores all of its swept tuples' anchors, one seed row each.

    A guessed tuple draws R from P (seeded per tuple).  Its selections are
    keyed by window contents; each new one is solved as the StringInstance
    of its selected windows, whose restricted problem keeps the anchor on
    Q, and its center is scored on every window like a swept one.  The
    selections share their tuple's index, so the first of them wins a tie.

    small_d sweeps every tuple, ratio 1 + 1/(2r-1); sampling sweeps the
    tuples with |P| <= |R| and guesses the others on R, ratio
    1 + 1/(2r-1) + 3*epsilon*r with high probability.  Auto sweeps every
    tuple whose k^|P| patches fit cfg.y_budget and guesses the others as
    sampling does, so its ratio is the small_d bound whenever every tuple
    is swept, and the sampling bound otherwise.  The solution's
    guessed_tuples says which: it counts the tuples the plan guesses,
    whether skipped or not.

    The swept masks, their rows and then the guessed tuples stop at the
    instance bound (see the module docstring); the output is unchanged,
    and a guessed tuple past the stop runs no LP.
    """
    size = _sample_size_of(inst, cfg.epsilon)
    swept, guessed, instance_bound = _plan(inst, cfg, size)
    k = inst.alphabet.size
    wins = np.concatenate(inst.windows)
    counts = [len(w) for w in inst.windows]
    starts = np.cumsum([0] + counts[:-1])
    wins_t = np.ascontiguousarray(wins.T)
    best = (math.inf, 0, None)  # (radius, enumeration index, center row)
    edges = swept.edges
    for b, e in zip(edges, edges[1:]):
        # stop at the first mask whose (instance bound, first index) is above
        # the best (radius, index): sweeps per solve go from 53.6 to 3.2 on
        # substring_small_d and from 10.4 to 2.1 on substring_sampling
        if (instance_bound, swept.indices[b]) > best[:2]:
            break
        if best[0] == instance_bound:
            # and cut the mask's rows, which ascend, at the same test: planted
            # DNA 20x100, L = 8 then sweeps 2,148 seed rows, not 2,945, in
            # 1.2 s instead of 3.0 s
            e = b + int(np.searchsorted(swept.indices[b:e], best[1]))
        on_q, indices = swept.masks[b], swept.indices[b:e]
        centers = swept.anchors[b:e].copy()
        costs, centers[:, ~on_q] = sweep_patches(wins[:, ~on_q], _q_costs(wins_t, on_q, centers), k, starts)
        a = int(np.argmin(costs))  # indices ascend, so this is the group's minimum
        radius = int(costs[a])
        if (radius, indices[a]) < best[:2]:
            best = (radius, int(indices[a]), centers[a])

    # the LP stage must stay within error epsilon*|P| overall
    rounding = RoundingConfig(trials=cfg.trials, epsilon_prime=cfg.epsilon)
    for index, picks, anchor, on_q in guessed:
        # the same stop: no benchmark workload guesses, but on three copies
        # of 01x9 at L = 17 all six guessed tuples go, and 0.68 s becomes 1 ms
        if (instance_bound, index) > best[:2]:
            break
        free = np.flatnonzero(~on_q)
        rng = np.random.default_rng(derive_seed(cfg.rng_seed, "sample", picks))
        r_idx = np.sort(free[rng.integers(0, len(free), size=size)])
        seen: set[bytes] = set()
        for ys in _guesses(k, size):
            offsets = select_windows(inst, ys, r_idx, anchor, on_q)
            for row in offsets[_first_distinct_rows(offsets, counts)]:
                selected = wins[starts + row]
                key = selected.tobytes()  # windows of one length L: unambiguous
                if key in seen:
                    continue
                seen.add(key)
                problem = build_restricted(StringInstance(inst.alphabet, selected), anchor, on_q)
                # the seed token keeps the repr of index tuples
                seed = derive_seed(cfg.rng_seed, "round", picks, tuple(map(tuple, selected.tolist())))
                center, _ = solve_restricted(problem, replace(rounding, rng_seed=seed))
                radius = int(np.minimum.reduceat((wins != center).sum(axis=1), starts).max())
                if (radius, index) < best[:2]:
                    best = (radius, index, center)

    center = Seq(inst.alphabet, best[2].tobytes())
    radius, offsets = cost_substring(inst, center)
    return CenterSolution(center, radius, offsets, len(guessed))


def solve_small_substring(
    inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()
) -> CenterSolution:
    """solve_substring in small_d mode, ratio at most 1 + 1/(2r-1).

    Sweeps every window tuple.  Intended for small optimal radius, where
    the free-position sets stay logarithmic; if any window tuple's patch
    count exceeds cfg.y_budget it raises BudgetExceeded before sweeping
    anything.
    """
    return solve_substring(inst, replace(cfg, mode="small_d"))


def solve_closest_substring(
    inst: SubstringInstance, cfg: SubstringConfig = SubstringConfig()
) -> CenterSolution:
    """solve_substring in sampling mode, ratio 1 + 1/(2r-1) + 3*epsilon*r
    with high probability.

    A tuple whose free positions P number at most the sample size
    |R| = sample_size(epsilon, n, m) is swept exactly (ratio
    1 + 1/(2r-1)): every center guess on R would be a whole patch.  Any
    other tuple draws R once from P (seeded per tuple); every guess y on
    R selects one window per string, and each distinct selection goes
    once through the restricted LP pipeline (solved within error
    epsilon*|P|).  cfg.y_budget caps the patches swept or the guesses
    made per tuple; an overrun raises BudgetExceeded before any tuple is
    solved.
    """
    return solve_substring(inst, replace(cfg, mode="sampling"))
