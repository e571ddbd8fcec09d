"""Substring solvers: sample sizing, window selection, both pipelines."""

import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerstring import (
    BINARY,
    Alphabet,
    RoundingConfig,
    Seq,
    StringInstance,
    SubstringConfig,
    SubstringInstance,
    agreement_positions,
    build_restricted,
    cost_substring,
    enumerate_window_tuples,
    exact_closest_substring,
    generate_planted,
    sample_size,
    select_windows,
    solve_closest_substring,
    solve_restricted,
    solve_small_substring,
    solve_substring,
)
from centerstring import closest_substring, lp_round
from centerstring._seeds import derive_seed
from centerstring.errors import BudgetExceeded, DomainError, LengthMismatch


def bsub(texts, window):
    return SubstringInstance.from_texts(BINARY, texts, window)


def bseq(text):
    return Seq.from_text(BINARY, text)


def window(inst, i, off):
    """String i's window at offset off, as a Seq."""
    return Seq(inst.alphabet, inst.strings[i][off:off + inst.window])


def dist(a, b):
    """Hamming distance of two equal-length Seqs."""
    return int((a.arr != b.arr).sum())


def best_trivial_radius(inst):
    """Radius of the best input window used directly as the center."""
    l = inst.window
    return min(
        cost_substring(inst, window(inst, i, off))[0]
        for i, s in enumerate(inst.strings)
        for off in range(len(s) - l + 1)
    )


class TestSampleSize:
    def test_paper_formula_values(self):
        assert sample_size(1.0, 10, 10) == 19
        assert sample_size(0.5, 3, 8) == 51
        assert sample_size(1.0, 1, 1) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_size(0.0, 3, 3)
        with pytest.raises(DomainError):
            sample_size(2.0, 3, 3)
        with pytest.raises(DomainError, match="n and m must be >= 1"):
            sample_size(1.0, 0, 5)

    def test_tiny_epsilon_is_exact(self):
        # the float formula holds wherever it is finite; below about 1e-154
        # 4/eps^2 overflows, and below about 1.5e-162 eps^2 underflows to 0
        assert sample_size(1e-150, 3, 7) == math.ceil(4.0 / (1e-150 * 1e-150) * math.log(21))
        for eps in (1e-154, 1e-160, 1e-200, 5e-324):
            assert sample_size(eps, 3, 7) == math.ceil(4 / Fraction(eps) ** 2 * Fraction(math.log(21)))
            assert sample_size(eps, 1, 1) == 0

    def test_tiny_epsilon_solves(self):
        # every tuple fits |R|, so sampling sweeps them all, as small_d does;
        # auto guesses the tuple whose patches exceed the budget, and its
        # 2^|R| guesses cannot fit
        inst = bsub(["0101100111", "1101001110", "0111001101"], 8)
        small = solve_small_substring(inst, SubstringConfig(r=2, y_budget=1 << 8))
        for eps in (1e-154, 1e-200):
            cfg = SubstringConfig(r=2, epsilon=eps, y_budget=1 << 8)
            assert solve_closest_substring(inst, cfg) == small
            with pytest.raises(BudgetExceeded, match=f"at epsilon {eps}$"):
                solve_substring(inst, replace(cfg, y_budget=4))


class TestSubstringConfig:
    def test_rounding_fields_validated_at_construction(self):
        with pytest.raises(DomainError, match="trials must be >= 1"):
            SubstringConfig(trials=0)
        SubstringConfig(trials=1)  # no raise
        # the LP stage rounds by the one rule: no field chooses a rounding
        with pytest.raises(TypeError, match="rounding_mode"):
            SubstringConfig(rounding_mode="auto")

    @pytest.mark.parametrize("kwargs, message", [
        ({"r": 1}, "subset size r must be >= 2"),
        ({"epsilon": 0.0}, "epsilon must be in"),
        ({"epsilon": 1.5}, "epsilon must be in"),
        ({"y_budget": 0}, "y_budget must be >= 1"),
        ({"mode": "bogus"}, "mode must be one of"),
    ], ids=["r", "epsilon-0", "epsilon-1.5", "y-budget", "mode"])
    def test_own_fields_validated_at_construction(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            SubstringConfig(**kwargs)


class TestWindowTuples:
    def test_single_string(self):
        inst = bsub(["0101"], 2)
        tuples = list(enumerate_window_tuples(inst, 2))
        # only support size 1 is possible: three windows
        assert tuples == [((0, 0),), ((0, 1),), ((0, 2),)]

    def test_repeat_rule(self):
        inst = bsub(["01", "10"], 2)
        picks = list(enumerate_window_tuples(inst, 2))
        # supports of size 1 (a window repeated r times) and size 2
        assert ((0, 0),) in picks and ((1, 0),) in picks
        assert ((0, 0), (1, 0)) in picks
        # never two different offsets from one string
        for p in picks:
            strings = [i for i, _ in p]
            assert len(strings) == len(set(strings))


class TestSmallSubstring:
    def test_planted_pair(self):
        a = Alphabet.of("AB")
        inst = SubstringInstance.from_texts(a, ["AAAA", "AABA"], 3)
        sol = solve_small_substring(inst, SubstringConfig(r=2))
        assert sol.radius == 1

    def test_single_string_trivial(self):
        a = Alphabet.of("XY")
        inst = SubstringInstance.from_texts(a, ["XY"], 1)
        sol = solve_small_substring(inst, SubstringConfig(r=2))
        assert sol.radius == 0

    def test_opposed_pair(self):
        sol = solve_small_substring(bsub(["0000", "1111"], 2), SubstringConfig(r=2))
        assert sol.radius == 1

    def test_budget_exceeded_reports_p(self):
        inst = bsub(["01010101010101010101", "10101010101010101010"], 20)
        with pytest.raises(BudgetExceeded, match=r"\|P\|"):
            solve_small_substring(inst, SubstringConfig(r=2, y_budget=4))

    def test_budget_checked_before_any_sweep(self, monkeypatch):
        # the support-1 tuples (|P| = 0) come first and fit any budget; the
        # pair tuple with |P| = 20 must still be refused before they are swept
        calls = []
        sweep = closest_substring.sweep_patches

        def counting_sweep(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(closest_substring, "sweep_patches", counting_sweep)
        inst = bsub(["01010101010101010101", "10101010101010101010"], 20)
        with pytest.raises(BudgetExceeded, match=r"\|P\|=20"):
            solve_small_substring(inst, SubstringConfig(r=2, y_budget=4))
        assert calls == []
        solve_small_substring(inst, SubstringConfig(r=2, y_budget=1 << 20))
        # two single windows and the pair, in one sweep per mask: the
        # single windows share the full mask
        assert swept_rows(calls) == 3
        assert len(calls) == 2

    def test_oracle_sandwich(self):
        for seed in range(15):
            inst, _ = generate_planted("01", 3, 8, 5, seed % 2, seed)
            opt = exact_closest_substring(inst).radius
            sol = solve_small_substring(inst, SubstringConfig(r=2))
            assert opt <= sol.radius
            assert 3 * sol.radius <= 4 * opt + 3  # within ceil((4/3) opt)

    def test_never_worse_than_trivial_candidates(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            texts = ["".join(str(int(v)) for v in rng.integers(0, 2, 7)) for _ in range(3)]
            inst = bsub(texts, 4)
            sol = solve_small_substring(inst, SubstringConfig(r=3))
            assert sol.radius <= best_trivial_radius(inst)


def picked_windows(inst, picks):
    """The windows a tuple's (string, offset) picks name, anchor first."""
    return [window(inst, i, off) for i, off in picks]


def reference_sweep(inst, anchor, pos):
    """Substring patch sweep with full-length candidates: every patch on
    the sorted free positions pos, in lexicographic order, composed into
    the anchor and scored against every window of every string.  Returns
    (all costs, first best center)."""
    k = inst.alphabet.size
    p = pos
    patches = np.array(list(itertools.product(range(k), repeat=len(p))), dtype=np.int16)
    cands = np.tile(np.array(list(anchor.data), dtype=np.int16), (len(patches), 1))
    cands[:, pos] = patches.reshape(len(patches), len(p))
    costs = np.zeros(len(cands), dtype=np.int64)
    for s in inst.strings:
        wins = np.array(
            [s[off:off + inst.window] for off in range(len(s) - inst.window + 1)], dtype=np.int16
        )
        mism = (cands[:, None, :] != wins[None, :, :]).sum(axis=2).min(axis=1)
        np.maximum(costs, mism, out=costs)
    best = int(np.argmin(costs))
    return costs, Seq(inst.alphabet, tuple(int(v) for v in cands[best]))


def reference_small_substring(inst, r):
    """solve_small_substring's center by plain loops over the reference sweep;
    also reports whether some tuple had |P| = 0 and whether some tuple's
    minimum was reached by more than one patch."""
    best = None
    for i, s in enumerate(inst.strings):
        for off in range(len(s) - inst.window + 1):
            center = window(inst, i, off)
            cost = cost_substring(inst, center)[0]
            if best is None or cost < best[0]:
                best = (cost, center)
    saw_empty_p = saw_tie = False
    for picks in enumerate_window_tuples(inst, r):
        windows = picked_windows(inst, picks)
        p = np.flatnonzero(~agreement_positions(windows))
        costs, center = reference_sweep(inst, windows[0], p)
        saw_empty_p |= len(p) == 0
        saw_tie |= int((costs == costs.min()).sum()) > 1
        if int(costs.min()) < best[0]:
            best = (int(costs.min()), center)
    return best[1], saw_empty_p, saw_tie


class TestSweepReference:
    def test_small_substring_matches_reference_sweep(self):
        rng = np.random.default_rng(71)
        saw_empty_p = saw_tie = False
        for symbols in ("01", "012", "ACGT"):
            alphabet = Alphabet.of(symbols)
            for trial in range(8):
                l = int(rng.integers(2, 5))
                n = int(rng.integers(2, 5))
                r = 2 + trial % 2
                texts = [
                    "".join(symbols[v] for v in rng.integers(0, len(symbols), l + int(rng.integers(0, 4))))
                    for _ in range(n)
                ]
                inst = SubstringInstance.from_texts(alphabet, texts, l)
                center, empty_p, tie = reference_small_substring(inst, r)
                sol = solve_small_substring(inst, SubstringConfig(r=r))
                assert sol.center == center, (symbols, texts, l, r)
                saw_empty_p |= empty_p
                saw_tie |= tie
        assert saw_empty_p and saw_tie


def reference_select_windows(inst, y, r_idx, anchor_q, q):
    """Per input string, the offset of the window minimizing
    d(y, w|_R) * |P|/|R| + d(anchor_q, w|_Q) for the one guess y, from Seq
    inputs, the sorted sample positions r_idx (repeats allowed) and the
    agreement mask q, scored in exact rational arithmetic; ties go to the
    smallest offset.  With an empty R the score reduces to the Q term
    alone."""
    if len(y) != len(r_idx):
        raise LengthMismatch(f"|y|={len(y)} vs |R|={len(r_idx)}")
    l = len(q)
    p_size = l - int(q.sum())
    r_size = len(r_idx)
    q_idx = np.flatnonzero(q)
    offsets = []
    for wins in inst.windows:
        d_q = (wins[:, q_idx] != anchor_q.arr).sum(axis=1)
        if r_size:
            d_r = (wins[:, r_idx] != y.arr).sum(axis=1)
            # compare d_r*|P|/|R| + d_q exactly via the |R|-scaled integers
            scores = d_r.astype(np.int64) * p_size + d_q.astype(np.int64) * r_size
        else:
            scores = d_q.astype(np.int64)
        offsets.append(int(np.argmin(scores)))
    return offsets


def windows_at(inst, offsets):
    """The window at each string's offset."""
    return [window(inst, i, int(off)) for i, off in enumerate(offsets)]


def one_guess(y, r_idx):
    """The guess y and sample positions R as select_windows' one-row ys and r_idx."""
    return y.arr[None, :], np.array(r_idx, dtype=np.intp)


class TestSelectWindows:
    def test_exhaustive_sample_is_exact_proxy(self):
        # with R = P and y the center's P-letters, the score equals the full
        # Hamming distance to the center, anchor_q on Q and y on P
        rng = np.random.default_rng(67)
        for _ in range(20):
            m = int(rng.integers(6, 12))
            l = int(rng.integers(3, min(7, m + 1)))
            texts = ["".join(str(int(v)) for v in rng.integers(0, 2, m)) for _ in range(3)]
            inst = bsub(texts, l)
            center = Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, l)))
            mask = rng.random(l) < 0.5
            p = np.flatnonzero(~mask)
            y = Seq(BINARY, center.arr[p])
            offsets = select_windows(inst, *one_guess(y, p), center.arr, mask)
            chosen = windows_at(inst, offsets[0])
            # anchor_q on Q and y on P spell the center itself
            target = center
            for i, (s, t) in enumerate(zip(inst.strings, chosen)):
                best = min(dist(target, window(inst, i, off)) for off in range(len(s) - l + 1))
                assert dist(target, t) == best

    def test_single_window_is_forced(self):
        inst = bsub(["01"], 2)
        ys, r_idx = one_guess(bseq("1"), [1])
        got = select_windows(inst, ys, r_idx, bseq("00").arr, np.array([True, False]))
        assert windows_at(inst, got[0])[0].text == "01"

    def test_hand_scored_example(self):
        a = Alphabet.of("AB")
        inst = SubstringInstance.from_texts(a, ["ABAB"], 2)
        ys, r_idx = one_guess(Seq.from_text(a, "A"), [0])
        got = select_windows(inst, ys, r_idx, Seq.from_text(a, "AB").arr, np.array([False, True]))
        # window "AB" at offset 0 scores 0, "BA" scores |P| + 1
        assert windows_at(inst, got[0])[0].text == "AB"

    def test_empty_sample_scores_q_only(self):
        inst = bsub(["0011"], 2)
        ys, r_idx = one_guess(bseq(""), [])
        got = select_windows(inst, ys, r_idx, bseq("11").arr, np.array([True, True]))
        assert windows_at(inst, got[0])[0].text == "11"

    def test_length_mismatch(self):
        inst = bsub(["01"], 2)
        ys, r_idx = one_guess(bseq("01"), [0])
        with pytest.raises(LengthMismatch):
            select_windows(inst, ys, r_idx, bseq("00").arr, np.array([False, False]))


@st.composite
def guess_blocks(draw):
    """A k = 2/3/4 instance with strings of unequal length, an anchor, an
    agreement mask (empty, full or mixed), a sample R drawn from the free
    positions with repeats (possibly empty), and a block of guess rows that
    repeats its first row."""
    symbols = draw(st.sampled_from(("01", "012", "ACGT")))
    k = len(symbols)
    l = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(l, l + 3), min_size=1, max_size=4))
    texts = ["".join(draw(st.lists(st.sampled_from(symbols), min_size=m, max_size=m))) for m in lengths]
    inst = SubstringInstance.from_texts(Alphabet.of(symbols), texts, l)
    anchor = np.array(draw(st.lists(st.integers(0, k - 1), min_size=l, max_size=l)), dtype=np.uint8)
    kind = draw(st.sampled_from(("empty", "full", "mixed")))
    if kind == "mixed":
        on_q = np.array(draw(st.lists(st.booleans(), min_size=l, max_size=l)))
    else:
        on_q = np.full(l, kind == "full")
    free = np.flatnonzero(~on_q).tolist()
    r = sorted(draw(st.lists(st.sampled_from(free), max_size=6))) if free else []
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=len(r), max_size=len(r)), min_size=1, max_size=5))
    ys = np.array(rows + rows[:1], dtype=np.uint8).reshape(len(rows) + 1, len(r))
    return inst, ys, np.array(r, dtype=np.intp), anchor, on_q, draw(st.integers(1, 8))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(guess_blocks())
def test_select_windows_rows_match_reference(case):
    inst, ys, r_idx, anchor, on_q, cells = case
    anchor_q = Seq(inst.alphabet, anchor[on_q])
    # a small cell cap splits every string's compare into several chunks
    with mock.patch.object(closest_substring, "_SELECT_CELLS", cells):
        offsets = select_windows(inst, ys, r_idx, anchor, on_q)
    assert offsets.shape == (len(ys), inst.n) and offsets.dtype == np.intp
    for y, row in zip(ys, offsets):
        assert row.tolist() == reference_select_windows(inst, Seq(inst.alphabet, y.tobytes()), r_idx, anchor_q, on_q)


class TestFirstDistinctRows:
    def test_matches_unique_rows(self):
        # rows drawn from a small pool repeat; 40 columns of 1000 windows
        # need 400 bits, so their keys are re-ranked on the way
        rng = np.random.default_rng(8)
        for n, count in ((1, 1), (2, 3), (5, 4), (40, 1000)):
            pool = rng.integers(0, count, (20, n))
            offsets = pool[rng.integers(0, len(pool), 300)]
            _, first = np.unique(offsets, axis=0, return_index=True)
            got = closest_substring._first_distinct_rows(offsets, [count] * n)
            assert got.tolist() == sorted(first.tolist())

    def test_keys_never_wrap(self):
        # keyed without re-ranking, row (1, 0, 0) would be 2^64 and wrap onto row (0, 0, 0)
        offsets = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        assert closest_substring._first_distinct_rows(offsets, [2, 2 ** 32, 2 ** 32]).tolist() == [0, 1]


class TestSamplingSolver:
    def test_common_exact_substring(self):
        inst = bsub(["00111", "11100", "01110"], 3)
        sol = solve_closest_substring(inst, SubstringConfig(r=2, epsilon=1.0))
        assert sol.radius == 0 and sol.center.text == "111"

    def test_single_string(self):
        inst = bsub(["0110"], 2)
        sol = solve_closest_substring(inst, SubstringConfig(r=2))
        assert sol.radius == 0
        assert sol.center.text == "01"  # first window by tie-break

    def test_planted_oracle_sandwich(self):
        worst = 0.0
        for seed in range(10):
            inst, _ = generate_planted("01", 3, 8, 5, 1, seed)
            opt = exact_closest_substring(inst).radius
            cfg = SubstringConfig(r=2, epsilon=1.0, rng_seed=seed)
            sol = solve_closest_substring(inst, cfg)
            assert opt <= sol.radius
            if opt:
                assert 3 * sol.radius <= 22 * opt  # 1 + 1/3 + 3*eps*r = 22/3
                worst = max(worst, sol.radius / opt)
            else:
                assert sol.radius == 0

    def test_radius_is_recomputed_cost(self):
        inst, _ = generate_planted("01", 3, 10, 4, 1, 5)
        sol = solve_closest_substring(inst, SubstringConfig(r=2))
        assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)

    def test_deterministic(self):
        inst, _ = generate_planted("01", 3, 9, 5, 1, 11)
        cfg = SubstringConfig(r=2, epsilon=1.0, rng_seed=99)
        assert solve_closest_substring(inst, cfg) == solve_closest_substring(inst, cfg)

    def test_budget_error_reports_feasible_epsilon(self):
        rng = np.random.default_rng(3)
        texts = ["".join(str(int(v)) for v in rng.integers(0, 2, 40)) for _ in range(3)]
        inst = bsub(texts, 30)
        cfg = SubstringConfig(r=2, epsilon=0.4, y_budget=16, rng_seed=0)
        with pytest.raises(BudgetExceeded, match="epsilon >="):
            solve_closest_substring(inst, cfg)


def reference_guessed_centers(inst, cfg, picks):
    """The guess loop of one window tuple: R is all of P when the requested
    size reaches |P| (or is 0) and a seeded draw otherwise, and every guess
    y on R selects windows whose restricted solve gives a center, yielded
    once per guess."""
    k = inst.alphabet.size
    size = sample_size(cfg.epsilon, inst.n, max(len(s) for s in inst.strings))
    rounding = RoundingConfig(trials=cfg.trials, epsilon_prime=cfg.epsilon)
    windows = picked_windows(inst, picks)
    q = agreement_positions(windows)
    p = np.flatnonzero(~q)
    if size <= 0 or size >= len(p):
        r_idx = p
    else:
        rng = np.random.default_rng(derive_seed(cfg.rng_seed, "sample", picks))
        r_idx = np.sort(p[rng.integers(0, len(p), size=size)])
    anchor_q = Seq(inst.alphabet, windows[0].arr[q])
    memo = {}
    for y in itertools.product(range(k), repeat=len(r_idx)):
        offsets = reference_select_windows(inst, Seq(inst.alphabet, y), r_idx, anchor_q, q)
        selected = windows_at(inst, offsets)
        key = tuple(t.data for t in selected)
        if key not in memo:
            sub = StringInstance(inst.alphabet, [t.arr for t in selected])
            seed = derive_seed(cfg.rng_seed, "round", picks, tuple(map(tuple, key)))
            row, _ = solve_restricted(
                build_restricted(sub, windows[0].arr, q), replace(rounding, rng_seed=seed)
            )
            memo[key] = Seq(inst.alphabet, row)
        yield memo[key]


def reference_sampled_solve(inst, cfg):
    """The sampling solver with every window tuple on the guess loop
    (reference_guessed_centers); the first minimum wins."""

    def candidates():
        for off in range(len(inst.strings[0]) - inst.window + 1):
            yield window(inst, 0, off)
        for picks in enumerate_window_tuples(inst, cfg.r):
            yield from reference_guessed_centers(inst, cfg, picks)

    best = None
    for center in candidates():
        cost = cost_substring(inst, center)[0]
        if best is None or cost < best[0]:
            best = (cost, center)
    return (best[1], *cost_substring(inst, best[1]))


def reference_substring(inst, cfg):
    """solve_substring with no tuple skipped: every window tuple in
    enumeration order is swept by reference_sweep when its |P| is within
    cfg.mode's sweep limit and guessed by reference_guessed_centers
    otherwise, and the first minimum wins.  Raises BudgetExceeded wherever
    a tuple's patches or guesses exceed cfg.y_budget.  Returns (center,
    radius, witnesses, guessed tuple count)."""
    k = inst.alphabet.size
    size = sample_size(cfg.epsilon, inst.n, max(len(s) for s in inst.strings))
    fits = 0  # the largest c with k^c <= y_budget
    while k ** (fits + 1) <= cfg.y_budget:
        fits += 1
    limit = {"small_d": inst.window, "sampling": size, "auto": fits}[cfg.mode]
    tuples = []  # (picks, anchor window, free positions, swept?)
    for picks in enumerate_window_tuples(inst, cfg.r):
        windows = picked_windows(inst, picks)
        p = np.flatnonzero(~agreement_positions(windows))
        swept = len(p) <= limit
        if (len(p) if swept else size) > fits:
            raise BudgetExceeded(f"tuple {picks} over budget {cfg.y_budget}")
        tuples.append((picks, windows[0], p, swept))
    best = None
    for picks, anchor, p, swept in tuples:
        if swept:
            costs, center = reference_sweep(inst, anchor, p)
            candidates = [(int(costs.min()), center)]
        else:
            candidates = ((cost_substring(inst, c)[0], c) for c in reference_guessed_centers(inst, cfg, picks))
        for cost, center in candidates:
            if best is None or cost < best[0]:
                best = (cost, center)
    guessed = sum(not swept for *_, swept in tuples)
    return (best[1], *cost_substring(inst, best[1]), guessed)


def planted_texts(rng, alphabet, lengths, width, d):
    """Random texts of the given lengths, each holding one center with d changes."""
    k = len(alphabet)
    center = rng.integers(0, k, size=width)
    texts = []
    for m in lengths:
        copy = center.copy()
        pos = rng.choice(width, size=d, replace=False)
        copy[pos] = (copy[pos] + rng.integers(1, k, size=d)) % k
        row = rng.integers(0, k, size=m)
        off = int(rng.integers(0, m - width + 1))
        row[off:off + width] = copy
        texts.append("".join(alphabet[v] for v in row))
    return texts


def forbid(monkeypatch, module, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(module, name, fail)


def spy(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def record(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def distinct_sweep_keys(inst, r):
    """The (agreement set Q, anchor on Q) pairs of inst's window tuples:
    everything a swept tuple's candidate depends on."""
    keys = set()
    for picks in enumerate_window_tuples(inst, r):
        windows = picked_windows(inst, picks)
        q = agreement_positions(windows)
        keys.add((q.tobytes(), windows[0].arr[q].tobytes()))
    return keys


def distinct_masks(keys):
    """The agreement masks Q of a set of distinct_sweep_keys."""
    return {q for q, _ in keys}


def swept_rows(sweeps):
    """Seed rows the recorded sweep_patches calls scored, the sum of
    fixed.shape[0]: one per swept (Q, anchor on Q) key."""
    return sum(len(args[1]) for args in sweeps)


def reference_instance_bound(inst):
    """The instance bound, by plain loops over window pairs: half the
    largest, over string pairs, of the pair's smallest window-to-window
    distance, rounded up; 0 with one string."""
    windows = [[window(inst, i, off) for off in range(len(s) - inst.window + 1)] for i, s in enumerate(inst.strings)]
    gaps = [min(dist(a, b) for a in ws for b in vs) for ws, vs in itertools.combinations(windows, 2)]
    return math.ceil(max(gaps, default=0) / 2)


def sweep_signature(inst, anchor, q):
    """How a swept (Q, anchor on Q) key shows in a sweep_patches call:
    every window on P, and the anchor's mismatches with each window on Q
    (its seed row).  Keys of one Q differ in their seed rows, as each
    anchor's own window costs it 0 and the other anchors more."""
    wins = [window(inst, i, off) for i, s in enumerate(inst.strings) for off in range(len(s) - inst.window + 1)]
    return (
        tuple(tuple(w.arr[~q].tolist()) for w in wins),
        tuple(int((w.arr[q] != anchor.arr[q]).sum()) for w in wins),
    )


def bound_kept_keys(inst, r):
    """The swept (Q, anchor on Q) keys the bound keeps on an instance
    whose every tuple is swept, by plain loops.  Masks go in first-seen
    order, each key at its first tuple's index.  A key is kept unless
    (reference_instance_bound, index) is above the best (radius, index)
    over the keys kept in earlier masks, a kept key's radius being
    reference_sweep's minimum.  Returns, per mask with a kept key, the
    sweep_signature of each kept key."""
    groups = {}  # per mask: per anchor on Q, (first index, anchor, Q)
    for index, picks in enumerate(enumerate_window_tuples(inst, r)):
        windows = picked_windows(inst, picks)
        q = agreement_positions(windows)
        groups.setdefault(q.tobytes(), {}).setdefault(windows[0].arr[q].tobytes(), (index, windows[0], q))
    best, kept, floor = (math.inf, 0), [], reference_instance_bound(inst)
    for group in groups.values():
        survivors = [(index, a, q) for index, a, q in group.values() if (floor, index) <= best]
        for index, anchor, q in survivors:
            costs, _ = reference_sweep(inst, anchor, np.flatnonzero(~q))
            best = min(best, (int(costs.min()), index))
        if survivors:
            kept.append([sweep_signature(inst, a, q) for _, a, q in survivors])
    return kept


def swept_signatures(sweeps):
    """Per recorded sweep_patches call, the sweep_signature of each seed row."""
    return [[(tuple(map(tuple, rows.tolist())), tuple(seed)) for seed in fixed.tolist()] for rows, fixed, *_ in sweeps]


def swept_keys_are_bound_kept(inst, sweeps):
    """Asserts that the recorded sweeps scored exactly
    bound_kept_keys(inst, 2), in order and one call per mask, so no key
    was swept twice.  Returns the number of keys swept."""
    kept = bound_kept_keys(inst, 2)
    flat = [key for group in kept for key in group]
    assert len(set(flat)) == len(flat)
    assert swept_signatures(sweeps) == kept
    return len(flat)


class TestCoveredSampleSweep:
    # (alphabet, string lengths, L, d): every tuple's sample covers its P
    SHAPES = (
        ("01", (6, 7, 5), 4, 1),
        ("01", (5, 6, 6, 5), 4, 2),
        ("012", (5, 6, 4), 3, 1),
        ("ACGT", (4, 5, 4), 3, 1),
        ("ACGT", (5, 4), 4, 2),
    )

    def test_radius_never_worse_than_guess_loop(self):
        changed = 0
        for alphabet, lengths, l, d in self.SHAPES:
            for seed in range(6):
                rng = np.random.default_rng([len(alphabet), len(lengths), seed])
                inst = SubstringInstance.from_texts(
                    Alphabet.of(alphabet), planted_texts(rng, alphabet, lengths, l, d), l
                )
                cfg = SubstringConfig(r=2 + seed % 2, mode="sampling", rng_seed=seed)
                center, radius, offsets = reference_sampled_solve(inst, cfg)
                sol = solve_closest_substring(inst, cfg)
                assert sol.radius <= radius, (alphabet, lengths, seed)
                changed += sol.center != center
        # the swept path must be the one taken: some tie resolves differently
        assert changed > 0

    def test_covered_tuples_skip_guesses_selection_and_lp(self, monkeypatch):
        for name in ("select_windows", "build_restricted", "solve_restricted"):
            forbid(monkeypatch, closest_substring, name)
        forbid(monkeypatch, lp_round, "solve_lp")
        seeds = spy(monkeypatch, closest_substring, "derive_seed")
        sweeps = spy(monkeypatch, closest_substring, "sweep_patches")
        planted, _ = generate_planted("01", 3, 8, 5, 1, 4)
        # |R| = ceil(4 ln 28) = 14 = |P| on the pair tuple: still covered
        boundary = bsub(["0" * 14, "1" * 14], 14)
        # the bound skips some of planted's keys; each of boundary's three
        # keys could still win when it is reached
        for inst, skipped in ((planted, True), (boundary, False)):
            sweeps.clear()
            sol = solve_closest_substring(inst, SubstringConfig(r=2, epsilon=1.0))
            assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)
            assert seeds == []
            assert (swept_keys_are_bound_kept(inst, sweeps) < len(distinct_sweep_keys(inst, 2))) == skipped
        assert sweeps[-1][0].shape == (2, 14)

    def test_uncovered_tuple_keeps_guess_loop(self, monkeypatch):
        # |R| = ceil(4 ln 30) = 14 < |P| = 15 on the one pair tuple, whose
        # 2^14 guesses fit the default budget; the single-window tuples
        # (|P| = 0) give the same candidate on both paths.  Auto guesses
        # the pair tuple too once its 2^15 patches exceed y_budget.
        inst = bsub(["0" * 15, "1" * 15], 15)
        cfg = SubstringConfig(r=2, epsilon=1.0)
        center, radius, offsets = reference_sampled_solve(inst, cfg)
        for solver, run_cfg in (
            (solve_closest_substring, cfg),
            (solve_substring, replace(cfg, mode="auto", y_budget=2 ** 14)),
        ):
            selections = spy(monkeypatch, closest_substring, "select_windows")
            lps = spy(monkeypatch, lp_round, "solve_lp")
            seeds = spy(monkeypatch, closest_substring, "derive_seed")
            sweeps = spy(monkeypatch, closest_substring, "sweep_patches")
            costs = spy(monkeypatch, closest_substring, "cost_substring")
            sol = solver(inst, run_cfg)
            assert (sol.center, sol.radius, sol.witnesses) == (center, radius, offsets)
            # every guess in one block: one call with 2^14 rows
            assert [args[1].shape for args in selections] == [(2 ** 14, 14)]
            assert len(lps) == 1  # one string each: every guess selects the same windows
            # the winner's offsets only: a guessed center is scored on the window arrays
            assert len(costs) == 1
            assert seeds[0] == (0, "sample", ((0, 0), (1, 0)))
            # the two single windows, in one sweep of their shared full mask
            assert swept_rows(sweeps) == 2
            assert len(sweeps) == 1
            monkeypatch.undo()

    # each of s0's two windows has its complement as the one window of s1
    # or s2, so every center is 9 from one string: the optimum is 9, while
    # the closest windows of each string pair are 16 apart, an instance
    # bound of 8
    SPLIT = ["0" * 17 + "1", "1" * 17, "1" * 16 + "0"]

    def test_repeated_guessed_tuples_finish_quickly(self, monkeypatch):
        # four guessed tuples of 2^16 guesses each under auto at r = 3, the
        # two window pairs and the two window triples that hold a
        # complementary pair, each reached: the instance bound 8 is below
        # every radius found (16 by the single windows, then 9).  Scored
        # one guess at a time, with one Seq and one select_windows call per
        # guess, six such tuples took about 35 s
        selections = spy(monkeypatch, closest_substring, "select_windows")
        inst = bsub(self.SPLIT, 17)
        start = time.perf_counter()
        sol = solve_substring(inst, SubstringConfig(r=3, mode="auto"))
        assert time.perf_counter() - start < 10.0
        assert (sol.radius, sol.guessed_tuples) == (9, 4)
        assert len(selections) == 4 * 4  # four blocks of 2^14 guesses per tuple

    def test_guessed_tuples_that_cannot_win_are_skipped(self, monkeypatch):
        # the six guessed tuples pair complementary windows; the strings
        # are equal, so the instance bound is 0, and the single windows
        # come first and already reach radius 0, so no guessed tuple draws
        # R, selects windows or solves an LP, and guessed_tuples still
        # counts all six
        forbid(monkeypatch, closest_substring, "select_windows")
        forbid(monkeypatch, lp_round, "solve_lp")
        seeds = spy(monkeypatch, closest_substring, "derive_seed")
        inst = bsub(["01" * 9] * 3, 17)
        sol = solve_substring(inst, SubstringConfig(r=2, mode="auto"))
        assert (sol.center.text, sol.radius, sol.witnesses, sol.guessed_tuples) == ("01" * 8 + "0", 0, (0, 0, 0), 6)
        assert seeds == []

    def test_guessed_tuple_below_the_best_radius_is_solved(self, monkeypatch):
        # the swept tuples reach radius 9, the optimum; the two
        # complementary pairs' tuples are guessed (|P| = 17 > |R| = 16),
        # and the instance bound 8 is below 9, so both go through their
        # guesses and their LPs, two distinct selections each: an instance
        # bound one too high would skip the later one
        selections = spy(monkeypatch, closest_substring, "select_windows")
        lps = spy(monkeypatch, lp_round, "solve_lp")
        inst = bsub(self.SPLIT, 17)
        sol = solve_closest_substring(inst, SubstringConfig(r=2, epsilon=1.0))
        assert (sol.radius, sol.guessed_tuples) == (9, 2)
        assert [args[1].shape for args in selections] == [(2 ** 14, 16)] * 8
        assert len(lps) == 4

    def test_guess_memory_stays_flat(self, monkeypatch):
        # one guessed tuple of 2^18 guesses, the complementary pair, whose
        # instance bound 20 is below the single windows' radius 40:
        # scoring every guess of a tuple at once peaks near 20 MB for two
        # such tuples, blocks of guesses near 2 MB
        selections = spy(monkeypatch, closest_substring, "select_windows")
        inst = bsub(["01" * 20, "10" * 20], 40)
        cfg = SubstringConfig(r=2, epsilon=1.0, y_budget=2 ** 18, mode="sampling")
        assert sample_size(cfg.epsilon, 2, 40) == 18
        tracemalloc.start()
        try:
            sol = solve_closest_substring(inst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert len(selections) == 2 ** 18 // 2 ** 14
        assert sol.radius == 20

    def test_budget_checked_before_any_work(self, monkeypatch):
        # the single-window tuples come first and fit; the pair tuple's
        # 2^15 guesses must be refused before any of them is solved
        for name in ("sweep_patches", "select_windows", "solve_restricted"):
            forbid(monkeypatch, closest_substring, name)
        inst = bsub(["01010101010101010101", "10101010101010101010"], 20)
        with pytest.raises(BudgetExceeded, match=r"\|R\|=15 needs 2\^15 guesses, over budget 4;"):
            solve_closest_substring(inst, SubstringConfig(r=2, epsilon=1.0, y_budget=4))

    def test_budget_counts_swept_patches_of_covered_tuples(self):
        # |P| = 6 <= |R| = 13: the sweep's 2^6 patches are what the budget caps
        inst = bsub(["000000", "111111", "000111"], 6)
        with pytest.raises(BudgetExceeded, match=r"\|P\|=6 needs 2\^6 patches"):
            solve_closest_substring(inst, SubstringConfig(r=2, epsilon=1.0, y_budget=63))
        assert solve_closest_substring(inst, SubstringConfig(r=2, epsilon=1.0, y_budget=64)).radius == 3


class TestBudgetHint:
    def test_feasible_epsilon_fits(self):
        rng = np.random.default_rng(3)
        texts = ["".join(str(int(v)) for v in rng.integers(0, 2, 40)) for _ in range(3)]
        inst = bsub(texts, 30)
        cfg = SubstringConfig(r=2, epsilon=0.4, y_budget=1 << 20, rng_seed=0)
        with pytest.raises(BudgetExceeded, match="epsilon >= ") as err:
            solve_closest_substring(inst, cfg)
        eps = float(str(err.value).rsplit("epsilon >= ", 1)[1].split()[0])
        assert 0.4 < eps <= 1.0
        assert 2 ** sample_size(eps, 3, 40) <= cfg.y_budget
        assert 2 ** sample_size(eps - 1e-4, 3, 40) > cfg.y_budget
        closest_substring._plan(inst, replace(cfg, epsilon=eps, mode="sampling"), sample_size(eps, 3, 40))  # no raise

    def test_no_feasible_epsilon_names_a_budget(self):
        # binary 4 x 40, L = 20: epsilon = 1 still needs |R| = 21 > 16, and
        # no tuple can need more than 2^L
        inst, _ = generate_planted("01", 4, 40, 20, 2, 0)
        cfg = SubstringConfig(r=2, epsilon=1.0)
        with pytest.raises(BudgetExceeded) as err:
            solve_closest_substring(inst, cfg)
        msg = str(err.value)
        assert "no epsilon in (0, 1] fits" in msg
        assert "epsilon >= 1.1265 would be needed" in msg
        assert msg.endswith("y_budget >= 2^20 would fit at epsilon 1.0")
        closest_substring._plan(inst, replace(cfg, y_budget=2 ** 20, mode="sampling"), sample_size(1.0, 4, 40))  # no raise

    def test_budget_below_alphabet_size(self):
        inst = bsub(["0011", "1100"], 4)
        with pytest.raises(BudgetExceeded, match=r"a budget below 2 fits no guess\); y_budget >= 2\^4 "):
            solve_closest_substring(inst, SubstringConfig(r=2, y_budget=1))


class TestFact2Empirics:
    def test_selected_windows_stay_near_ideal(self):
        # plant instances where the sample is a genuine strict subsample of
        # the free positions; the selected window must stay within
        # 2*eps*|P| of the ideal witness with frequency >= 95%
        eps = 1.0
        n, m, l, d = 4, 120, 60, 24
        violations = 0
        genuine = 0
        trials = 60
        for seed in range(trials):
            inst, meta = generate_planted("01", n, m, l, d, seed)
            center = bseq(meta.center)
            _, offsets = cost_substring(inst, center)
            witnesses = [window(inst, i, off) for i, off in enumerate(offsets)]
            q = agreement_positions(witnesses[:2])
            p = np.flatnonzero(~q)
            # the center with the first witness's letters on Q
            star_row = center.arr.copy()
            star_row[q] = witnesses[0].arr[q]
            star = Seq(BINARY, star_row)
            size = sample_size(eps, n, m)
            if 0 < size < len(p):
                genuine += 1
                rng = np.random.default_rng(1000 + seed)
                r_idx = np.sort(p[rng.integers(0, len(p), size)])
            else:
                r_idx = p
            y = Seq(BINARY, star.arr[r_idx])
            offsets = select_windows(inst, *one_guess(y, r_idx), witnesses[0].arr, q)
            chosen = windows_at(inst, offsets[0])
            bound = 2 * eps * len(p)
            if any(
                dist(star, t) > dist(star, w) + bound
                for t, w in zip(chosen, witnesses)
            ):
                violations += 1
        assert genuine > trials // 2  # the config must actually subsample
        assert violations <= math.ceil(0.05 * trials)


class TestDispatcher:
    def test_modes_agree_on_tiny_instances(self):
        inst = bsub(["0000", "1111"], 2)
        for mode in ("small_d", "sampling", "auto"):
            sol = solve_substring(inst, SubstringConfig(r=2, mode=mode))
            assert sol.radius == 1

    def test_auto_uses_small_d_for_small_radius(self):
        inst, _ = generate_planted("01", 3, 8, 5, 0, 3)
        sol = solve_substring(inst, SubstringConfig(r=2, mode="auto"))
        assert sol.radius == 0

    def test_auto_equals_small_d_wherever_small_d_fits(self):
        # auto sweeps every tuple whose k^|P| patches fit y_budget, so
        # wherever small_d fits the budget, auto sweeps every tuple as well
        fitted = refused = 0
        for alphabet in ("01", "012", "ACGT"):
            for seed in range(8):
                rng = np.random.default_rng([5, len(alphabet), seed])
                l = int(rng.integers(3, 7))
                lengths = [l + int(rng.integers(0, 4)) for _ in range(int(rng.integers(2, 5)))]
                texts = planted_texts(rng, alphabet, lengths, l, 1 + seed % 2)
                inst = SubstringInstance.from_texts(Alphabet.of(alphabet), texts, l)
                cfg = SubstringConfig(r=2 + seed % 2, y_budget=1 << 6, mode="auto", rng_seed=seed)
                try:
                    small = solve_small_substring(inst, cfg)
                except BudgetExceeded:
                    refused += 1
                    continue
                assert solve_substring(inst, cfg) == small, (alphabet, texts, l)
                fitted += 1
        assert fitted and refused

    def test_auto_sweeps_tuples_that_fit_the_budget(self, monkeypatch):
        # |P| = 15 > |R| = 14 on the pair tuple, but its 2^15 patches fit
        # the default budget: auto sweeps it, where sampling would guess
        for name in ("select_windows", "solve_restricted"):
            forbid(monkeypatch, closest_substring, name)
        sweeps = spy(monkeypatch, closest_substring, "sweep_patches")
        inst = bsub(["0" * 15, "1" * 15], 15)
        sol = solve_substring(inst, SubstringConfig(r=2, mode="auto"))
        assert sol.radius == 8 == exact_closest_substring(inst).radius
        # the two single windows share one sweep, the pair has its own
        assert swept_rows(sweeps) == 3
        assert len(sweeps) == 2

    def test_auto_evaluates_the_cost_once(self, monkeypatch):
        # no pass over the input windows precedes the tuple loop, and every
        # tuple of this instance is swept, so only the winner is scored
        costs = spy(monkeypatch, closest_substring, "cost_substring")
        inst, _ = generate_planted("01", 3, 8, 5, 1, 3)
        solve_substring(inst, SubstringConfig(r=2, mode="auto"))
        assert len(costs) == 1


class TestSweepDedupe:
    def test_planted_dna_sweeps_each_key_once(self, monkeypatch):
        # the substring_small_d shape: about 150 distinct keys over 322 tuples
        for seed in range(3):
            inst, _ = generate_planted("ACGT", 4, 12, 6, 1, seed)
            sweeps = spy(monkeypatch, closest_substring, "sweep_patches")
            sol = solve_small_substring(inst, SubstringConfig(r=2))
            keys = distinct_sweep_keys(inst, 2)
            assert swept_keys_are_bound_kept(inst, sweeps) < len(keys)
            assert 2 * len(keys) <= len(list(enumerate_window_tuples(inst, 2)))
            assert sol.center == reference_small_substring(inst, 2)[0]
            monkeypatch.undo()

    def test_shared_key_sweeps_once(self, monkeypatch):
        # the pairs (001, 010) and (011, 000) both agree on position 0 only,
        # where both anchors read 0: one key for two different picks, so
        # the second tuple is not kept
        inst = bsub(["001", "010", "011", "000"], 3)
        cfg = SubstringConfig(r=2)
        sweeps = []
        sweep = closest_substring.sweep_patches
        monkeypatch.setattr(closest_substring, "sweep_patches",
                            lambda *args: sweeps.append((args, sweep(*args))) or sweeps[-1][1])
        picks = list(enumerate_window_tuples(inst, 2))
        small = replace(cfg, mode="small_d")
        swept, guessed, _ = closest_substring._plan(inst, small, sample_size(cfg.epsilon, 4, 3))
        solve_substring(inst, small)
        # per kept tuple's picks: its sweep call (its mask group) and its seed row there
        kept = {
            picks[index]: (call, row)
            for call, (b, e) in enumerate(zip(swept.edges, swept.edges[1:]))
            for row, index in enumerate(swept.indices[b:e].tolist())
        }
        first, second = ((0, 0), (1, 0)), ((2, 0), (3, 0))
        keys = distinct_sweep_keys(inst, 2)
        assert swept_rows(args for args, _ in sweeps) == len(keys) == len(picks) - 1 == len(kept)
        assert len(sweeps) == len(swept.edges) - 1 == len(distinct_masks(keys))
        assert not guessed
        assert first in kept and second not in kept
        windows = picked_windows(inst, first)
        p = np.flatnonzero(~agreement_positions(windows))
        costs, center = reference_sweep(inst, windows[0], p)
        call, row = kept[first]
        cost, patches = (result[row] for result in sweeps[call][1])
        first_center = windows[0].arr.copy()
        first_center[p] = patches
        assert (int(cost), Seq(inst.alphabet, first_center)) == (int(costs.min()), center)

    def test_tie_goes_to_the_smaller_index_across_masks(self):
        # radius 1 is the minimum and no single window reaches it.  The
        # mask 0110, first seen at tuple 5, reaches it only at tuple 10
        # (center 1011); the mask 0011, first seen at tuple 6, reaches it
        # there (center 0001).  Comparing masks in first-seen order would
        # return 1011; the (radius, index) minimum is tuple 6's 0001.
        inst = bsub(["01010", "11001", "0011"], 4)
        picks = list(enumerate_window_tuples(inst, 2))
        swept, _, _ = closest_substring._plan(inst, SubstringConfig(r=2, mode="small_d"), sample_size(1.0, 3, 5))
        minima = []  # per mask in first-seen order: its (radius, index) minimum and center
        for b, e in zip(swept.edges, swept.edges[1:]):
            cands = []
            for index in swept.indices[b:e].tolist():
                windows = picked_windows(inst, picks[index])
                costs, center = reference_sweep(inst, windows[0], np.flatnonzero(~agreement_positions(windows)))
                cands.append((int(costs.min()), index, center.text))
            minima.append(min(cands))
        assert [m for m in minima if m[0] == 1][:2] == [(1, 10, "1011"), (1, 6, "0001")]
        assert min(m[0] for m in minima) == 1
        center = reference_small_substring(inst, 2)[0]
        assert center.text == "0001"
        for mode in ("small_d", "sampling", "auto"):
            sol = solve_substring(inst, SubstringConfig(r=2, mode=mode))
            assert (sol.center, sol.radius, sol.guessed_tuples) == (center, 1, 0)

    @pytest.mark.parametrize("texts, l, mode, guessed", [
        # the small_d shape of the benchmark, at n = 5 and m = 40: every tuple swept
        (None, 6, "small_d", 0),
        # |R| = 16 < |P| = 17 on the two pairs of complementary strings,
        # while the pair of equal strings repeats a single window's key
        (["0" * 17, "1" * 17, "0" * 17], 17, "sampling", 2),
    ])
    def test_pre_pass_keeps_one_tuple_per_swept_key(self, texts, l, mode, guessed):
        if texts is None:
            inst, _ = generate_planted("ACGT", 5, 40, l, 1, 0)
        else:
            inst = bsub(texts, l)
        cfg = SubstringConfig(r=2)
        size = sample_size(cfg.epsilon, inst.n, len(inst.strings[0]))
        tracemalloc.start()
        try:
            swept, guessed_tuples, _ = closest_substring._plan(inst, replace(cfg, mode=mode), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = l if mode == "small_d" else size
        first_index, tuples = {}, 0  # per swept (Q, anchor on Q) key, its first tuple
        for index, picks in enumerate(enumerate_window_tuples(inst, 2)):
            windows = picked_windows(inst, picks)
            q = agreement_positions(windows)
            tuples += 1
            if l - int(q.sum()) <= limit:
                first_index.setdefault((q.tobytes(), windows[0].arr[q].tobytes()), index)
        kept = {
            (q.tobytes(), anchor[q].tobytes()): index
            for q, anchor, index in zip(swept.masks, swept.anchors, swept.indices.tolist())
        }
        assert len(guessed_tuples) == guessed
        # one kept tuple per (Q, anchor on Q) key, the first with that key
        assert len(swept.indices) == len(kept) == len(first_index)
        assert kept == first_index
        assert len(kept) + guessed < tuples
        # the kept anchors are one compact array that owns its data, not
        # views of the tuples' rows; a guessed anchor is its own array or a
        # row of one that holds only guessed anchors
        assert swept.anchors.flags.owndata and swept.anchors.shape == (len(kept), l)
        for _, _, anchor, _ in guessed_tuples:
            owner = anchor if anchor.base is None else anchor.base
            assert owner.flags.owndata and len(owner) <= len(guessed_tuples)
        assert peak < 3e6

    def test_r3_solve_memory_stays_flat(self):
        # planted DNA 6x24, L = 8, r = 3: 102,697 window tuples keep 1,595
        # swept rows.  Deduplicating the swept tuples once, after the last
        # block, took the peak to 10.2 MB; with the pile-up pass it is 4.8 MB
        inst, _ = generate_planted("ACGT", 6, 24, 8, 1, 0)
        tracemalloc.start()
        try:
            sol = solve_substring(inst, SubstringConfig(r=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sol.center.text, sol.radius, sol.guessed_tuples) == ("TGGCCAAA", 1, 0)
        assert peak <= 6e6
        # small blocks and pile-ups give the same solution
        with mock.patch.object(closest_substring, "_TUPLE_CELLS", 1 << 10):
            assert solve_substring(inst, SubstringConfig(r=3)) == sol


class TestInstanceBound:
    def test_sweeps_stop_once_the_single_windows_reach_it(self, monkeypatch):
        # the string pairs' closest windows are 1, 1 and 2 apart, an
        # instance bound of 1, and s0's window 0000 reaches it: of the nine
        # masks only the single windows' full one is swept
        inst = bsub(["0000", "00011", "11000"], 4)
        assert reference_instance_bound(inst) == 1
        assert len(distinct_masks(distinct_sweep_keys(inst, 2))) == 9
        for mode in ("small_d", "sampling", "auto"):
            sweeps = []
            sweep = closest_substring.sweep_patches
            monkeypatch.setattr(closest_substring, "sweep_patches",
                                lambda *args: sweeps.append((args, sweep(*args))) or sweeps[-1][1])
            sol = solve_substring(inst, SubstringConfig(r=2, mode=mode))
            assert (sol.center.text, sol.radius, sol.guessed_tuples) == ("0000", 1, 0)
            assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)
            # one call: every window on the empty P, one seed row per single window
            [(args, (costs, _))] = sweeps
            assert args[0].shape == (5, 0) and args[1].shape == (5, 5)
            assert int(costs.min()) == cost_substring(inst, sol.center)[0]
            assert swept_keys_are_bound_kept(inst, [args for args, _ in sweeps]) == 5
            monkeypatch.undo()

    def test_q_costs_only_seed_the_sweeps(self, monkeypatch):
        # the instance bound is the skip's one term, so Q costs are taken
        # only for each sweep's seed rows, on its one shared mask: none for
        # a skipped anchor, a skipped guessed tuple (three copies of 01x9)
        # or a solved one (the pair of 0^15 and 1^15 under sampling)
        planted, _ = generate_planted("ACGT", 10, 60, 8, 1, 0)
        cases = (
            (planted, SubstringConfig(r=2)),
            (bsub(["01" * 9] * 3, 17), SubstringConfig(r=2)),
            (bsub(["0" * 15, "1" * 15], 15), SubstringConfig(r=2, mode="sampling")),
        )
        for inst, cfg in cases:
            q_costs = spy(monkeypatch, closest_substring, "_q_costs")
            sweeps = spy(monkeypatch, closest_substring, "sweep_patches")
            sol = solve_substring(inst, cfg)
            assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)
            assert len(q_costs) == len(sweeps) > 0
            for (_, on_q, anchors), (_, fixed, *_) in zip(q_costs, sweeps):
                assert on_q.shape == (inst.window,) and len(anchors) == len(fixed)
            monkeypatch.undo()


@st.composite
def bound_cases(draw):
    """Random k = 2/3/4 substring instances of 1 to 5 strings of lengths
    drawn apart, with L <= 6."""
    symbols = draw(st.sampled_from(("01", "012", "ACGT")))
    l = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(l, l + 3), min_size=n, max_size=n))
    texts = ["".join(draw(st.lists(st.sampled_from(symbols), min_size=m, max_size=m))) for m in lengths]
    return SubstringInstance.from_texts(Alphabet.of(symbols), texts, l)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(bound_cases())
def test_instance_bound_is_a_lower_bound(inst):
    # no center of length L is closer than the bound to every string
    cfg = SubstringConfig(r=2, mode="small_d")
    _, _, bound = closest_substring._plan(inst, cfg, closest_substring._sample_size_of(inst, cfg.epsilon))
    assert bound <= exact_closest_substring(inst).radius
    if inst.n == 1:
        assert bound == 0


def reference_plan(inst, cfg, size):
    """_plan by a plain loop over enumerate_window_tuples, rows as bytes:
    per mask group, groups in first-seen order, the (index, anchor, Q) of
    the first swept tuple of each (Q, anchor on Q) pair; and the guessed
    tuples as (index, picks, anchor, Q).  Raises _plan's BudgetExceeded
    message at the first tuple over budget."""
    k, l = inst.alphabet.size, inst.window
    fits = 0  # the largest c with k^c <= y_budget
    while k ** (fits + 1) <= cfg.y_budget:
        fits += 1
    limit = {"small_d": l, "sampling": size, "auto": fits}[cfg.mode]
    groups, guessed = {}, []
    for index, picks in enumerate(enumerate_window_tuples(inst, cfg.r)):
        windows = picked_windows(inst, picks)
        q, anchor = agreement_positions(windows), windows[0].arr
        free = l - int(q.sum())
        if free <= limit and free <= fits:
            group = groups.setdefault(q.tobytes(), {})
            group.setdefault(anchor[q].tobytes(), (index, anchor.tobytes(), q.tobytes()))
        elif free > limit and size <= fits:
            guessed.append((index, picks, anchor.tobytes(), q.tobytes()))
        else:
            work = f"|P|={free} needs {k}^{free} patches" if free <= limit else f"|R|={size} needs {k}^{size} guesses"
            hint = ""
            if cfg.mode != "small_d":
                hint = "; " + closest_substring._budget_hint(inst, cfg.y_budget, cfg.epsilon)
            raise BudgetExceeded(f"{work}, over budget {cfg.y_budget}{hint}")
    return [list(group.values()) for group in groups.values()], guessed


@st.composite
def unequal_length_cases(draw):
    """Random k = 2/3/4 substring instances whose strings differ in length,
    with r, y_budget and rng_seed."""
    symbols = draw(st.sampled_from(("01", "012", "ACGT")))
    l = draw(st.integers(2, 7 - len(symbols)))
    lengths = draw(
        st.lists(st.integers(l, l + 3), min_size=2, max_size=4).filter(lambda ms: len(set(ms)) > 1)
    )
    texts = ["".join(draw(st.lists(st.sampled_from(symbols), min_size=m, max_size=m))) for m in lengths]
    inst = SubstringInstance.from_texts(Alphabet.of(symbols), texts, l)
    return inst, draw(st.integers(2, 3)), draw(st.sampled_from((1 << 3, 1 << 16))), draw(st.integers(0, 99))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(unequal_length_cases())
def test_modes_match_references(case):
    inst, r, y_budget, seed = case
    cfg = SubstringConfig(r=r, y_budget=y_budget, rng_seed=seed)
    k = inst.alphabet.size
    free = max(
        inst.window - int(agreement_positions(picked_windows(inst, picks)).sum())
        for picks in enumerate_window_tuples(inst, r)
    )
    if k ** free > y_budget:
        for mode in ("small_d", "sampling", "auto"):
            with pytest.raises(BudgetExceeded):
                solve_substring(inst, replace(cfg, mode=mode))
        return
    center, _, _ = reference_small_substring(inst, r)
    assert solve_small_substring(inst, cfg).center == center
    # |P| <= L < |R| on every tuple, so sampling and auto sweep them all too
    assert free < sample_size(cfg.epsilon, inst.n, max(len(s) for s in inst.strings))
    for mode in ("sampling", "auto"):
        mode_cfg = replace(cfg, mode=mode)
        sol = solve_substring(inst, mode_cfg)
        assert sol.center == center
        assert sol.radius <= reference_sampled_solve(inst, mode_cfg)[1]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(unequal_length_cases(), st.sampled_from(["small_d", "sampling", "auto"]), st.integers(0, 6), st.booleans())
def test_plan_matches_a_per_tuple_loop(case, mode, size, small_blocks):
    # the sample size is drawn, not derived from the instance, so that
    # sampling guesses too; small blocks split a subset by anchor offset
    # and deduplicate the swept tuples as they pile up
    inst, r, y_budget, _ = case
    cfg = SubstringConfig(r=r, y_budget=y_budget, mode=mode)
    cells = 8 if small_blocks else closest_substring._TUPLE_CELLS
    with mock.patch.object(closest_substring, "_TUPLE_CELLS", cells):
        try:
            groups, guessed = reference_plan(inst, cfg, size)
        except BudgetExceeded as err:
            with pytest.raises(BudgetExceeded) as raised:
                closest_substring._plan(inst, cfg, size)
            assert str(raised.value) == str(err)
            return
        swept, planned, bound = closest_substring._plan(inst, cfg, size)
    assert bound == reference_instance_bound(inst)
    assert (swept.masks.dtype, swept.anchors.dtype) == (np.dtype(bool), np.dtype(np.uint8))
    assert [
        [(index, anchor.tobytes(), q.tobytes())
         for index, anchor, q in zip(swept.indices[b:e].tolist(), swept.anchors[b:e], swept.masks[b:e])]
        for b, e in zip(swept.edges, swept.edges[1:])
    ] == groups
    assert [(index, picks, anchor.tobytes(), q.tobytes()) for index, picks, anchor, q in planned] == guessed
    # Python ints only: the seeds hash repr(picks), and numpy 2 reprs a scalar as np.int64(3)
    assert all(type(v) is int for index, picks, _, _ in planned for v in (index, *itertools.chain(*picks)))
