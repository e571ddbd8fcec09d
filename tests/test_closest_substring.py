"""Substring solvers: sample sizing, window selection, both pipelines."""

import itertools
import math
import time
import tracemalloc
from dataclasses import replace
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


class TestSubstringConfig:
    def test_rounding_fields_validated_at_construction(self):
        with pytest.raises(DomainError, match="mode must be one of"):
            SubstringConfig(rounding_mode="exact")
        with pytest.raises(DomainError, match="trials must be >= 1"):
            SubstringConfig(trials=0)
        SubstringConfig(rounding_mode="derandomized", trials=1)  # no raise


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
        assert len(calls) == 3  # two single windows and the pair

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


def reference_sampled_solve(inst, cfg):
    """The sampling solver with every window tuple on the guess loop: R is
    all of P when the requested size reaches |P| (or is 0) and a seeded
    draw otherwise, and every guess y on R selects windows whose
    restricted solve gives a candidate; the first minimum wins."""
    k = inst.alphabet.size
    l = inst.window
    size = sample_size(cfg.epsilon, inst.n, max(len(s) for s in inst.strings))
    rounding = RoundingConfig(cfg.rounding_mode, cfg.trials, epsilon_prime=cfg.epsilon)

    def candidates():
        for off in range(len(inst.strings[0]) - l + 1):
            yield window(inst, 0, off)
        for picks in enumerate_window_tuples(inst, cfg.r):
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

    best = None
    for center in candidates():
        cost = cost_substring(inst, center)[0]
        if best is None or cost < best[0]:
            best = (cost, center)
    return (best[1], *cost_substring(inst, best[1]))


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
        for inst in (planted, boundary):
            sweeps.clear()
            sol = solve_closest_substring(inst, SubstringConfig(r=2, epsilon=1.0))
            assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)
            assert seeds == []
            assert len(sweeps) == len(distinct_sweep_keys(inst, 2))
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
            assert len(sweeps) == 2
            monkeypatch.undo()

    def test_repeated_guessed_tuples_finish_quickly(self):
        # six guessed tuples of 2^16 guesses each under auto; scored one
        # guess at a time, with one Seq and one select_windows call per
        # guess, this took about 35 s
        inst = bsub(["01" * 9] * 3, 17)
        start = time.perf_counter()
        sol = solve_substring(inst, SubstringConfig(r=2, mode="auto"))
        assert time.perf_counter() - start < 10.0
        assert (sol.center.text, sol.radius) == ("01" * 8 + "0", 0)

    def test_guess_memory_stays_flat(self):
        # two guessed tuples of 2^18 guesses each: scoring every guess of a
        # tuple at once peaks near 20 MB, blocks of guesses near 2 MB
        inst = bsub(["01" * 20, "10" * 20], 39)
        cfg = SubstringConfig(r=2, epsilon=1.0, y_budget=2 ** 18, mode="sampling")
        assert sample_size(cfg.epsilon, 2, 40) == 18
        tracemalloc.start()
        try:
            sol = solve_closest_substring(inst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert sol.radius == 0

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
        closest_substring._agreed_tuples(inst, replace(cfg, epsilon=eps), "sampling")  # no raise

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
        closest_substring._agreed_tuples(inst, replace(cfg, y_budget=2 ** 20), "sampling")  # no raise

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
        assert len(sweeps) == 3

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
            assert len(sweeps) == len(keys)
            assert 2 * len(keys) <= len(list(enumerate_window_tuples(inst, 2)))
            assert sol.center == reference_small_substring(inst, 2)[0]
            monkeypatch.undo()

    def test_shared_key_sweeps_once(self, monkeypatch):
        # the pairs (001, 010) and (011, 000) both agree on position 0 only,
        # where both anchors read 0: one key for two different picks, so
        # the second tuple yields no candidate
        inst = bsub(["001", "010", "011", "000"], 3)
        cfg = SubstringConfig(r=2)
        sweeps = spy(monkeypatch, closest_substring, "sweep_patches")
        picks = list(enumerate_window_tuples(inst, 2))
        kept = [t[0] for t in closest_substring._agreed_tuples(inst, cfg, "small_d")]
        cands = dict(zip(kept, closest_substring._centers(inst, cfg, "small_d")))
        first, second = ((0, 0), (1, 0)), ((2, 0), (3, 0))
        assert len(sweeps) == len(distinct_sweep_keys(inst, 2)) == len(picks) - 1 == len(cands)
        assert first in cands and second not in cands
        windows = picked_windows(inst, first)
        costs, center = reference_sweep(inst, windows[0], np.flatnonzero(~agreement_positions(windows)))
        cost, row = cands[first]
        assert (cost, Seq(inst.alphabet, row)) == (int(costs.min()), center)

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
        tracemalloc.start()
        try:
            agreed = closest_substring._agreed_tuples(inst, cfg, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = l if mode == "small_d" else sample_size(cfg.epsilon, inst.n, len(inst.strings[0]))
        swept_keys, tuples = set(), 0
        for picks in enumerate_window_tuples(inst, 2):
            windows = picked_windows(inst, picks)
            q = agreement_positions(windows)
            tuples += 1
            if l - int(q.sum()) <= limit:
                swept_keys.add((q.tobytes(), windows[0].arr[q].tobytes()))
        assert sum(not swept for *_, swept in agreed) == guessed
        assert len(agreed) == len(swept_keys) + guessed < tuples
        # every kept anchor is its own small array, not a view of the tuple's rows
        assert all(anchor.base is None for _, anchor, _, _ in agreed)
        assert peak < 3e6


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
