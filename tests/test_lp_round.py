"""Restricted-problem machinery: LP relaxation, rounding, enumeration."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from centerstring import (
    BINARY,
    Alphabet,
    FractionalCenter,
    RoundingConfig,
    Seq,
    StringInstance,
    build_restricted,
    cost_string,
    enumerate_small_P,
    restricted_lower_bound,
    round_derandomized,
    round_randomized,
    sample_patch,
    solve_lp,
    solve_restricted,
)
from centerstring.errors import (
    BudgetExceeded,
    DomainError,
    EstimatorAtLeastOne,
    FrameMismatch,
)
from centerstring import lp_round
from centerstring._seeds import MASK64
from centerstring.lp_round import enumeration_threshold, sweep_patches


def binst(*texts):
    return StringInstance.from_texts(BINARY, texts)


def bseq(text):
    return Seq.from_text(BINARY, text)


def on(frame, *positions):
    """The agreement mask over range(frame) that holds at `positions`."""
    mask = np.zeros(frame, dtype=bool)
    mask[list(positions)] = True
    return mask


def patch_cost(p, patch):
    """Max over strings of the fixed cost plus the patch's mismatches on P,
    read from the instance matrix rather than from p.rows."""
    return max(int((s[p.P] != patch).sum()) + f for s, f in zip(p.inst.matrix, p.fixed))


def brute_force_patch_cost(problem):
    """Independent sweep over all patches with plain Python."""
    k = problem.inst.alphabet.size
    best = None
    for digits in itertools.product(range(k), repeat=len(problem.P)):
        worst = 0
        for s, fixed in zip(problem.inst.matrix, problem.fixed.tolist()):
            row = tuple(s[j] for j in problem.P)
            worst = max(worst, sum(1 for x, y in zip(row, digits) if x != y) + fixed)
        if best is None or worst < best:
            best = worst
    return best


def reference_round_derandomized(frac, epsilon_prime):
    """Per-symbol derandomized rounding: one tail array per suffix, one
    lookup (with clip and two wheres) per (position, symbol)."""
    if not 0.0 < epsilon_prime <= 1.0:
        raise DomainError("epsilon_prime must be in (0, 1]")
    p = frac.problem
    np_ = len(p.P)
    n = p.inst.n
    k = p.inst.alphabet.size
    rows = p.inst.matrix[:, p.P]
    w = np.array(frac.weights)
    if np_ == 0:
        return np.zeros(0, dtype=np.uint8)

    bound = frac.objective + epsilon_prime * np_
    thresholds = np.array(
        [math.floor(bound - f + 1e-12) + 1 for f in p.fixed.tolist()], dtype=np.int64
    )
    q = 1.0 - w[np.arange(np_)[None, :], rows]

    tails = [np.empty(0)] * (np_ + 1)
    pmf = np.zeros((n, np_ + 1))
    pmf[:, 0] = 1.0
    tails[np_] = np.flip(np.cumsum(np.flip(pmf, axis=1), axis=1), axis=1)
    for j in range(np_ - 1, -1, -1):
        qj = q[:, j][:, None]
        nxt = pmf * (1.0 - qj)
        nxt[:, 1:] += pmf[:, :-1] * qj
        pmf = nxt
        tails[j] = np.flip(np.cumsum(np.flip(pmf, axis=1), axis=1), axis=1)

    def tail_lookup(j, t_needed):
        remaining = np_ - j
        clamped = np.clip(t_needed, 0, np_)
        vals = tails[j][np.arange(len(t_needed)), clamped]
        return np.where(t_needed <= 0, 1.0, np.where(t_needed > remaining, 0.0, vals))

    estimator = float(tail_lookup(0, thresholds).sum())
    if estimator >= 1.0:
        raise EstimatorAtLeastOne(
            f"failure estimator {estimator:.6f} >= 1 for epsilon_prime={epsilon_prime}"
        )

    choices = []
    accrued = np.zeros(n, dtype=np.int64)
    symbols = np.arange(k, dtype=np.int16)
    for j in range(np_):
        chi = (rows[:, j][:, None] != symbols[None, :]).astype(np.int64)
        best_key = None
        best_sym = 0
        for a in range(k):
            t_needed = thresholds - accrued - chi[:, a]
            score = float(tail_lookup(j + 1, t_needed).sum())
            key = (score, -w[j, a], a)
            if best_key is None or key < best_key:
                best_key, best_sym = key, a
        choices.append(best_sym)
        accrued += chi[:, best_sym]
    return np.array(choices, dtype=np.uint8)


def reference_round_randomized(frac, cfg):
    """Per-trial randomized rounding: draw, score, keep the first minimum."""
    p = frac.problem
    rows = np.array([[s[j] for j in p.P] for s in p.inst.matrix])
    best_patch, best_cost = None, -1
    for t in range(cfg.trials):
        patch = sample_patch(frac, np.random.default_rng((cfg.rng_seed + t) & MASK64))
        cost = int(((rows != patch).sum(axis=1) + p.fixed).max())
        if best_patch is None or cost < best_cost:
            best_patch, best_cost = patch, cost
    return best_patch


def random_restricted(rng, k, np_):
    """A random instance over k symbols with |P| = np_ free positions."""
    alphabet = Alphabet.of("ACGTX"[:k])
    m = np_ + int(rng.integers(0, 4))
    n = int(rng.integers(2, 7))
    inst = StringInstance(
        alphabet,
        [rng.integers(0, k, m) for _ in range(n)],
    )
    q = rng.choice(m, m - np_, replace=False)
    return build_restricted(inst, inst.matrix[int(rng.integers(0, n))], on(m, *q))


def expected_cost_center(p, weights, cut=0.0):
    """A FractionalCenter with the given (|P|, k) weights whose objective is
    the largest expected string cost under them, less `cut`."""
    rows = p.inst.matrix[:, p.P]
    expected = (1.0 - weights[np.arange(len(p.P)), rows]).sum(axis=1) + p.fixed
    objective = max(0.0, float(expected.max()) - cut)
    return FractionalCenter(p, weights, objective)


class TestBuildRestricted:
    def test_examples(self):
        p = build_restricted(binst("00"), bseq("00").arr, on(2, 0, 1))
        assert p.P.tolist() == [] and p.fixed.tolist() == [0] and p.rows.shape == (1, 0)

        p = build_restricted(binst("01", "10"), bseq("00").arr, on(2, 0))
        assert p.P.tolist() == [1] and p.fixed.tolist() == [0, 1]
        assert p.rows.tolist() == [[1], [0]]

        p = build_restricted(binst("111"), bseq("000").arr, on(3, 0, 1, 2))
        assert p.fixed.tolist() == [3]

    def test_rejects_wrong_length_anchor_or_mask(self):
        with pytest.raises(FrameMismatch):
            build_restricted(binst("01", "10"), bseq("01").arr, on(3, 0))
        with pytest.raises(FrameMismatch):
            build_restricted(binst("01", "10"), bseq("010").arr, on(2, 0))
        with pytest.raises(FrameMismatch):
            build_restricted(binst("01", "10"), bseq("010").arr, on(3, 0))

    def test_arrays_are_read_only(self):
        p = build_restricted(binst("010", "101"), bseq("011").arr, on(3, 2))
        frac = solve_lp(p)
        for arr in (p.P, p.anchor, p.rows, p.fixed, frac.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert p.fixed.dtype == np.int64 and frac.weights.shape == (2, 2)

    def test_anchor_is_copied(self):
        anchor = np.array([0, 1, 1], dtype=np.uint8)
        p = build_restricted(binst("010", "101"), anchor, on(3, 2))
        anchor[2] = 0
        assert p.anchor.tolist() == [0, 1, 1]

    def test_fixed_costs_recomputable(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(1, 5))
            inst = StringInstance(
                BINARY,
                [rng.integers(0, 2, m) for _ in range(n)],
            )
            anchor = rng.integers(0, 2, m).astype(np.uint8)
            mask = rng.random(m) < 0.5
            p = build_restricted(inst, anchor, mask)
            for s, row, fc in zip(inst.matrix, p.rows, p.fixed.tolist()):
                assert fc == sum(1 for j in range(m) if mask[j] and s[j] != anchor[j])
                assert row.tolist() == [s[j] for j in range(m) if not mask[j]]
            assert p.P.tolist() == [j for j in range(m) if not mask[j]]


class TestSolveLP:
    def test_all_agree(self):
        p = build_restricted(binst("0", "0"), bseq("0").arr, on(1))
        frac = solve_lp(p)
        assert frac.objective == pytest.approx(0.0, abs=1e-8)
        assert frac.weights[0][0] == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_single_position(self):
        p = build_restricted(binst("0", "1"), bseq("0").arr, on(1))
        frac = solve_lp(p)
        assert frac.objective == pytest.approx(0.5, abs=1e-8)
        assert frac.weights[0][0] == pytest.approx(0.5, abs=1e-6)
        assert frac.weights[0][1] == pytest.approx(0.5, abs=1e-6)

    def test_symmetric_two_positions(self):
        p = build_restricted(binst("00", "11"), bseq("00").arr, on(2))
        frac = solve_lp(p)
        assert frac.objective == pytest.approx(1.0, abs=1e-8)

    def test_simplex_rows_sum_to_one(self):
        p = build_restricted(binst("010", "101", "110"), bseq("000").arr, on(3))
        frac = solve_lp(p)
        for row in frac.weights:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_requires_free_positions(self):
        p = build_restricted(binst("0"), bseq("0").arr, on(1, 0))
        with pytest.raises(DomainError):
            solve_lp(p)

    def test_matrices_match_loop_reference(self, monkeypatch):
        import scipy.optimize

        seen = {}
        real = scipy.optimize.linprog

        def recording(c, **kw):
            seen.update(kw)
            return real(c, **kw)

        monkeypatch.setattr(scipy.optimize, "linprog", recording)
        dna = Alphabet.of("ACGT")
        inst = StringInstance.from_texts(dna, ["ACGTTA", "CCGTAA", "GTGTCA"])
        p = build_restricted(inst, inst.matrix[0], on(6, 2, 3))
        solve_lp(p)
        k, np_, n = 4, len(p.P), inst.n
        a_eq = np.zeros((np_, 1 + np_ * k))
        a_ub = np.zeros((n, 1 + np_ * k))
        a_ub[:, 0] = -1.0
        for j, pos in enumerate(p.P):
            a_eq[j, 1 + j * k:1 + (j + 1) * k] = 1.0
            for i, s in enumerate(inst.matrix):
                for a in range(k):
                    if s[pos] != a:
                        a_ub[i, 1 + j * k + a] = 1.0
        assert np.array_equal(seen["A_eq"], a_eq) and seen["A_eq"].dtype == a_eq.dtype
        assert np.array_equal(seen["A_ub"], a_ub) and seen["A_ub"].dtype == a_ub.dtype
        bounds = np.array([(0.0, np.inf)] + [(0.0, 1.0)] * (np_ * k))
        assert np.array_equal(seen["bounds"], bounds) and seen["bounds"].dtype == bounds.dtype

    def test_import_leaves_scipy_unloaded(self):
        # scipy.optimize is most of the package's start-up time, so the
        # LP solver is imported only when the first LP is solved
        code = "import centerstring, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": str(Path(lp_round.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestSweepPatches:
    @pytest.mark.parametrize("grouped", [False, True])
    def test_first_minimum_across_chunks(self, grouped):
        # every row comes with its complement (the pair forms one group when
        # grouped), so each patch ties with its complement, which lies in the
        # other half of the lexicographic order and so in a later chunk
        rng = np.random.default_rng(23)
        half = rng.integers(0, 2, (32, 15)).astype(np.int16)
        rows = np.stack([half, 1 - half], axis=1).reshape(64, 15)
        fixed = rng.integers(0, 3, 32).repeat(2)
        patches = np.array(list(itertools.product(range(2), repeat=15)), dtype=np.int16)
        per_row = (patches[:, None, :] != rows[None, :, :]).sum(axis=2) + fixed
        if grouped:
            costs = per_row.reshape(len(patches), 32, 2).min(axis=2).max(axis=1)
            starts = np.arange(0, 64, 2)
        else:
            costs = per_row.max(axis=1)
            starts = None
        best = int(np.argmin(costs))
        expected = (int(costs[best]), tuple(int(v) for v in patches[best]))
        assert sweep_patches(rows, fixed, 2, starts) == expected

    def test_cross_chunk_case_spans_two_chunks(self, monkeypatch):
        # the inputs of test_first_minimum_across_chunks: the winner and the
        # complement it ties with must be scored in different chunks
        chunk_lengths = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argmin(self, a):
                chunk_lengths.append(len(a))
                return np.argmin(a)

        rng = np.random.default_rng(23)
        half = rng.integers(0, 2, (32, 15)).astype(np.int16)
        rows = np.stack([half, 1 - half], axis=1).reshape(64, 15)
        fixed = rng.integers(0, 3, 32).repeat(2)
        expected = sweep_patches(rows, fixed, 2)
        monkeypatch.setattr(lp_round, "np", CountingNumpy())
        assert sweep_patches(rows, fixed, 2) == expected
        assert sum(chunk_lengths) == 2 ** 15
        winner = int("".join(map(str, expected[1])), 2)
        bounds = np.cumsum(chunk_lengths)
        chunk_of = lambda patch_id: int(np.searchsorted(bounds, patch_id, side="right"))
        assert chunk_of(winner) != chunk_of(2 ** 15 - 1 - winner)

    @pytest.mark.parametrize("cells", [1, 64, 1 << 20])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_brute_force(self, monkeypatch, cells, k):
        # small random rows tie often, so chunk borders split tied patches
        monkeypatch.setattr(lp_round, "_SWEEP_CELLS", cells)
        rng = np.random.default_rng(1000 * k + cells)
        for np_ in range(7):
            patches = np.array(list(itertools.product(range(k), repeat=np_)), dtype=np.int64)
            patches = patches.reshape(k ** np_, np_)
            for nrows in range(1, 8):
                rows = rng.integers(0, k, (nrows, np_)).astype(np.uint8)
                fixed = rng.integers(0, 3, nrows)
                per_row = (patches[:, None, :] != rows[None, :, :]).sum(axis=2) + fixed
                cuts = sorted(set(rng.integers(1, nrows, 2).tolist())) if nrows > 1 else []
                for starts in (None, np.array([0, *cuts])):
                    bounds = [0, *cuts, nrows] if starts is not None else range(nrows + 1)
                    scores = np.stack(
                        [per_row[:, s:e].min(axis=1) for s, e in zip(bounds, bounds[1:])]
                    ).max(axis=0)
                    best = int(np.argmin(scores))
                    expected = (int(scores[best]), tuple(int(v) for v in patches[best]))
                    assert sweep_patches(rows, fixed, k, starts) == expected, (np_, nrows, starts)

    def test_empty_patch(self):
        rows = np.zeros((3, 0), dtype=np.int16)
        assert sweep_patches(rows, np.array([2, 0, 1]), 4) == (2, ())
        assert sweep_patches(rows, np.array([2, 0, 1]), 4, np.array([0, 2])) == (1, ())


class TestEnumerate:
    def test_empty_p(self):
        p = build_restricted(binst("00"), bseq("11").arr, on(2, 0, 1))
        patch = enumerate_small_P(p)
        assert patch.shape == (0,) and patch.dtype == np.uint8

    def test_tie_breaks_lexicographic(self):
        p = build_restricted(binst("01", "10"), bseq("00").arr, on(2))
        assert enumerate_small_P(p).tolist() == [0, 0]

        p = build_restricted(binst("000", "011"), bseq("000").arr, on(3, 0))
        assert enumerate_small_P(p).tolist() == [0, 1]

    def test_budget(self):
        p = build_restricted(binst("0000000"), bseq("0000000").arr, on(7))
        with pytest.raises(BudgetExceeded):
            enumerate_small_P(p, budget=100)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 5))
            inst = StringInstance(
                BINARY,
                [rng.integers(0, 2, m) for _ in range(n)],
            )
            anchor = rng.integers(0, 2, m).astype(np.uint8)
            mask = rng.random(m) < 0.4
            p = build_restricted(inst, anchor, mask)
            assert patch_cost(p, enumerate_small_P(p)) == brute_force_patch_cost(p)


class TestRestrictedLowerBound:
    def test_examples(self):
        # d_P = 3 between the two rows: ceil(3 / 2) = 2, the optimum
        p = build_restricted(binst("000", "111"), bseq("000").arr, on(3))
        assert restricted_lower_bound(p) == 2 == brute_force_patch_cost(p)
        # no free positions: the bound is the anchor's own cost
        p = build_restricted(binst("0011", "0101"), bseq("0000").arr, on(4, 0, 1, 2, 3))
        assert restricted_lower_bound(p) == 2 == cost_string(p.inst, bseq("0000"))
        # equal rows on P, fixed costs (0, 2): a single fixed cost is a bound
        p = build_restricted(binst("0000", "0011"), bseq("0000").arr, on(4, 2, 3))
        assert p.fixed.tolist() == [0, 2]
        assert restricted_lower_bound(p) == 2 == brute_force_patch_cost(p)
        # fixed costs (1, 1) and d_P = 1: ceil((1 + 1 + 1) / 2) = 2
        p = build_restricted(binst("100", "011"), bseq("000").arr, on(3, 0, 1))
        assert p.fixed.tolist() == [1, 1]
        assert restricted_lower_bound(p) == 2 == brute_force_patch_cost(p)

    def test_below_exact_restricted_optimum(self):
        rng = np.random.default_rng(19)
        met = strict = 0
        for trial in range(300):
            k = (2, 3, 4)[trial % 3]
            alphabet = Alphabet.of("ACGT"[:k])
            np_ = int(rng.integers(0, 9))
            m = max(1, np_ + int(rng.integers(0, 5)))
            n = int(rng.integers(1, 8))
            inst = StringInstance(
                alphabet, [rng.integers(0, k, m) for _ in range(n)]
            )
            anchor = rng.integers(0, k, m).astype(np.uint8)
            p = build_restricted(inst, anchor, on(m, *rng.choice(m, m - np_, replace=False)))
            optimum = patch_cost(p, enumerate_small_P(p))
            bound = restricted_lower_bound(p)
            assert bound <= optimum, (trial, bound, optimum)
            met += bound == optimum
            strict += bound < optimum
        assert met > 50 and strict > 0


class TestRounding:
    def test_integral_fraction_is_preserved(self):
        p = build_restricted(binst("00", "11"), bseq("00").arr, on(2))
        frac = FractionalCenter(p, np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        cfg = RoundingConfig(trials=4, epsilon_prime=1.0, rng_seed=0)
        assert round_randomized(frac, cfg).tolist() == [0, 1]
        assert round_derandomized(frac, 1.0).tolist() == [0, 1]

    def test_randomized_is_reproducible(self):
        p = build_restricted(binst("0", "1"), bseq("0").arr, on(1))
        frac = solve_lp(p)
        cfg = RoundingConfig(trials=1, epsilon_prime=1.0, rng_seed=123)
        first = round_randomized(frac, cfg)
        assert first.tolist() in ([0], [1]) and first.dtype == np.uint8
        for _ in range(5):
            assert np.array_equal(round_randomized(frac, cfg), first)

    def test_symmetric_instance_cost_never_above_two(self):
        p = build_restricted(binst("00", "11"), bseq("00").arr, on(2))
        frac = solve_lp(p)
        hit_one = 0
        for seed in range(32):
            cfg = RoundingConfig(trials=1, epsilon_prime=1.0, rng_seed=seed)
            cost = patch_cost(p, round_randomized(frac, cfg))
            assert cost <= 2
            hit_one += cost == 1
        assert hit_one > 16  # 2 of the 4 equally likely patches cost 1

    def test_derandomized_single_position(self):
        p = build_restricted(binst("0", "1"), bseq("0").arr, on(1))
        frac = solve_lp(p)
        cost = patch_cost(p, round_derandomized(frac, 1.0))
        assert cost == 1 <= frac.objective + 1.0 * 1

    def test_derandomized_respects_bound_on_random_instances(self):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(200):
            m = int(rng.integers(2, 11))
            n = int(rng.integers(2, 6))
            inst = StringInstance(
                BINARY,
                [rng.integers(0, 2, m) for _ in range(n)],
            )
            mask = rng.random(m) < 0.3
            p = build_restricted(inst, inst.matrix[0], mask)
            if not len(p.P):
                continue
            eps = float(rng.choice([0.5, 0.8, 1.0]))
            frac = solve_lp(p)
            try:
                patch = round_derandomized(frac, eps)
            except EstimatorAtLeastOne:
                continue
            checked += 1
            cost = patch_cost(p, patch)
            assert cost <= math.floor(frac.objective + eps * len(p.P) + 1e-9)
        assert checked > 50

    def test_derandomized_matches_per_symbol_reference(self):
        # LP weights rarely leave the estimator at >= 1; random weights with
        # an objective cut below their expected cost often do
        rng = np.random.default_rng(31)
        outcomes = {"lp": [0, 0], "random": [0, 0]}
        for k in (2, 3, 4):
            for _ in range(40):
                p = random_restricted(rng, k, int(rng.integers(1, 41)))
                weights = rng.dirichlet(np.ones(k), len(p.P))
                cut = expected_cost_center(p, weights, float(rng.uniform(0.3, 1.2)) * len(p.P))
                for kind, frac in (("lp", solve_lp(p)), ("random", cut)):
                    for eps in (0.5, 0.8, 1.0):
                        try:
                            expected = reference_round_derandomized(frac, eps)
                        except EstimatorAtLeastOne as exc:
                            outcomes[kind][1] += 1
                            with pytest.raises(EstimatorAtLeastOne) as got:
                                round_derandomized(frac, eps)
                            assert str(got.value) == str(exc)
                        else:
                            outcomes[kind][0] += 1
                            assert np.array_equal(round_derandomized(frac, eps), expected)
        assert outcomes["lp"][0] > 300 and min(outcomes["random"]) > 50, outcomes

    def test_derandomized_ties_match_per_symbol_reference(self):
        # uniform and tied weights make several symbols score alike, so the
        # (score, -weight, symbol) tie-break decides
        rng = np.random.default_rng(37)
        rounded = 0
        for k in (2, 3, 4):
            for trial in range(30):
                p = random_restricted(rng, k, int(rng.integers(1, 13)))
                if trial % 3 == 0:
                    weights = np.full((len(p.P), k), 1.0 / k)
                else:
                    weights = rng.choice([0.0, 0.25, 0.5], (len(p.P), k))
                    weights[np.arange(len(p.P)), rng.integers(0, k, len(p.P))] += 0.5
                    weights /= weights.sum(axis=1, keepdims=True)
                frac = expected_cost_center(p, weights)
                for eps in (0.5, 1.0):
                    try:
                        expected = reference_round_derandomized(frac, eps)
                    except EstimatorAtLeastOne:
                        with pytest.raises(EstimatorAtLeastOne):
                            round_derandomized(frac, eps)
                    else:
                        rounded += 1
                        assert np.array_equal(round_derandomized(frac, eps), expected)
        assert rounded > 30

    def test_estimator_of_exactly_one_raises(self):
        # the only string mismatches the one free position with certainty,
        # and any mismatch breaks objective + eps' * |P| = 0.5
        p = build_restricted(binst("1"), bseq("0").arr, on(1))
        frac = FractionalCenter(p, np.array([[1.0, 0.0]]), 0.0)
        for rounding in (reference_round_derandomized, round_derandomized):
            with pytest.raises(EstimatorAtLeastOne, match="1.000000 >= 1"):
                rounding(frac, 0.5)

    def test_randomized_matches_per_trial_reference(self):
        rng = np.random.default_rng(43)
        for k in (2, 3, 4):
            for _ in range(30):
                p = random_restricted(rng, k, int(rng.integers(1, 21)))
                frac = solve_lp(p)
                cfg = RoundingConfig(
                    trials=int(rng.integers(1, 40)), rng_seed=int(rng.integers(0, 2**63))
                )
                got = round_randomized(frac, cfg)
                assert np.array_equal(got, reference_round_randomized(frac, cfg))

    def test_sample_patch_matches_expected_cost(self):
        # E[d(s_i|P, x)] equals the chi-weighted sum of the weights
        p = build_restricted(binst("00", "11"), bseq("00").arr, on(2))
        frac = FractionalCenter(p, np.full((2, 2), 0.5), 1.0)
        rng = np.random.default_rng(41)
        draws = 4000
        totals = np.zeros(2)
        for _ in range(draws):
            patch = sample_patch(frac, rng)
            for i, s in enumerate(p.inst.matrix):
                totals[i] += sum(1 for x, y in zip(s, patch) if x != y)
        for i in range(2):
            mean = totals[i] / draws
            # each position mismatches with probability 1/2
            se = math.sqrt(2 * 0.25 / draws)
            assert abs(mean - 1.0) <= 3 * se


class TestSolveRestricted:
    def test_identical_instance(self):
        p = build_restricted(binst("0101", "0101"), bseq("0101").arr, on(4))
        row, cost = solve_restricted(p, RoundingConfig())
        assert cost == 0 and row.tolist() == [0, 1, 0, 1]

    def test_symmetric_pair(self):
        p = build_restricted(binst("00", "11"), bseq("00").arr, on(2))
        row, cost = solve_restricted(p, RoundingConfig())
        assert cost == 1

    def test_threshold_value(self):
        assert enumeration_threshold(3, 0.5) == pytest.approx(4 * math.log(3) / 0.25)
        assert 17.5 < enumeration_threshold(3, 0.5) < 17.6

    def test_center_composes_anchor(self):
        inst = binst("0011", "1100")
        p = build_restricted(inst, bseq("0110").arr, on(4, 0, 3))
        row, cost = solve_restricted(p, RoundingConfig())
        assert row.dtype == np.uint8 and [row[0], row[3]] == [0, 0]
        assert cost == cost_string(inst, Seq(BINARY, row))

    @pytest.mark.parametrize("path", ["sweep", "derandomized", "randomized"])
    def test_cost_and_anchor_on_every_path(self, monkeypatch, path):
        # the returned cost, read from fixed and rows, is the cost of the
        # returned row over the instance, and the row keeps the anchor on Q
        taken = []
        for name in ("enumerate_small_P", "round_derandomized", "round_randomized"):
            def spy(*args, _name=name, _fn=getattr(lp_round, name), **kwargs):
                taken.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(lp_round, name, spy)
        # at eps' = 0.3 every |P| <= 11 lies under the enumeration threshold;
        # budget 1 sends every |P| >= 1 problem to the LP
        mode, eps, budget = {
            "sweep": ("auto", 0.3, lp_round.DEFAULT_ENUM_BUDGET),
            "derandomized": ("derandomized", 1.0, 1),
            "randomized": ("randomized", 1.0, 1),
        }[path]
        cfg = RoundingConfig(mode=mode, trials=4, epsilon_prime=eps, rng_seed=5)
        rng = np.random.default_rng(61)
        solved = 0
        for _ in range(30):
            k = int(rng.integers(2, 5))
            alpha = Alphabet.of("ABCD"[:k])
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 12))
            inst = StringInstance(alpha, [rng.integers(0, k, m) for _ in range(n)])
            anchor = rng.integers(0, k, m).astype(np.uint8)
            on_q = rng.random(m) < 0.4
            p = build_restricted(inst, anchor, on_q)
            taken.clear()
            try:
                row, cost = solve_restricted(p, cfg, enum_budget=budget)
            except EstimatorAtLeastOne:
                continue
            if len(p.P):
                assert taken[-1] == ("enumerate_small_P" if path == "sweep" else f"round_{path}")
            solved += 1
            assert row.shape == (m,) and row.dtype == np.uint8
            assert np.array_equal(row[on_q], anchor[on_q])
            assert cost == cost_string(inst, Seq(alpha, row))
        assert solved >= 10

    def test_deterministic_across_modes_with_seed(self):
        inst = binst("010101010101", "101010101010", "001100110011")
        p = build_restricted(inst, inst.matrix[0], on(12))
        for mode in ("randomized", "derandomized", "auto"):
            cfg = RoundingConfig(mode=mode, trials=8, epsilon_prime=1.0, rng_seed=99)
            a = solve_restricted(p, cfg)
            b = solve_restricted(p, cfg)
            assert np.array_equal(a[0], b[0]) and a[1] == b[1]
