"""Restricted-problem machinery: LP relaxation, rounding, enumeration."""

import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from centerstring import (
    BINARY,
    Alphabet,
    ClosestStringConfig,
    FractionalCenter,
    RoundingConfig,
    Seq,
    StringInstance,
    build_restricted,
    cost_string,
    enumerate_small_P,
    round_derandomized,
    round_randomized,
    sample_patch,
    solve_closest_string,
    solve_lp,
    solve_restricted,
)
from centerstring.errors import (
    BudgetExceeded,
    DomainError,
    EstimatorAtLeastOne,
    FrameMismatch,
    NumericalFailure,
)
from centerstring import lp_round
from centerstring._seeds import MASK64
from centerstring.closest_string import subset_bounds
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


def pair_bound(p):
    """The pair bound of p by plain loops over string pairs and positions,
    from the instance's strings, the anchor and the free positions P alone:
    the largest ceil((f_i + f_j + d_P(s_i, s_j)) / 2) over pairs i, j,
    i = j included, f_i counting string i's mismatches with the anchor
    off P and d_P the pair's differences on P."""
    strings, anchor, free = p.inst.matrix.tolist(), p.anchor.tolist(), p.P.tolist()
    fixed = [sum(s[c] != anchor[c] for c in range(len(anchor)) if c not in free) for s in strings]
    best = 0
    for i, si in enumerate(strings):
        for j, sj in enumerate(strings):
            d = sum(si[c] != sj[c] for c in free)
            best = max(best, -(-(fixed[i] + fixed[j] + d) // 2))
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


def full_table_round_derandomized(frac, epsilon_prime):
    """The derandomized rounding with every string in the tail table, live
    or not: a (|P|+1, n, |P|+2) table, one (k, n) lookup per position."""
    if not 0.0 < epsilon_prime <= 1.0:
        raise DomainError("epsilon_prime must be in (0, 1]")
    p = frac.problem
    n, np_ = p.rows.shape
    k = p.inst.alphabet.size
    w = frac.weights
    if np_ == 0:
        return np.zeros(0, dtype=np.uint8)

    bound = frac.objective + epsilon_prime * np_
    thresholds = np.floor(bound - p.fixed + 1e-12).astype(np.int64) + 1
    q = 1.0 - w[np.arange(np_)[None, :], p.rows]

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

    chi = (p.rows.T[:, None, :] != np.arange(k)[:, None]).astype(np.int64)
    neg_w = (-w).tolist()
    choices = []
    left = thresholds.copy()
    for j in range(np_):
        t_needed = np.minimum(np.maximum(left - chi[j], 0), last)
        scores = tails[j + 1, strings, t_needed].sum(axis=1).tolist()
        best = min(range(k), key=lambda a: (scores[a], neg_w[j][a], a))
        choices.append(best)
        left -= chi[j, best]
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


def random_restricted(rng, k, np_, extra=4):
    """A random instance over k symbols with |P| = np_ free positions and
    fewer than `extra` agreement positions."""
    alphabet = Alphabet.of("ACGTX"[:k])
    m = np_ + int(rng.integers(0, extra))
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


def tail_cells(frac, epsilon_prime):
    """The cells of round_derandomized's tail table for frac, (|P|+1) *
    #live * (|P|+2), the live strings counted from their thresholds; 0
    when no string is live and no table is built."""
    np_ = len(frac.problem.P)
    bound = frac.objective + epsilon_prime * np_
    live = int((np.floor(bound - frac.problem.fixed + 1e-12) + 1 <= np_).sum())
    return (np_ + 1) * live * (np_ + 2) if live else 0


def tail_capped(rng):
    """An LP solution of a random binary 8 x 400 problem, every position
    free, whose tail table at eps' = 0.5 has live strings, and its cells."""
    inst = StringInstance(BINARY, rng.integers(0, 2, (8, 400)))
    frac = solve_lp(build_restricted(inst, inst.matrix[0], np.zeros(400, dtype=bool)))
    cells = tail_cells(frac, 0.5)
    assert cells > 0
    return frac, cells


def record_highs_solvers(monkeypatch):
    """Make every HiGHS solver object solve_lp creates from now on list
    itself in the returned list, in order.  A thread that solved an LP
    before keeps the solver it made then."""
    highs = lp_round._highs()
    solvers = []

    class Recording(highs._Highs):
        def __init__(self):
            super().__init__()
            solvers.append(self)

    monkeypatch.setattr(highs, "_Highs", Recording)
    return solvers


def linprog_solve_lp(p, presolve=False):
    """solve_lp through scipy.optimize.linprog: the string rows as A_ub,
    the simplex rows as A_eq, the same variables, bounds, HiGHS options
    (presolve off, as solve_lp runs it) and post-processing."""
    from scipy import sparse
    from scipy.optimize import linprog

    n, np_ = p.rows.shape
    k = p.inst.alphabet.size
    nvars = 1 + np_ * k
    var = np.arange(np_ * k)
    a_eq = sparse.coo_array((np.ones(np_ * k), (var // k, var + 1)), shape=(np_, nvars))
    chi = (p.rows[:, :, None] != np.arange(k)).reshape(n, np_ * k)
    a_ub = sparse.coo_array(np.hstack([np.full((n, 1), -1.0), chi]))
    c = np.zeros(nvars)
    c[0] = 1.0
    bounds = np.tile([0.0, 1.0], (nvars, 1))
    bounds[0, 1] = np.inf
    res = linprog(
        c, A_ub=a_ub, b_ub=-p.fixed.astype(float), A_eq=a_eq, b_eq=np.ones(np_),
        bounds=bounds, method="highs", options={"presolve": presolve},
    )
    assert res.success
    objective = max(0.0, math.ceil(res.fun / lp_round.LP_TOLERANCE) * lp_round.LP_TOLERANCE)
    w = np.clip(res.x[1:].reshape(np_, k), 0.0, 1.0)
    w /= w.sum(axis=1, keepdims=True)
    return FractionalCenter(p, w, float(objective))


# changes to the arrays solve_lp hands HiGHS, each with the model status
# HiGHS then reports
SPOILERS = [
    # d free to grow: minimizing -d is unbounded
    (lambda lp: lp._replace(col_cost=-lp.col_cost), "Unbounded"),
    # the last position's weights, each at most 1, cannot sum to 3
    (lambda lp: lp._replace(row_lower=np.append(lp.row_lower[:-1], 3.0)), "Infeasible"),
    # a row index past the last row: passModel refuses the model
    (lambda lp: lp._replace(a_index=np.append(np.int32(lp.num_row), lp.a_index[1:])), "Model error"),
]
SPOILER_IDS = ["unbounded", "infeasible", "model-error"]


def spoil_highs(monkeypatch, spoil):
    """Make solve_lp hand HiGHS spoil(lp) in place of each LP lp."""
    run_highs = lp_round._run_highs
    monkeypatch.setattr(lp_round, "_run_highs", lambda lp: run_highs(spoil(lp)))


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

    def test_matrices_match_loop_reference(self):
        dna = Alphabet.of("ACGT")
        inst = StringInstance.from_texts(dna, ["ACGTTA", "CCGTAA", "GTGTCA"])
        p = build_restricted(inst, inst.matrix[0], on(6, 2, 3))
        solve_lp(p)
        k, np_, n = 4, len(p.P), inst.n
        nvars = 1 + np_ * k
        # the n string rows, then the |P| simplex rows
        a = np.zeros((n + np_, nvars))
        a[:n, 0] = -1.0
        for j, pos in enumerate(p.P):
            a[n + j, 1 + j * k:1 + (j + 1) * k] = 1.0
            for i, s in enumerate(inst.matrix):
                for sym in range(k):
                    if s[pos] != sym:
                        a[i, 1 + j * k + sym] = 1.0
        fixed = [sum(s[q] != inst.matrix[0][q] for q in (2, 3)) for s in inst.matrix]
        solver = lp_round._thread_solver()
        lp = solver.getLp()  # the model HiGHS holds
        assert (lp.num_row_, lp.num_col_) == a.shape
        matrix = lp.a_matrix_
        assert matrix.format_ == type(matrix.format_).kColwise
        data = np.asarray(matrix.value_)
        # sparse, with no explicit zeros stored
        dense = np.zeros(a.shape)
        for col in range(nvars):
            cells = slice(matrix.start_[col], matrix.start_[col + 1])
            dense[np.asarray(matrix.index_[cells]), col] = data[cells]
        assert np.array_equal(dense, a) and data.dtype == a.dtype
        assert np.count_nonzero(data) == len(data) == matrix.start_[-1] == np.count_nonzero(a)
        assert np.array_equal(lp.row_lower_, [-np.inf] * n + [1.0] * np_)
        assert np.array_equal(lp.row_upper_, [-float(f) for f in fixed] + [1.0] * np_)
        assert np.array_equal(lp.col_cost_, [1.0] + [0.0] * (np_ * k))
        assert np.array_equal(lp.col_lower_, np.zeros(nvars))
        assert np.array_equal(lp.col_upper_, [np.inf] + [1.0] * (np_ * k))
        assert list(lp.integrality_) == [lp_round._highs().HighsVarType.kContinuous] * nvars
        assert solver.getOptionValue("presolve")[1] == "off"
        assert solver.getOptionValue("log_to_console")[1] is False

    def test_compressed_columns_match_loop_reference(self, monkeypatch):
        # the start and row index arrays handed to HiGHS, against columns
        # listed by loops, on random LPs down to one string and one free
        # position
        handed = []
        run_highs = lp_round._run_highs
        monkeypatch.setattr(lp_round, "_run_highs", lambda lp: handed.append(lp) or run_highs(lp))
        rng = np.random.default_rng(83)
        for t in range(60):
            k, n, np_ = (2, 3, 4)[t % 3], 1 + t % 5, 1 + int(rng.integers(0, 12))
            inst = StringInstance(Alphabet.of("ACGT"[:k]), rng.integers(0, k, (n, np_)))
            p = build_restricted(inst, inst.matrix[0], np.zeros(np_, dtype=bool))
            solve_lp(p)
            columns = [list(range(n))]  # d
            for j in range(np_):
                for a in range(k):
                    columns.append([i for i in range(n) if p.rows[i, j] != a] + [n + j])
            lp = handed[-1]
            starts = np.cumsum([0] + [len(c) for c in columns[:-1]])
            assert lp.a_start.dtype == lp.a_index.dtype == np.int32
            assert lp.a_start.tolist() == starts.tolist()
            assert lp.a_index.tolist() == [i for c in columns for i in c]
            assert lp.num_nz == len(lp.a_index) == len(lp.a_value)

    def test_no_state_carries_over_between_lps(self, monkeypatch):
        # A solved after B on the same solver gives A's first result, and
        # each thread makes its own solver once
        solvers = record_highs_solvers(monkeypatch)
        rng = np.random.default_rng(71)
        lp_a, lp_b = random_restricted(rng, 4, 25), random_restricted(rng, 4, 25)
        results = {}

        def run(name):
            first, _, again = solve_lp(lp_a), solve_lp(lp_b), solve_lp(lp_a)
            results[name] = first, again, lp_round._thread_solver()

        threads = [threading.Thread(target=run, args=(name,)) for name in "xy"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for first, again, _ in results.values():
            assert again.weights.tobytes() == first.weights.tobytes()
            assert repr(again.objective) == repr(first.objective)
        assert results["x"][0].weights.tobytes() == results["y"][0].weights.tobytes()
        assert sorted(map(id, solvers)) == sorted(id(r[2]) for r in results.values())
        assert len(solvers) == 2

    @pytest.mark.parametrize("spoil, status", SPOILERS, ids=SPOILER_IDS)
    def test_spoiled_lp_leaves_nothing_behind(self, monkeypatch, spoil, status):
        # after an LP that ends unbounded, infeasible or refused, the next
        # good LP on the same solver returns its first result
        good = random_restricted(np.random.default_rng(73), 3, 20)
        first = solve_lp(good)
        spoiled = build_restricted(binst("01", "10"), bseq("00").arr, on(2))
        with monkeypatch.context() as m:
            spoil_highs(m, spoil)
            with pytest.raises(NumericalFailure, match=f"^LP solver failed: {status}$"):
                solve_lp(spoiled)
        again = solve_lp(good)
        assert again.weights.tobytes() == first.weights.tobytes()
        assert repr(again.objective) == repr(first.objective)

    def test_threads_match_serial_bit_for_bit(self):
        # every thread of a pool solves on its own solver and returns the
        # vertex a serial run returns
        rng = np.random.default_rng(79)
        problems = [
            random_restricted(rng, (2, 3, 4)[t % 3], int(rng.integers(1, 30))) for t in range(300)
        ]
        serial = [solve_lp(p) for p in problems]
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(solve_lp, problems))
        for a, b in zip(serial, threaded):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert repr(a.objective) == repr(b.objective)

    def test_matches_linprog_reference_bit_for_bit(self):
        # the rounding layers read the exact LP vertex, so solve_lp must
        # return what linprog(method="highs") returns on the same LP without
        # presolve, split into inequality and equality blocks; the optimum
        # value is unique even where the vertex is not, so presolve on
        # reaches the same objective within the tolerance
        rng = np.random.default_rng(61)
        sizes = set()
        for t in range(100):
            k = (2, 3, 4)[t % 3]
            p = random_restricted(rng, k, 1 if t % 10 == 0 else int(rng.integers(1, 40)))
            expected = linprog_solve_lp(p)
            got = solve_lp(p)
            assert got.weights.tobytes() == expected.weights.tobytes()
            assert repr(got.objective) == repr(expected.objective)
            presolved = linprog_solve_lp(p, presolve=True)
            assert abs(got.objective - presolved.objective) <= lp_round.LP_TOLERANCE
            sizes.add(len(p.P))
        assert 1 in sizes and len(sizes) > 20

    def test_failed_solver_raises_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(lp_round, "_run_highs", lambda lp: ("solver gave up", None, None))
        p = build_restricted(binst("01", "10"), bseq("00").arr, on(2))
        with pytest.raises(NumericalFailure, match="^LP solver failed: solver gave up$"):
            solve_lp(p)

    @pytest.mark.parametrize("spoil, status", SPOILERS, ids=SPOILER_IDS)
    def test_non_optimal_highs_status_raises_numerical_failure(self, monkeypatch, spoil, status):
        spoil_highs(monkeypatch, spoil)
        p = build_restricted(binst("01", "10"), bseq("00").arr, on(2))
        with pytest.raises(NumericalFailure, match=f"^LP solver failed: {status}$"):
            solve_lp(p)

    def test_memory_linear_in_free_positions(self):
        # a dense simplex block would hold |P| * (1 + |P|*k) float64s, about
        # 72 MB here, before the solver copies it
        rng = np.random.default_rng(67)
        n, np_, k = 4, 1500, 4
        inst = StringInstance(Alphabet.of("ACGT"), rng.integers(0, k, (n, np_)))
        p = build_restricted(inst, inst.matrix[0], np.zeros(np_, dtype=bool))
        solve_lp(p)  # scipy's imports and caches stay off the count
        tracemalloc.start()
        try:
            solve_lp(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < np_ * (1 + np_ * k) * 8 / 10

    def test_import_leaves_scipy_unloaded(self):
        # scipy is most of the package's start-up time, so HiGHS is loaded
        # only when the first LP is solved
        code = "import centerstring, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert run_fresh(code).strip() == "[]"


def run_fresh(code):
    """What `code` prints, run in a fresh interpreter that imports this
    checkout's centerstring."""
    env = {**os.environ, "PYTHONPATH": str(Path(lp_round.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    ).stdout


class TestHighsLoader:
    """lp_round._highs loads scipy's HiGHS extension without scipy.optimize;
    each case runs in a fresh interpreter, where nothing loaded it yet."""

    def test_lp_path_solve_leaves_scipy_optimize_unloaded(self):
        # a random DNA instance; at enum_budget=1 every subset solved with
        # a free position takes the restricted LP
        code = """
import json, sys
import numpy as np
from centerstring import Alphabet, ClosestStringConfig, StringInstance, lp_round, solve_closest_string
inst = StringInstance(Alphabet.of("ACGT"), np.random.default_rng(89).integers(0, 4, (5, 14)))
lps = []
run_highs = lp_round._run_highs
lp_round._run_highs = lambda lp: lps.append(lp) or run_highs(lp)
sol = solve_closest_string(inst, ClosestStringConfig(enum_budget=1))
print(json.dumps([list(sol.center.data), sol.radius, list(sol.witnesses), len(lps)]))
print('scipy.optimize' in sys.modules, lp_round._highs().__name__)
"""
        solved, loaded = run_fresh(code).splitlines()
        center, radius, witnesses, lps = json.loads(solved)
        inst = StringInstance(Alphabet.of("ACGT"), np.random.default_rng(89).integers(0, 4, (5, 14)))
        sol = solve_closest_string(inst, ClosestStringConfig(enum_budget=1))
        assert (center, radius, witnesses) == (list(sol.center.data), sol.radius, list(sol.witnesses))
        assert lps > 0
        assert loaded == "False scipy.optimize._highspy._core"

    def test_scipy_optimize_after_the_loader_reuses_its_module(self):
        code = (
            "from centerstring import lp_round\n"
            "highs = lp_round._highs()\n"
            "from scipy.optimize import linprog\n"
            "from scipy.optimize._highspy import _core\n"
            "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method='highs')\n"
            "print(_core is highs, res.status, res.x.tolist(), res.fun)\n"
        )
        assert run_fresh(code).split() == ["True", "0", "[1.0,", "0.0]", "1.0"]

    def test_loader_after_scipy_optimize_returns_its_module(self):
        code = (
            "import scipy.optimize\n"
            "from scipy.optimize._highspy import _core\n"
            "from centerstring import lp_round\n"
            "print(lp_round._highs() is _core)\n"
        )
        assert run_fresh(code).strip() == "True"

    def test_threads_loading_at_once_share_one_module(self):
        # four threads, more than the cores, reach their first LP at one
        # barrier with a short switch interval; the extension is built
        # into a module once, and every thread's weights equal a serial
        # run's in the same process
        code = """
import importlib.util, json, sys, threading
import numpy as np
from centerstring import Alphabet, StringInstance, build_restricted, lp_round, solve_lp
rng = np.random.default_rng(97)
problems = []
for t in range(4):
    inst = StringInstance(Alphabet.of("ACGT"), rng.integers(0, 4, (6, 20)))
    problems.append(build_restricted(inst, inst.matrix[0], rng.random(20) < 0.2))
made = []
module_from_spec = importlib.util.module_from_spec
importlib.util.module_from_spec = lambda spec: made.append(spec.name) or module_from_spec(spec)
barrier = threading.Barrier(4, timeout=30)
results = [None] * 4
def first_lp(t):
    barrier.wait()
    results[t] = solve_lp(problems[t]).weights.tobytes(), lp_round._highs()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=first_lp, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
assert not any(th.is_alive() for th in threads)
serial = [solve_lp(p).weights.tobytes() for p in problems]
print(json.dumps([
    made, len({id(r[1]) for r in results}), results[0][1] is sys.modules[lp_round._HIGHS_MODULE],
    [r[0] == s for r, s in zip(results, serial)],
]))
"""
        made, modules, registered, same = json.loads(run_fresh(code))
        assert made == ["scipy.optimize._highspy._core"]
        assert modules == 1 and registered
        assert same == [True] * 4

    def test_missing_extension_names_scipy_version_and_directory(self, tmp_path):
        # a scipy whose optimize/_highspy holds no _core extension
        code = (
            "import scipy\n"
            f"scipy.__file__ = {str(tmp_path / '__init__.py')!r}\n"
            "from centerstring import lp_round\n"
            "try:\n"
            "    lp_round._highs()\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
        )
        where = tmp_path / "optimize" / "_highspy"
        import scipy

        assert run_fresh(code).strip() == f"scipy {scipy.__version__} has no HiGHS extension _core in {where}"


    def test_first_lp_without_extension_raises_import_error(self):
        # a path finder that finds no HiGHS extension in scipy's directory:
        # the first LP raises ImportError naming scipy's version and that
        # directory, and no solver is made
        code = """
import importlib.machinery, os
import numpy as np
import scipy
from centerstring import BINARY, StringInstance, build_restricted, lp_round, solve_lp
find_spec = importlib.machinery.PathFinder.find_spec
def no_highs(name, path=None, target=None):
    return None if name == lp_round._HIGHS_MODULE else find_spec(name, path, target)
importlib.machinery.PathFinder.find_spec = no_highs
inst = StringInstance.from_texts(BINARY, ["0011", "0101"])
try:
    solve_lp(build_restricted(inst, inst.matrix[0], np.zeros(4, dtype=bool)))
except ImportError as exc:
    print(exc)
print(os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy"))
print(getattr(lp_round._local, "solver", None))
"""
        import scipy

        message, where, solver = run_fresh(code).splitlines()
        assert message == f"scipy {scipy.__version__} has no HiGHS extension _core in {where}"
        assert Path(where) == Path(scipy.__file__).parent / "optimize" / "_highspy"
        assert solver == "None"


def sweep_one(rows, fixed, k, starts=None):
    """(score, patch as a tuple of ints) of sweep_patches on a batch of one
    seed row, once the batch's shapes and dtypes are checked: (1,) int64
    scores and a (1, |P|) uint8 array of patches."""
    scores, patches = sweep_patches(rows, np.asarray(fixed)[None], k, starts)
    assert scores.shape == (1,) and scores.dtype == np.int64
    assert patches.shape == (1, rows.shape[1]) and patches.dtype == np.uint8
    return int(scores[0]), tuple(patches[0].tolist())


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
        assert sweep_one(rows, fixed, 2, starts) == expected

    def test_cross_chunk_case_spans_two_chunks(self, monkeypatch):
        # the inputs of test_first_minimum_across_chunks: the winner and the
        # complement it ties with must be scored in different chunks
        chunk_lengths = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def argmin(self, a, axis=None):
                # one seed row: the last axis holds the chunk's patches
                chunk_lengths.append(a.shape[-1])
                return np.argmin(a, axis=axis)

        rng = np.random.default_rng(23)
        half = rng.integers(0, 2, (32, 15)).astype(np.int16)
        rows = np.stack([half, 1 - half], axis=1).reshape(64, 15)
        fixed = rng.integers(0, 3, 32).repeat(2)
        expected = sweep_one(rows, fixed, 2)
        monkeypatch.setattr(lp_round, "np", CountingNumpy())
        assert sweep_one(rows, fixed, 2) == expected
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
                    assert sweep_one(rows, fixed, k, starts) == expected, (np_, nrows, starts)

    def test_empty_patch(self):
        rows = np.zeros((3, 0), dtype=np.int16)
        assert sweep_one(rows, np.array([2, 0, 1]), 4) == (2, ())
        assert sweep_one(rows, np.array([2, 0, 1]), 4, np.array([0, 2])) == (1, ())

    @pytest.mark.parametrize("cells", [1, 64, 1 << 20])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_seed_batch_matches_single_rows_and_brute_force(self, monkeypatch, cells, k):
        # small random rows and seeds tie often; cells = 1 and 64 split the
        # high patches of one seed row, and seed rows, across chunks
        monkeypatch.setattr(lp_round, "_SWEEP_CELLS", cells)
        rng = np.random.default_rng(2000 * k + cells)
        for np_ in range(8):
            patches = np.array(list(itertools.product(range(k), repeat=np_)), dtype=np.int64)
            patches = patches.reshape(k ** np_, np_)
            for nrows in (1, 3, 7):
                rows = rng.integers(0, k, (nrows, np_)).astype(np.uint8)
                seeds = rng.integers(0, 3, (int(rng.integers(1, 10)), nrows))
                mismatches = (patches[:, None, :] != rows[None, :, :]).sum(axis=2)
                cuts = sorted(set(rng.integers(1, nrows, 2).tolist())) if nrows > 1 else []
                for starts in (None, np.array([0, *cuts])):
                    bounds = [0, *cuts, nrows] if starts is not None else range(nrows + 1)
                    scores, got = sweep_patches(rows, seeds, k, starts)
                    assert scores.shape == (len(seeds),) and got.shape == (len(seeds), np_)
                    assert got.dtype == np.uint8
                    for a, fixed in enumerate(seeds):
                        per_row = mismatches + fixed
                        worst = np.stack(
                            [per_row[:, s:e].min(axis=1) for s, e in zip(bounds, bounds[1:])]
                        ).max(axis=0)
                        best = int(np.argmin(worst))
                        expected = (int(worst[best]), tuple(int(v) for v in patches[best]))
                        assert (int(scores[a]), tuple(got[a].tolist())) == expected, (np_, nrows, a)
                        assert sweep_one(rows, fixed, k, starts) == expected

    def test_seed_batch_keeps_first_minimum_across_chunks(self):
        # the complement rows of test_first_minimum_across_chunks, where
        # every patch ties with its complement in the other chunk, under
        # several seed rows at once
        rng = np.random.default_rng(23)
        half = rng.integers(0, 2, (32, 15)).astype(np.int16)
        rows = np.stack([half, 1 - half], axis=1).reshape(64, 15)
        seeds = rng.integers(0, 3, (5, 32)).repeat(2, axis=1)
        starts = np.arange(0, 64, 2)
        scores, patches = sweep_patches(rows, seeds, 2, starts)
        for a, fixed in enumerate(seeds):
            assert (int(scores[a]), tuple(patches[a].tolist())) == sweep_one(rows, fixed, 2, starts)

    def test_seed_batch_memory_stays_within_the_chunk_cap(self):
        # 16 rows over 2^18 patches: an nrows x k^|P| int32 table is 16.8 MB
        # per seed row, while a chunk holds 2^20 cells, 4.2 MB
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, (16, 18)).astype(np.uint8)
        seeds = rng.integers(0, 3, (4, 16))
        tracemalloc.start()
        try:
            scores, _ = sweep_patches(rows, seeds, 2, np.arange(0, 16, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert scores.tolist() == [sweep_one(rows, fixed, 2, np.arange(0, 16, 4))[0] for fixed in seeds]


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
            patch = enumerate_small_P(p)
            assert patch_cost(p, patch) == brute_force_patch_cost(p)
            # the sweep of a batch of one seed row, the anchor's costs on Q
            assert patch.tolist() == sweep_patches(p.rows, p.fixed[None], 2)[1][0].tolist()


class TestRestrictedLowerBound:
    def test_examples(self):
        # d_P = 3 between the two rows: ceil(3 / 2) = 2, the optimum
        p = build_restricted(binst("000", "111"), bseq("000").arr, on(3))
        assert pair_bound(p) == 2 == brute_force_patch_cost(p)
        # no free positions: the bound is the anchor's own cost
        p = build_restricted(binst("0011", "0101"), bseq("0000").arr, on(4, 0, 1, 2, 3))
        assert pair_bound(p) == 2 == cost_string(p.inst, bseq("0000"))
        # equal rows on P, fixed costs (0, 2): a single fixed cost is a bound
        p = build_restricted(binst("0000", "0011"), bseq("0000").arr, on(4, 2, 3))
        assert p.fixed.tolist() == [0, 2]
        assert pair_bound(p) == 2 == brute_force_patch_cost(p)
        # fixed costs (1, 1) and d_P = 1: ceil((1 + 1 + 1) / 2) = 2
        p = build_restricted(binst("100", "011"), bseq("000").arr, on(3, 0, 1))
        assert p.fixed.tolist() == [1, 1]
        assert pair_bound(p) == 2 == brute_force_patch_cost(p)

    def test_below_exact_restricted_optimum(self):
        # the bound the solver skips subsets by, subset_bounds', against the
        # exact optimum of each subset's restricted problem
        rng = np.random.default_rng(19)
        met = strict = 0
        for trial in range(120):
            k, r = (2, 3, 4)[trial % 3], 2 + trial // 3 % 2
            n, m = int(rng.integers(r, 9)), int(rng.integers(1, 9))
            inst = StringInstance(Alphabet.of("ACGT"[:k]), rng.integers(0, k, (n, m)))
            whole = (inst.matrix[:, None, :] != inst.matrix[None, :, :]).sum(axis=2)
            for subsets, masks, _, bounds in subset_bounds(inst, r, whole):
                for subset, mask, bound in zip(subsets.tolist(), masks, bounds.tolist()):
                    p = build_restricted(inst, inst.matrix[subset[0]], mask)
                    optimum = patch_cost(p, enumerate_small_P(p))
                    assert bound <= optimum, (trial, subset, bound, optimum)
                    met += bound == optimum
                    strict += bound < optimum
        assert met > strict > 0, (met, strict)


class TestRounding:
    def test_integral_fraction_is_preserved(self):
        p = build_restricted(binst("00", "11"), bseq("00").arr, on(2))
        frac = FractionalCenter(p, np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        cfg = RoundingConfig(trials=4, epsilon_prime=1.0, rng_seed=0)
        assert round_randomized(frac, cfg).tolist() == [0, 1]
        assert round_derandomized(frac, 1.0).tolist() == [0, 1]

    def test_epsilon_prime_domain(self):
        with pytest.raises(DomainError, match=r"epsilon_prime must be in \(0, 1\]"):
            RoundingConfig(epsilon_prime=0)
        frac = solve_lp(build_restricted(binst("0", "1"), bseq("0").arr, on(1)))
        with pytest.raises(DomainError, match=r"epsilon_prime must be in \(0, 1\]"):
            round_derandomized(frac, 0)

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

    def test_derandomized_matches_full_table_reference(self):
        # a string whose threshold exceeds |P| leaves the tail table; the
        # patch and any error must match the table over every string
        rng = np.random.default_rng(47)
        rounded = {"none": 0, "some": 0, "all": 0}
        for k in (2, 3, 4):
            for _ in range(40):
                p = random_restricted(rng, k, int(rng.integers(1, 41)), extra=30)
                weights = rng.dirichlet(np.ones(k), len(p.P))
                cut = expected_cost_center(p, weights, float(rng.uniform(-0.5, 1.0)) * len(p.P))
                for frac in (solve_lp(p), cut):
                    for eps in (0.2, 0.5, 1.0):
                        try:
                            expected = full_table_round_derandomized(frac, eps)
                        except EstimatorAtLeastOne as exc:
                            with pytest.raises(EstimatorAtLeastOne) as got:
                                round_derandomized(frac, eps)
                            assert str(got.value) == str(exc)
                            continue
                        assert np.array_equal(round_derandomized(frac, eps), expected)
                        bound = frac.objective + eps * len(p.P)
                        live = (np.floor(bound - p.fixed + 1e-12) + 1 <= len(p.P)).sum()
                        rounded["none" if live == 0 else "all" if live == p.inst.n else "some"] += 1
        assert min(rounded.values()) > 50, rounded

    def test_derandomized_without_live_strings_builds_no_table(self):
        # on an LP solution at eps' = 1 every threshold exceeds |P|, as the
        # objective is at least every fixed cost, so no string is live; a
        # table over all strings would hold (|P|+1) * n * (|P|+2) float64s
        rng = np.random.default_rng(53)
        n, np_ = 6, 400
        inst = StringInstance(Alphabet.of("ACGT"), rng.integers(0, 4, (n, np_)))
        frac = solve_lp(build_restricted(inst, inst.matrix[0], np.zeros(np_, dtype=bool)))
        tracemalloc.start()
        try:
            patch = round_derandomized(frac, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(patch, np.argmax(frac.weights, axis=1))
        assert peak < (np_ + 1) * n * (np_ + 2) * 8 / 10

    def test_derandomized_without_live_strings_breaks_ties_to_smaller_symbol(self):
        # every position is free and costs nothing fixed, so at objective 0
        # and eps' = 1 each threshold is |P| + 1: no string is live, and
        # each position takes the smallest symbol of largest weight
        inst = StringInstance.from_texts(Alphabet.of("ACGT"), ["ACGT", "CATG", "GGTA"])
        p = build_restricted(inst, inst.matrix[0], np.zeros(4, dtype=bool))
        weights = np.array([
            [0.0, 0.5, 0.5, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.0, 0.0, 0.5, 0.5],
            [1.0, 0.0, 0.0, 0.0],
        ])
        frac = FractionalCenter(p, weights, 0.0)
        patch = round_derandomized(frac, 1.0)
        assert patch.tolist() == [1, 0, 2, 0] and patch.dtype == np.uint8
        assert np.array_equal(reference_round_derandomized(frac, 1.0), patch)

    def test_derandomized_empty_patch(self):
        # every position agrees, so |P| = 0: the one patch is empty
        p = build_restricted(binst("0110", "0111"), bseq("0110").arr, on(4, 0, 1, 2, 3))
        patch = round_derandomized(FractionalCenter(p, np.zeros((0, 2)), 1.0), 0.5)
        assert patch.shape == (0,) and patch.dtype == np.uint8

    def test_tail_table_over_cap_refused_before_allocating(self, monkeypatch):
        frac, cells = tail_capped(np.random.default_rng(71))
        monkeypatch.setattr(lp_round, "_TAIL_CELLS", cells - 1)
        tracemalloc.start()
        try:
            message = f"^derandomized tail table of {cells} cells exceeds cap {cells - 1}$"
            with pytest.raises(BudgetExceeded, match=message):
                round_derandomized(frac, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cells * 8 / 10
        # at the cap itself the table is built
        monkeypatch.setattr(lp_round, "_TAIL_CELLS", cells)
        assert round_derandomized(frac, 0.5).shape == (400,)

    def test_auto_falls_back_to_randomized_over_tail_cap(self, monkeypatch):
        # solve_restricted's one rounding rule falls back on its own; a
        # direct caller of round_derandomized still gets the refusal
        frac, cells = tail_capped(np.random.default_rng(73))
        p = frac.problem
        cfg = RoundingConfig(epsilon_prime=0.5, rng_seed=11)
        monkeypatch.setattr(lp_round, "_TAIL_CELLS", cells - 1)
        row, cost = solve_restricted(p, cfg)
        randomized = round_randomized(frac, cfg)
        assert row[p.P].tobytes() == randomized.tobytes()
        assert cost == patch_cost(p, randomized)
        with pytest.raises(BudgetExceeded):
            round_derandomized(frac, cfg.epsilon_prime)
        # under the cap the rule keeps the derandomized patch, another one here
        monkeypatch.setattr(lp_round, "_TAIL_CELLS", cells)
        row, _ = solve_restricted(p, cfg)
        derandomized = round_derandomized(frac, 0.5)
        assert np.array_equal(row[p.P], derandomized)
        assert not np.array_equal(derandomized, randomized)

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

    def test_threshold_of_tiny_epsilon(self):
        # epsilon'^2 underflows to 0 below about 1.5e-162: every |P| is below
        # the exact threshold, except at n = 1, where it is 0
        assert enumeration_threshold(3, 1e-150) == 4.0 * math.log(3) / (1e-150 * 1e-150)
        assert enumeration_threshold(3, 1e-155) == enumeration_threshold(3, 1e-200) == math.inf
        assert enumeration_threshold(1, 1e-155) == enumeration_threshold(1, 1e-200) == 0.0

    def test_center_composes_anchor(self):
        inst = binst("0011", "1100")
        p = build_restricted(inst, bseq("0110").arr, on(4, 0, 3))
        row, cost = solve_restricted(p, RoundingConfig())
        assert row.dtype == np.uint8 and [row[0], row[3]] == [0, 0]
        assert cost == cost_string(inst, Seq(BINARY, row))

    @pytest.mark.parametrize("path", ["sweep", "derandomized", "randomized", "fallback"])
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
        # budget 1 sends every |P| >= 1 problem to the LP, where at eps' = 1
        # no string is live and the derandomized rounding always holds; a
        # tail cap of 0 refuses every table with a live string, and at
        # eps' = 0.1 estimators often start at >= 1: those two fall back to
        # randomized rounding
        eps, budget, cap = {
            "sweep": (0.3, lp_round.DEFAULT_ENUM_BUDGET, lp_round._TAIL_CELLS),
            "derandomized": (1.0, 1, lp_round._TAIL_CELLS),
            "randomized": (0.5, 1, 0),
            "fallback": (0.1, 1, lp_round._TAIL_CELLS),
        }[path]
        monkeypatch.setattr(lp_round, "_TAIL_CELLS", cap)
        cfg = RoundingConfig(trials=4, epsilon_prime=eps, rng_seed=5)
        rng = np.random.default_rng(61)
        derandomized = fallbacks = 0
        for _ in range(30):
            k = int(rng.integers(2, 5))
            alpha = Alphabet.of("ABCD"[:k])
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 12))
            inst = StringInstance(alpha, [rng.integers(0, k, m) for _ in range(n)])
            anchor = rng.integers(0, k, m).astype(np.uint8)
            on_q = rng.random(m) < 0.4
            p = build_restricted(inst, anchor, on_q)
            taken.clear()
            row, cost = solve_restricted(p, cfg, enum_budget=budget)
            if len(p.P) and path == "sweep":
                assert taken == ["enumerate_small_P"]
            elif len(p.P):
                # the patch is the derandomized one if that rounding holds,
                # else the randomized one, never the LP argmax
                if taken == ["round_derandomized"]:
                    patch = round_derandomized(solve_lp(p), eps)
                    derandomized += 1
                else:
                    assert taken == ["round_derandomized", "round_randomized"]
                    patch = round_randomized(solve_lp(p), cfg)
                    fallbacks += 1
                assert np.array_equal(row[p.P], patch)
            assert row.shape == (m,) and row.dtype == np.uint8
            assert np.array_equal(row[on_q], anchor[on_q])
            assert cost == cost_string(inst, Seq(alpha, row))
        if path == "derandomized":
            assert derandomized >= 10 and not fallbacks
        elif path != "sweep":
            assert fallbacks >= 5

    def test_deterministic_with_seed_on_both_rounding_paths(self, monkeypatch):
        inst = binst("010101010101", "101010101010", "001100110011")
        p = build_restricted(inst, inst.matrix[0], on(12))
        cfg = RoundingConfig(trials=8, epsilon_prime=0.3, rng_seed=99)
        frac = solve_lp(p)
        # the derandomized rounding holds at the default cap; a cap of 0
        # refuses its table (every string is live) for the randomized fallback
        for cap, rounded in ((lp_round._TAIL_CELLS, round_derandomized(frac, 0.3)),
                             (0, round_randomized(frac, cfg))):
            monkeypatch.setattr(lp_round, "_TAIL_CELLS", cap)
            a = solve_restricted(p, cfg, enum_budget=1)
            b = solve_restricted(p, cfg, enum_budget=1)
            assert np.array_equal(a[0], b[0]) and a[1] == b[1]
            assert np.array_equal(a[0], rounded)

    def test_derandomized_holds_at_the_enumeration_threshold(self):
        # at |P| >= 4 ln(n) / eps'^2 Hoeffding bounds the starting estimator
        # by n * exp(-2 eps'^2 |P|) < 1, so the randomized fallback is never
        # needed there: round_derandomized on solve_lp's weights never
        # raises EstimatorAtLeastOne, and its patch meets objective + eps'|P|
        rng = np.random.default_rng(83)
        live = 0
        for _ in range(400):
            k, n = int(rng.integers(2, 5)), int(rng.integers(2, 12))
            eps = float(rng.choice([0.5, 0.6, 0.75, 0.9]))
            size = math.ceil(enumeration_threshold(n, eps)) + int(rng.integers(0, 4))
            rows = rng.integers(0, k, (n, size))
            if rng.random() < 0.5:  # planted: every string near one center
                rows = np.where(rng.random((n, size)) < 0.2, rows, rows[0])
            inst = StringInstance(Alphabet.of("ABCD"[:k]), rows)
            on_q = np.zeros(size, dtype=bool)
            p = build_restricted(inst, rows[0].astype(np.uint8), on_q)
            frac = solve_lp(p)
            patch = round_derandomized(frac, eps)
            assert patch_cost(p, patch) <= frac.objective + eps * size
            live += tail_cells(frac, eps) > 0
        assert live >= 150  # the estimator was not trivially 0
