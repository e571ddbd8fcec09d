"""Closest String solver: examples, oracle sandwiches, determinism."""

import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from centerstring import (
    BINARY,
    Alphabet,
    CenterSolution,
    ClosestStringConfig,
    RoundingConfig,
    Seq,
    StringInstance,
    agreement_positions,
    build_restricted,
    cost_string,
    exact_closest_string,
    generate_planted,
    solve_closest_string,
    solve_restricted,
)
from centerstring import closest_string, lp_round
from centerstring.closest_string import subset_bounds
from centerstring._seeds import derive_seed
from centerstring.errors import BudgetExceeded, DomainError, NumericalFailure
from centerstring.lp_round import DEFAULT_ENUM_BUDGET
from test_lp_round import pair_bound, tail_cells


def binst(*texts):
    return StringInstance.from_texts(BINARY, texts)


def random_instance(rng, n, m):
    return StringInstance(
        BINARY,
        [rng.integers(0, 2, m) for _ in range(n)],
    )


def planted_instance(alphabet, n, m, d, seed):
    """Whole-string planted instance: a random center mutated in d positions per string."""
    sub, _ = generate_planted(alphabet, n, m, m, d, seed)
    return StringInstance(sub.alphabet, sub.strings)


def disjoint_instance(rng, n, m, d):
    """Binary, every string is the center flipped on its own d positions, so
    every pair is at distance 2d and the optimum is d."""
    center = rng.integers(0, 2, m)
    order = rng.permutation(m)
    rows = []
    for i in range(n):
        row = center.copy()
        row[order[i * d:(i + 1) * d]] ^= 1
        rows.append(row)
    return StringInstance(BINARY, rows)


def pair_table(inst):
    """The (n, n) Hamming distances between the instance's strings."""
    return (inst.matrix[:, None, :] != inst.matrix[None, :, :]).sum(axis=2)


def seqs(inst):
    """The instance's strings as Seqs, one per matrix row."""
    return [Seq(inst.alphabet, row) for row in inst.matrix]


def agreement_mask(inst, sub):
    """The agreement mask of the subset's strings, through agreement_positions."""
    return agreement_positions([seqs(inst)[i] for i in sub])


def reference_candidates(inst, cfg, enum_budget=DEFAULT_ENUM_BUDGET):
    """Every candidate of the solver, none skipped: the inputs, then one
    restricted solve per subset in lexicographic order."""
    candidates = [(cost_string(inst, s), s) for s in seqs(inst)]
    for sub in itertools.combinations(range(inst.n), min(cfg.r, inst.n)):
        rounding = replace(cfg.rounding, rng_seed=derive_seed(cfg.rounding.rng_seed, "subset", sub))
        p = build_restricted(inst, inst.matrix[sub[0]], agreement_mask(inst, sub))
        row, cost = solve_restricted(p, rounding, enum_budget=enum_budget)
        candidates.append((cost, Seq(inst.alphabet, row)))
    return candidates


def reference_solve_closest_string(inst, cfg=ClosestStringConfig(), enum_budget=DEFAULT_ENUM_BUDGET):
    """The solver without the subset skip: the first candidate of minimum radius."""
    radius, center = min(reference_candidates(inst, cfg, enum_budget), key=lambda c: c[0])
    return CenterSolution(center, radius, (0,) * inst.n)


def count_restricted_solves(monkeypatch):
    calls = []
    solve = closest_string.solve_restricted

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(closest_string, "solve_restricted", counted)
    return calls


def inject_lp_failures(monkeypatch, fails):
    """Give the LP of every restricted problem for which fails(index,
    lower bound) holds, index counting the LPs reached, a failed solver
    status; return the lower bounds of all LPs reached, in order."""
    solve_lp = lp_round.solve_lp
    reached = []

    def failed(lp):
        return f"injected at LP {len(reached) - 1}", None, None

    def failing_solve_lp(p):
        reached.append(pair_bound(p))
        if not fails(len(reached) - 1, reached[-1]):
            return solve_lp(p)
        with monkeypatch.context() as m:
            m.setattr(lp_round, "_run_highs", failed)
            return solve_lp(p)

    monkeypatch.setattr(lp_round, "solve_lp", failing_solve_lp)
    return reached


def enumerated_subsets(inst, r):
    """The subsets subset_bounds yields, in its order, as tuples."""
    chunks = subset_bounds(inst, r, pair_table(inst))
    return [tuple(sub) for subsets, *_ in chunks for sub in subsets.tolist()]


class TestSubsetCandidates:
    def test_examples(self):
        # the solver's subsets: strictly increasing r-tuples, lexicographic
        assert enumerated_subsets(binst("0", "0", "0"), 2) == [(0, 1), (0, 2), (1, 2)]
        assert enumerated_subsets(binst("0", "0"), 2) == [(0, 1)]
        assert len(enumerated_subsets(binst("0", "0", "0", "0"), 3)) == 4

    def test_r_below_two_rejected(self):
        with pytest.raises(DomainError, match="subset size r must be >= 2"):
            ClosestStringConfig(r=1)


class TestSubsetBounds:
    def test_matches_build_and_lower_bound(self, monkeypatch):
        # a small cell cap puts chunk and position-block boundaries inside
        # the cases
        monkeypatch.setattr(closest_string, "_BOUND_CELLS", 600)
        rng = np.random.default_rng(83)
        chunked = 0
        for t in range(48):
            k, r = 2 + t % 3, 2 + t // 3 % 2
            alphabet = "ACGT"[:k]
            n = int(rng.integers(r, 21 if r == 2 else 13))
            m = int(rng.integers(1, 40))
            if t % 12 < 6:
                inst = StringInstance(Alphabet.of(alphabet), rng.integers(0, k, (n, m)))
            else:
                inst = planted_instance(alphabet, n, m, int(rng.integers(0, m // 3 + 1)), t)
            chunks = list(subset_bounds(inst, r, pair_table(inst)))
            chunked += len(chunks) > 1
            subsets, masks, fixed, bounds = map(np.concatenate, zip(*chunks))
            assert subsets.tolist() == [list(sub) for sub in itertools.combinations(range(n), r)]
            assert fixed.dtype == bounds.dtype == np.int64
            for sub, mask, f, bound in zip(subsets.tolist(), masks, fixed, bounds.tolist()):
                q = agreement_mask(inst, sub)
                p = build_restricted(inst, inst.matrix[sub[0]], q)
                assert mask.tolist() == q.tolist()
                assert f.tolist() == p.fixed.tolist()
                assert bound == pair_bound(p)
        assert chunked > 24

    def test_memory_does_not_grow_with_subset_count(self):
        # n = 60, r = 3: 34,220 subsets, so one (S, n, n) bool array over
        # them all would hold 123 MB
        rng = np.random.default_rng(89)
        inst = StringInstance(Alphabet.of("ACGT"), rng.integers(0, 4, (60, 24)))
        whole = pair_table(inst)
        count = 0
        tracemalloc.start()
        try:
            for subsets, *_ in subset_bounds(inst, 3, whole):
                count += len(subsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == math.comb(60, 3)
        assert peak < count * 60 * 60 // 10


class TestSolveClosestString:
    def test_identical_strings(self):
        from centerstring import DNA

        inst = StringInstance.from_texts(DNA, ["ACGT", "ACGT", "ACGT"])
        sol = solve_closest_string(inst, ClosestStringConfig(r=2))
        assert sol.center.text == "ACGT" and sol.radius == 0
        assert sol.witnesses == (0, 0, 0)

    def test_three_string_example(self):
        sol = solve_closest_string(binst("000", "011", "101"), ClosestStringConfig(r=2))
        assert sol.radius == 1

    def test_two_string_example(self):
        sol = solve_closest_string(binst("00", "11"), ClosestStringConfig(r=2))
        assert sol.radius == 1

    def test_first_input_of_minimum_cost_wins(self):
        # both inputs cost 1 and no subset does better: the first input is
        # the center, ahead of the second and of the subset's patch "0"
        sol = solve_closest_string(binst("1", "0"), ClosestStringConfig(r=2))
        assert (sol.center.text, sol.radius) == ("1", 1)

    def test_r_clamped_to_small_n(self):
        sol = solve_closest_string(binst("01", "10"), ClosestStringConfig(r=5))
        assert sol.radius == 1

    def test_radius_is_recomputed_cost(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(3, 11)))
            sol = solve_closest_string(inst, ClosestStringConfig(r=2))
            assert sol.radius == cost_string(inst, sol.center)

    def test_never_worse_than_best_input_center(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(3, 11)))
            sol = solve_closest_string(inst, ClosestStringConfig(r=2))
            assert sol.radius <= min(cost_string(inst, s) for s in seqs(inst))

    def test_oracle_sandwich_binary(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(3, 11))
            inst = random_instance(rng, n, m)
            opt = exact_closest_string(inst).radius
            for r in (2, 3):
                cfg = ClosestStringConfig(
                    r=r, rounding=RoundingConfig(epsilon_prime=0.5, rng_seed=1)
                )
                sol = solve_closest_string(inst, cfg)
                assert opt <= sol.radius
                # Theorem bound with epsilon = r * epsilon_prime
                bound = (1 + 1 / (2 * r - 1) + r * 0.5) * opt
                assert sol.radius <= bound + 1e-9

    def test_free_positions_bounded_by_r_times_optimum(self):
        # every r-subset's disagreement set is within r * d_opt
        rng = np.random.default_rng(47)
        for _ in range(20):
            inst = random_instance(rng, 4, 8)
            opt = exact_closest_string(inst).radius
            for r in (2, 3):
                for sub in itertools.combinations(range(inst.n), r):
                    q = agreement_mask(inst, sub)
                    assert inst.m - int(q.sum()) <= r * opt
                    # every position where two members differ is free
                    assert inst.m - int(q.sum()) >= max(
                        int((inst.matrix[i] != inst.matrix[j]).sum()) for i in sub for j in sub
                    )

    def test_subset_masks_match_agreement_positions(self, monkeypatch):
        # each built subset's anchor and mask, read from inst.matrix, are
        # the first member's row and the agreement_positions of its Seqs,
        # and the subsets left unbuilt are exactly those whose bound exceeds
        # the best radius at their turn
        seen, costs = [], []
        build, solve = closest_string.build_restricted, closest_string.solve_restricted

        def recording(inst, anchor, on_q):
            seen.append((anchor.tolist(), on_q.tolist()))
            return build(inst, anchor, on_q)

        def solving(*args, **kwargs):
            center, cost = solve(*args, **kwargs)
            costs.append(cost)
            return center, cost

        monkeypatch.setattr(closest_string, "build_restricted", recording)
        monkeypatch.setattr(closest_string, "solve_restricted", solving)
        rng = np.random.default_rng(71)
        built = skipped = 0
        for r in (2, 3):
            for inst in (random_instance(rng, 5, 12), planted_instance("01", 7, 30, 4, r)):
                seen.clear()
                costs.clear()
                solve_closest_string(inst, ClosestStringConfig(r=r))
                radius = min(cost_string(inst, s) for s in seqs(inst))
                expected = []
                for sub in itertools.combinations(range(inst.n), r):
                    anchor, mask = inst.matrix[sub[0]], agreement_mask(inst, sub)
                    if pair_bound(build(inst, anchor, mask)) > radius:
                        skipped += 1
                        continue
                    expected.append((anchor.tolist(), mask.tolist()))
                    radius = min(radius, costs[len(expected) - 1])
                assert seen == expected and len(costs) == len(expected)
                built += len(expected)
        assert built and skipped

    def test_first_minimum_in_enumeration_order(self):
        # candidates: the inputs, then one restricted solve per subset in
        # lexicographic order; the first of minimum radius wins
        rng = np.random.default_rng(59)
        tied = 0
        for _ in range(10):
            inst = random_instance(rng, 4, 8)
            cfg = ClosestStringConfig(r=2)
            candidates = reference_candidates(inst, cfg)
            best = min(cost for cost, _ in candidates)
            first = next(center for cost, center in candidates if cost == best)
            tied += len({c.data for cost, c in candidates if cost == best}) > 1
            sol = solve_closest_string(inst, cfg)
            assert (sol.radius, sol.center) == (best, first)
        assert tied  # the rule must have picked among distinct centers

    def test_sweep_over_enum_budget_falls_back_to_lp(self, monkeypatch):
        # every subset's |P| lies under the enumeration threshold, but its
        # 2^|P| patches exceed the budget, so the LP with rounding runs
        lps = []
        solve_lp = lp_round.solve_lp
        monkeypatch.setattr(lp_round, "solve_lp", lambda p: lps.append(p) or solve_lp(p))
        inst = binst("00000000", "11110000", "00111100")
        sol = solve_closest_string(inst, ClosestStringConfig(r=2, enum_budget=4))
        assert sol.radius == cost_string(inst, sol.center)
        assert sol.radius <= exact_closest_string(inst).radius * 2
        assert lps

    @pytest.mark.parametrize("budget", [0, -5])
    def test_enum_budget_below_one_refused_before_any_subset(self, monkeypatch, budget):
        # the config refuses it when built, so no solve starts, not even on
        # identical strings, whose subset with |P| = 0 and one empty patch
        # used to surface as a BudgetExceeded of 2^0 > budget
        calls = count_restricted_solves(monkeypatch)
        for inst in (binst("0110", "0110", "0110"), binst("0110", "1001", "0011")):
            with pytest.raises(DomainError, match="enum_budget must be >= 1"):
                solve_closest_string(inst, ClosestStringConfig(enum_budget=budget))
        assert calls == []

    def test_deterministic(self):
        inst = binst("01010101", "10101010", "00110011", "11001100")
        cfg = ClosestStringConfig(r=2, rounding=RoundingConfig(rng_seed=7))
        assert solve_closest_string(inst, cfg) == solve_closest_string(inst, cfg)

    def test_solve_keeps_nothing_alive(self):
        # solved by no other test: a value-keyed cache filled earlier in the
        # run would otherwise hide a reference kept to these objects
        inst = binst("0110100110", "1001011001", "0000111111", "1111000011")
        sol = solve_closest_string(inst)
        assert sol.center not in seqs(inst)  # a composed center, not an input
        refs = [weakref.ref(inst), weakref.ref(sol.center)]
        del inst, sol
        gc.collect()
        assert [r() for r in refs] == [None, None]


class TestSubsetSkip:
    CONFIGS = [
        RoundingConfig(epsilon_prime=eps, rng_seed=seed) for seed, eps in enumerate((0.5, 1.0) * 3)
    ]

    def test_matches_unpruned_reference(self, monkeypatch):
        calls = count_restricted_solves(monkeypatch)
        rng = np.random.default_rng(61)
        instances = [planted_instance(a, int(rng.integers(3, 7)), 40, 6, seed)
                     for seed, a in enumerate(("01", "ACG", "ACGT"))]
        alphabets = [Alphabet.of(a) for a in ("01", "ACG", "ACGT")]
        for a in alphabets:
            instances.append(StringInstance(
                a, [rng.integers(0, a.size, 30) for _ in range(5)]
            ))
        for inst in instances:
            for rounding in self.CONFIGS:
                cfg = ClosestStringConfig(r=2, rounding=rounding)
                expected = reference_solve_closest_string(inst, cfg)
                assert solve_closest_string(inst, cfg) == expected
        subsets = sum(math.comb(inst.n, 2) for inst in instances) * len(self.CONFIGS)
        assert len(calls) < subsets  # the skip was exercised

    def test_planted_dna_skips_subsets(self, monkeypatch):
        # every subset of a planted DNA instance takes the LP path; once one
        # reaches the planted radius, most bounds lie above it
        inst = planted_instance("ACGT", 10, 120, 12, 3)
        cfg = ClosestStringConfig(r=2, rounding=RoundingConfig(epsilon_prime=1.0))
        calls = count_restricted_solves(monkeypatch)
        sol = solve_closest_string(inst, cfg)
        assert len(calls) < math.comb(inst.n, 2)
        assert sol == reference_solve_closest_string(inst, cfg)

    def test_disjoint_binary_skips_nothing(self, monkeypatch):
        # every pair is at distance 2d, so every bound is d, the optimum: a
        # bound equal to the best radius never skips
        inst = disjoint_instance(np.random.default_rng(67), 5, 60, 6)
        calls = count_restricted_solves(monkeypatch)
        sol = solve_closest_string(inst)
        assert len(calls) == math.comb(inst.n, 2)
        assert sol.radius == 6

    def test_lp_failure_of_losing_subset_is_not_raised(self, monkeypatch):
        # budget 1 sends every subset to the LP; the final radius is 2 and
        # two subsets with bound 3 are solved before it is reached, so
        # their failures cannot have changed the answer
        inst = binst("1000010", "0011110", "1010010", "1001011")
        cfg = ClosestStringConfig(enum_budget=1)
        expected = solve_closest_string(inst, cfg)
        reached = inject_lp_failures(monkeypatch, lambda i, bound: bound > expected.radius)
        sol = solve_closest_string(inst, cfg)
        assert sol.center == expected.center and sol.radius == expected.radius == 2
        assert reached == [2, 3, 3, 2, 2, 2]

    def test_tail_table_refusal_falls_back_to_randomized(self, monkeypatch):
        # budget 1 sends every subset to the LP.  A tail table over the cap
        # is refused and that subset's LP is rounded at random instead, so
        # no cap fails the solve.  Under a cap just below the largest table
        # only that subset falls back; its bound lies above the radius
        # found, so the solve is unchanged.  Under a cap below every table
        # each subset with a live string falls back, and the solve is the
        # unpruned reference's under the same cap
        inst = binst("0100110", "1010010", "1011011", "0111111")
        cfg = ClosestStringConfig(enum_budget=1)
        expected = solve_closest_string(inst, cfg)
        tables, refused = [], []
        round_derandomized, round_randomized = lp_round.round_derandomized, lp_round.round_randomized

        def recorded(frac, eps):
            tables.append((pair_bound(frac.problem), tail_cells(frac, eps)))
            try:
                return round_derandomized(frac, eps)
            except BudgetExceeded:
                refused.append(tables[-1])
                raise

        def fallback(frac, rounding):
            fallbacks.append(pair_bound(frac.problem))
            return round_randomized(frac, rounding)

        fallbacks = []
        monkeypatch.setattr(lp_round, "round_derandomized", recorded)
        monkeypatch.setattr(lp_round, "round_randomized", fallback)
        assert solve_closest_string(inst, cfg) == expected and not refused and not fallbacks
        cells = sorted(c for _, c in tables)
        loser = next(t for t in tables if t[1] == cells[-1])
        assert cells[-2] < cells[-1] and loser[0] > expected.radius
        monkeypatch.setattr(lp_round, "_TAIL_CELLS", cells[-1] - 1)
        assert solve_closest_string(inst, cfg) == expected
        assert refused == [loser] and fallbacks == [loser[0]]

        # a refused subset that could have won no longer fails the solve
        refused.clear()
        monkeypatch.setattr(lp_round, "_TAIL_CELLS", 0)
        sol = solve_closest_string(inst, cfg)
        assert any(bound <= sol.radius for bound, _ in refused)
        assert sol == reference_solve_closest_string(inst, cfg, enum_budget=1)
        assert sol.radius == cost_string(inst, sol.center)

    @pytest.mark.parametrize("failing", [(5,), (0, 3, 5)])
    def test_lp_failure_of_possible_winner_is_raised(self, monkeypatch, failing):
        # a failed LP whose subset bound is at most the radius found (2
        # here, the last subset's bound included) fails the solve, with
        # the error of the first such subset
        inst = binst("1000010", "0011110", "1010010", "1001011")
        reached = inject_lp_failures(monkeypatch, lambda i, bound: i in failing)
        with pytest.raises(NumericalFailure, match=f"^LP solver failed: injected at LP {failing[0]}$"):
            solve_closest_string(inst, ClosestStringConfig(enum_budget=1))
        assert reached == [2, 3, 3, 2, 2, 2]

    def test_sweep_path_leaves_scipy_unloaded(self):
        # every subset of this binary instance sweeps its patches; the bound
        # and the skip must not load scipy, whose HiGHS extension only the
        # first LP needs (about 5 MB of resident memory and 8 ms to load)
        code = (
            "import sys; from centerstring import BINARY, StringInstance, solve_closest_string\n"
            "inst = StringInstance.from_texts(BINARY, ['0000001111', '0011110000', '1100000011', '0101010101'])\n"
            "sol = solve_closest_string(inst)\n"
            "print(sol.radius, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(closest_string.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout
        assert out.split(" ", 1)[1].strip() == "[]"
