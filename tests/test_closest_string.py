"""Closest String solver: examples, oracle sandwiches, determinism."""

import gc
import itertools
import math
import os
import subprocess
import sys
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
    restricted_lower_bound,
    solve_closest_string,
    solve_restricted,
    subset_candidates,
)
from centerstring import closest_string
from centerstring._seeds import derive_seed
from centerstring.errors import DomainError, EstimatorAtLeastOne
from centerstring.lp_round import DEFAULT_ENUM_BUDGET


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
    for sub in subset_candidates(inst, min(cfg.r, inst.n)):
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


class TestSubsetCandidates:
    def test_examples(self):
        assert list(subset_candidates(binst("0", "0", "0"), 2)) == [(0, 1), (0, 2), (1, 2)]
        assert list(subset_candidates(binst("0", "0"), 2)) == [(0, 1)]
        assert len(list(subset_candidates(binst("0", "0", "0", "0"), 3))) == 4

    def test_r_above_n_rejected(self):
        with pytest.raises(DomainError):
            list(subset_candidates(binst("0", "1"), 3))


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
                for sub in subset_candidates(inst, r):
                    q = agreement_mask(inst, sub)
                    assert inst.m - int(q.sum()) <= r * opt
                    # every position where two members differ is free
                    assert inst.m - int(q.sum()) >= max(
                        int((inst.matrix[i] != inst.matrix[j]).sum()) for i in sub for j in sub
                    )

    def test_subset_masks_match_agreement_positions(self, monkeypatch):
        # each subset's anchor and mask, read from inst.matrix, are the
        # first member's row and the agreement_positions of its Seqs
        seen = []
        build = closest_string.build_restricted

        def recording(inst, anchor, on_q):
            seen.append((anchor.tolist(), on_q.tolist()))
            return build(inst, anchor, on_q)

        monkeypatch.setattr(closest_string, "build_restricted", recording)
        rng = np.random.default_rng(71)
        for r in (2, 3):
            inst = random_instance(rng, 5, 12)
            seen.clear()
            solve_closest_string(inst, ClosestStringConfig(r=r))
            expected = [
                (inst.matrix[sub[0]].tolist(), agreement_mask(inst, sub).tolist())
                for sub in subset_candidates(inst, r)
            ]
            assert seen == expected

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            inst = random_instance(rng, 4, 8)
            cfg_serial = ClosestStringConfig(r=2, parallel=False)
            cfg_par = ClosestStringConfig(r=2, parallel=True)
            assert solve_closest_string(inst, cfg_serial) == solve_closest_string(inst, cfg_par)

    def test_first_minimum_in_enumeration_order(self):
        # candidates: the inputs, then one restricted solve per subset in
        # lexicographic order; the first of minimum radius wins, serial or parallel
        rng = np.random.default_rng(59)
        tied = 0
        for _ in range(10):
            inst = random_instance(rng, 4, 8)
            cfg = ClosestStringConfig(r=2)
            candidates = reference_candidates(inst, cfg)
            best = min(cost for cost, _ in candidates)
            first = next(center for cost, center in candidates if cost == best)
            tied += len({c.data for cost, c in candidates if cost == best}) > 1
            for parallel in (False, True):
                sol = solve_closest_string(inst, replace(cfg, parallel=parallel))
                assert (sol.radius, sol.center) == (best, first)
        assert tied  # the rule must have picked among distinct centers

    def test_sweep_over_enum_budget_falls_back_to_lp(self):
        # every subset's |P| lies under the enumeration threshold, but its
        # 2^|P| patches exceed the budget, so the LP with rounding runs
        inst = binst("00000000", "11110000", "00111100")
        sol = solve_closest_string(inst, ClosestStringConfig(r=2), enum_budget=4)
        assert sol.radius == cost_string(inst, sol.center)
        assert sol.radius <= exact_closest_string(inst).radius * 2

    @pytest.mark.parametrize("budget", [0, -5])
    def test_enum_budget_below_one_refused_before_any_subset(self, monkeypatch, budget):
        # identical strings give a subset with |P| = 0, whose one empty
        # patch used to surface as a BudgetExceeded of 2^0 > budget
        calls = count_restricted_solves(monkeypatch)
        for inst in (binst("0110", "0110", "0110"), binst("0110", "1001", "0011")):
            with pytest.raises(DomainError, match="enum_budget must be >= 1"):
                solve_closest_string(inst, enum_budget=budget)
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
        RoundingConfig(mode=mode, epsilon_prime=eps, rng_seed=seed)
        for seed, (mode, eps) in enumerate(
            itertools.product(("randomized", "derandomized", "auto"), (0.5, 1.0))
        )
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
                for parallel in (False, True):
                    assert solve_closest_string(inst, replace(cfg, parallel=parallel)) == expected
        subsets = sum(math.comb(inst.n, 2) for inst in instances) * len(self.CONFIGS) * 2
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

    def test_derandomized_failure_of_losing_subset_is_not_raised(self):
        # budget 1 sends every subset to the LP; at eps' = 0.1 the estimator
        # of some subsets starts above 1, but none of them could win
        inst = binst("10110", "01111", "00111", "10101", "01101")
        cfg = ClosestStringConfig(
            r=2, rounding=RoundingConfig(mode="derandomized", epsilon_prime=0.1)
        )
        failing = []
        for sub in subset_candidates(inst, 2):
            rounding = replace(cfg.rounding, rng_seed=derive_seed(0, "subset", sub))
            p = build_restricted(inst, inst.matrix[sub[0]], agreement_mask(inst, sub))
            try:
                solve_restricted(p, rounding, enum_budget=1)
            except EstimatorAtLeastOne:
                failing.append(restricted_lower_bound(p))
        for parallel in (False, True):
            sol = solve_closest_string(inst, replace(cfg, parallel=parallel), enum_budget=1)
            assert sol.radius == cost_string(inst, sol.center) == 2
        assert failing and min(failing) > sol.radius

    def test_derandomized_failure_of_possible_winner_is_raised(self):
        # here a failing subset's bound is at most the radius of the other
        # candidates, so it might have won: the solve raises, serial and
        # parallel alike, with the same error
        inst = binst("0001111", "0000010", "0001100", "0110100")
        cfg = ClosestStringConfig(
            r=2, rounding=RoundingConfig(mode="derandomized", epsilon_prime=0.1)
        )
        errors = []
        for parallel in (False, True):
            with pytest.raises(EstimatorAtLeastOne) as exc:
                solve_closest_string(inst, replace(cfg, parallel=parallel), enum_budget=1)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        with pytest.raises(EstimatorAtLeastOne):
            reference_solve_closest_string(inst, cfg, enum_budget=1)

    def test_sweep_path_leaves_scipy_unloaded(self):
        # every subset of this binary instance sweeps its patches; the bound
        # and the skip must not load scipy (about 40 MB of resident memory)
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
