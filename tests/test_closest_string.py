"""Closest String solver: examples, oracle sandwiches, determinism."""

import gc
import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from centerstring import (
    BINARY,
    ClosestStringConfig,
    RoundingConfig,
    Seq,
    StringInstance,
    agreement_positions,
    build_restricted,
    cost_string,
    exact_closest_string,
    solve_closest_string,
    solve_restricted,
    subset_candidates,
)
from centerstring._seeds import derive_seed
from centerstring.errors import DomainError


def binst(*texts):
    return StringInstance.from_texts(BINARY, texts)


def random_instance(rng, n, m):
    return StringInstance(
        BINARY,
        tuple(Seq(BINARY, tuple(int(v) for v in rng.integers(0, 2, m))) for _ in range(n)),
    )


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
            assert sol.radius <= min(cost_string(inst, s) for s in inst.strings)

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
                    q = agreement_positions([inst.strings[i] for i in sub])
                    assert inst.m - len(q) <= r * opt

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
            candidates = [(cost_string(inst, s), s) for s in inst.strings]
            for sub in subset_candidates(inst, 2):
                q = agreement_positions([inst.strings[i] for i in sub])
                rounding = replace(cfg.rounding, rng_seed=derive_seed(0, "subset", sub))
                center, cost = solve_restricted(build_restricted(inst, inst.strings[sub[0]], q), rounding)
                candidates.append((cost, center))
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

    def test_deterministic(self):
        inst = binst("01010101", "10101010", "00110011", "11001100")
        cfg = ClosestStringConfig(r=2, rounding=RoundingConfig(rng_seed=7))
        assert solve_closest_string(inst, cfg) == solve_closest_string(inst, cfg)

    def test_solve_keeps_nothing_alive(self):
        # solved by no other test: a value-keyed cache filled earlier in the
        # run would otherwise hide a reference kept to these objects
        inst = binst("0110100110", "1001011001", "0000111111", "1111000011")
        sol = solve_closest_string(inst)
        assert sol.center not in inst.strings  # a composed center, not an input
        refs = [weakref.ref(inst), weakref.ref(sol.center)]
        del inst, sol
        gc.collect()
        assert [r() for r in refs] == [None, None]
