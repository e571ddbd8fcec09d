"""Exact oracles: golden examples and agreement between search strategies."""

import math
import time

import numpy as np
import pytest

from centerstring import (
    BINARY,
    Alphabet,
    ClosestStringConfig,
    StringInstance,
    SubstringInstance,
    exact_closest_string,
    exact_closest_substring,
    solve_closest_string,
)
from centerstring.errors import BudgetExceeded


def binst(*texts):
    return StringInstance.from_texts(BINARY, texts)


def random_instance(rng, n, m):
    return StringInstance(
        BINARY,
        [rng.integers(0, 2, m) for _ in range(n)],
    )


class TestExactClosestString:
    def test_examples(self):
        sol = exact_closest_string(binst("00", "01", "10"))
        assert (sol.center.text, sol.radius) == ("00", 1)

        a = Alphabet.of("AB")
        single = StringInstance.from_texts(a, ["A"])
        sol = exact_closest_string(single)
        assert (sol.center.text, sol.radius) == ("A", 0)

        sol = exact_closest_string(binst("000", "111"))
        assert (sol.center.text, sol.radius) == ("001", 2)

    def test_budget(self):
        inst = binst("0" * 12, "1" * 12)
        with pytest.raises(BudgetExceeded):
            exact_closest_string(inst, budget=100)
        # branch and bound ignores the candidate budget
        sol = exact_closest_string(inst, budget=100, branch_and_bound=True)
        assert sol.radius == 6

    def test_branch_and_bound_matches_sweep(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 11)))
            sweep = exact_closest_string(inst)
            bnb = exact_closest_string(inst, branch_and_bound=True)
            assert sweep == bnb

    def test_branch_and_bound_past_recursion_limit(self):
        # the search keeps its own per-position counters, so m may exceed
        # the interpreter's recursion limit (1000 by default)
        inst = binst("0" * 1200, "0" * 1200)
        sol = exact_closest_string(inst, branch_and_bound=True)
        assert (sol.center.text, sol.radius) == ("0" * 1200, 0)

    def test_branch_and_bound_prunes_from_the_start(self):
        # bounded by the best input's cost + 1 from the start, the search
        # never descends toward the all-zero leaf; started at m + 1, and
        # keeping equal-radius branches, the '01' * 200 pair took about 38 s
        for text in ("01" * 200, "01" * 600):
            start = time.perf_counter()
            sol = exact_closest_string(binst(text, text), branch_and_bound=True)
            assert time.perf_counter() - start < 10.0
            assert (sol.center.text, sol.radius) == (text, 0)

    def test_branch_and_bound_prunes_complementary_pair(self):
        # every prefix has at most 11 mismatches to either string, so a
        # bound on the prefix alone prunes almost nothing; the pair bound
        # is 11 at the root
        start = time.perf_counter()
        sol = exact_closest_string(binst("01" * 11, "10" * 11), branch_and_bound=True)
        assert time.perf_counter() - start < 2.0
        assert (sol.center.text, sol.radius) == ("0" * 22, 11)

    def test_lower_bound_from_max_pairwise_distance(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(2, 10)))
            mat = inst.matrix
            worst_pair = max(int((mat[i] != mat[j]).sum()) for i in range(inst.n) for j in range(i))
            assert exact_closest_string(inst).radius >= math.ceil(worst_pair / 2)

    def test_oracle_never_above_approximation(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(3, 10)))
            opt = exact_closest_string(inst).radius
            approx = solve_closest_string(inst, ClosestStringConfig(r=2))
            assert opt <= approx.radius


class TestExactClosestSubstring:
    def test_examples(self):
        a = Alphabet.of("AB")
        inst = SubstringInstance.from_texts(a, ["AAAA", "BAAB"], 2)
        sol = exact_closest_substring(inst)
        assert (sol.center.text, sol.radius) == ("AA", 0)

        single = SubstringInstance.from_texts(BINARY, ["0101"], 3)
        assert exact_closest_substring(single).radius == 0

        inst = SubstringInstance.from_texts(BINARY, ["01", "10"], 1)
        sol = exact_closest_substring(inst)
        assert (sol.center.text, sol.radius) == ("0", 0)

    def test_budget(self):
        inst = SubstringInstance.from_texts(BINARY, ["0" * 30], 25)
        with pytest.raises(BudgetExceeded):
            exact_closest_substring(inst, budget=1000)

    def test_witnesses_are_best_offsets(self):
        inst = SubstringInstance.from_texts(BINARY, ["00110", "11000"], 2)
        sol = exact_closest_substring(inst)
        from centerstring import cost_substring

        assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)

