"""Exact oracles: golden examples and agreement between search strategies."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from centerstring import (
    BINARY,
    DNA,
    Alphabet,
    ClosestStringConfig,
    StringInstance,
    SubstringInstance,
    exact_closest_string,
    exact_closest_substring,
    solve_closest_string,
)
from centerstring.errors import BudgetExceeded
from centerstring.exact import DEFAULT_EXACT_BUDGET, _bnb_center


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
        # 2^12 candidates exceed both budgets; the prefix search's 13 x 2 x 2
        # suffix table and its 55 prefixes take 272 pair cells, within 1000
        with pytest.raises(BudgetExceeded, match="2\\^12 candidates exceed budget 100; the prefix search"):
            exact_closest_string(inst, budget=100)
        sol = exact_closest_string(inst, budget=1000)
        assert (sol.center.text, sol.radius) == ("000000111111", 6)
        assert sol == exact_closest_string(inst, budget=1 << 12)

    def test_branch_and_bound_matches_sweep(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 11)))
            sweep = exact_closest_string(inst)
            assert tuple(sweep.center.data) == _bnb_center(inst.matrix, 2, inst.m, DEFAULT_EXACT_BUDGET)

    def test_branch_and_bound_past_recursion_limit(self):
        # the search keeps its own per-position counters, so m may exceed
        # the interpreter's recursion limit (1000 by default)
        inst = binst("0" * 1200, "0" * 1200)
        center = _bnb_center(inst.matrix, 2, inst.m, DEFAULT_EXACT_BUDGET)
        assert center == (0,) * 1200
        # 2^1200 candidates: the instance itself picks the prefix search
        sol = exact_closest_string(inst)
        assert (sol.center.text, sol.radius) == ("0" * 1200, 0)

    def test_branch_and_bound_prunes_from_the_start(self):
        # bounded by the best input's cost + 1 from the start, the search
        # never descends toward the all-zero leaf; started at m + 1, and
        # keeping equal-radius branches, the '01' * 200 pair took about 38 s
        for text in ("01" * 200, "01" * 600):
            start = time.perf_counter()
            center = _bnb_center(binst(text, text).matrix, 2, len(text), DEFAULT_EXACT_BUDGET)
            assert time.perf_counter() - start < 10.0
            assert center == tuple(int(c) for c in text)

    def test_branch_and_bound_prunes_complementary_pair(self):
        # every prefix has at most 11 mismatches to either string, so a
        # bound on the prefix alone prunes almost nothing; the pair bound
        # is 11 at the root
        inst = binst("01" * 11, "10" * 11)
        start = time.perf_counter()
        center = _bnb_center(inst.matrix, 2, inst.m, DEFAULT_EXACT_BUDGET)
        assert time.perf_counter() - start < 2.0
        assert center == (0,) * 22
        assert exact_closest_string(inst).radius == 11

    def test_prefix_search_refuses_its_table_before_building_it(self):
        # 31 x 2000 x 2000 pair cells, 496 MB of int32, against a 2^20 budget
        rng = np.random.default_rng(83)
        inst = random_instance(rng, 2000, 30)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="31x2000x2000 suffix table exceeds budget"):
                exact_closest_string(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_prefix_search_stops_at_the_budget(self):
        # 4^30 candidates are past the sweep, and on random DNA the pair
        # bound prunes too little to close within 2^20 pair cells
        rng = np.random.default_rng(0)
        inst = StringInstance(DNA, [rng.integers(0, 4, 30) for _ in range(5)])
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="ran out of budget"):
            exact_closest_string(inst)
        assert time.perf_counter() - start < 5.0
        # the same budget, spent directly
        with pytest.raises(BudgetExceeded, match=f"ran out of budget {DEFAULT_EXACT_BUDGET} pair cells"):
            _bnb_center(inst.matrix, 4, 30, DEFAULT_EXACT_BUDGET)

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

