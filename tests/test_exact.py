"""Exact oracles: golden examples and agreement between search strategies."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from centerstring import (
    BINARY,
    DNA,
    Alphabet,
    ClosestStringConfig,
    Seq,
    StringInstance,
    SubstringInstance,
    cost_string,
    exact_closest_string,
    exact_closest_substring,
    solve_closest_string,
)
from centerstring import exact
from centerstring.errors import BudgetExceeded, NumericalFailure
from centerstring.exact import DEFAULT_EXACT_BUDGET, _program_center


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
        # 2^12 candidates exceed both budgets; the column-type program has
        # one type, d and two counts over one type row and two string rows
        with pytest.raises(
            BudgetExceeded,
            match="2\\^12 candidates exceed budget 8; the column-type program's 3 variables x 3 rows",
        ):
            exact_closest_string(inst, budget=8)
        # at budget 9 the program fits with one branch-and-bound node
        sweep = exact_closest_string(inst, budget=1 << 12)
        for budget in (9, 1000):
            sol = exact_closest_string(inst, budget=budget)
            # six of each symbol is the only optimum's count, and the
            # type's positions take them in ascending order
            assert (sol.center.text, sol.radius) == ("000000111111", 6)
            assert sol.radius == sweep.radius

    def test_branch_and_bound_matches_sweep(self):
        # the program, called directly inside the sweep, proves the sweep's
        # radius with a center that meets it
        rng = np.random.default_rng(71)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, {2: 11, 3: 8, 4: 7}[k]))
            inst = StringInstance(Alphabet.of("ACGT"[:k]), rng.integers(0, k, (int(rng.integers(1, 8)), m)))
            sweep = exact_closest_string(inst)
            center, radius = _program_center(inst.matrix, k, DEFAULT_EXACT_BUDGET)
            assert radius == sweep.radius
            assert cost_string(inst, Seq(inst.alphabet, center)) == radius

    def test_branch_and_bound_past_recursion_limit(self):
        # m may exceed the interpreter's recursion limit (1000 by default)
        inst = binst("0" * 1200, "0" * 1200)
        center, radius = _program_center(inst.matrix, 2, DEFAULT_EXACT_BUDGET)
        assert (center.tolist(), radius) == ([0] * 1200, 0)
        # 2^1200 candidates: the instance itself picks the program
        sol = exact_closest_string(inst)
        assert (sol.center.text, sol.radius) == ("0" * 1200, 0)

    def test_branch_and_bound_prunes_from_the_start(self):
        # two copies of one string: each column type holds one symbol, so
        # the program's only center is the string itself
        for text in ("01" * 200, "01" * 600):
            start = time.perf_counter()
            sol = exact_closest_string(binst(text, text))
            assert time.perf_counter() - start < 10.0
            assert (sol.center.text, sol.radius) == (text, 0)

    def test_branch_and_bound_prunes_complementary_pair(self):
        # every center's distances to the two strings sum to 22, so many
        # centers tie at radius 11; the program has two column types and
        # proves it at once
        inst = binst("01" * 11, "10" * 11)
        start = time.perf_counter()
        sol = exact_closest_string(inst)
        assert time.perf_counter() - start < 2.0
        assert sol.radius == 11

    def test_program_refused_before_it_is_built(self):
        # random DNA 2000x300: 1201 variables x 2300 rows against a 2^20
        # budget; built, its dense matrix alone would take 22 MB of float64
        rng = np.random.default_rng(83)
        inst = StringInstance(DNA, rng.integers(0, 4, (2000, 300)))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="1201 variables x 2300 rows exceed budget 1048576"):
                exact_closest_string(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_program_stops_at_the_budget(self):
        # random DNA 20x300 fits the budget as a program but does not close
        # within its budget // (variables x rows) branch-and-bound nodes;
        # the incumbent is never returned as the optimum
        rng = np.random.default_rng(0)
        inst = StringInstance(DNA, rng.integers(0, 4, (20, 300)))
        start = time.perf_counter()
        with pytest.raises(
            BudgetExceeded,
            match=f"not proven optimal within budget {DEFAULT_EXACT_BUDGET} // .* branch-and-bound nodes",
        ):
            exact_closest_string(inst)
        assert time.perf_counter() - start < 5.0

    def test_program_center_is_checked_against_its_optimum(self, monkeypatch):
        # a center whose radius is not the program's reported optimum is
        # refused, in-process and under python -O, which strips asserts
        program = exact._program_center

        def one_below(*args):
            center, d = program(*args)
            return center, d - 1

        monkeypatch.setattr(exact, "_program_center", one_below)
        inst = binst("0" * 12, "1" * 12)
        with pytest.raises(NumericalFailure, match="^the program's center has radius 6, not its optimum 5$"):
            exact_closest_string(inst, budget=1000)
        code = """
import sys
from centerstring import BINARY, StringInstance, exact
from centerstring.errors import NumericalFailure
program = exact._program_center

def one_below(*args):
    center, d = program(*args)
    return center, d - 1

exact._program_center = one_below
print(sys.flags.optimize)
try:
    exact.exact_closest_string(StringInstance.from_texts(BINARY, ["0" * 12, "1" * 12]), budget=1000)
except NumericalFailure as exc:
    print(exc)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(exact.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout
        assert out.splitlines() == ["1", "the program's center has radius 6, not its optimum 5"]

    def test_program_between_pair_bound_and_approximation(self):
        # past the sweep: ceil(max pair distance / 2) <= oracle <= PTAS
        rng = np.random.default_rng(97)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            m = int(rng.integers({2: 21, 3: 13, 4: 11}[k], 41))
            inst = StringInstance(Alphabet.of("ACGT"[:k]), rng.integers(0, k, (int(rng.integers(2, 7)), m)))
            assert k ** m > DEFAULT_EXACT_BUDGET
            mat = inst.matrix
            worst_pair = max(int((mat[i] != mat[j]).sum()) for i in range(inst.n) for j in range(i))
            opt = exact_closest_string(inst).radius
            approx = solve_closest_string(inst, ClosestStringConfig(r=2))
            assert math.ceil(worst_pair / 2) <= opt <= approx.radius

    def test_only_the_program_loads_scipy_optimize(self):
        # the package, an LP-path whole-string solve and a substring solve
        # leave scipy.optimize unloaded; the first program loads it
        code = """
import sys
import numpy as np
from centerstring import (DNA, ClosestStringConfig, StringInstance, SubstringInstance,
                          exact_closest_string, solve_closest_string, solve_substring)
rng = np.random.default_rng(89)
solve_closest_string(StringInstance(DNA, rng.integers(0, 4, (5, 14))), ClosestStringConfig(enum_budget=1))
solve_substring(SubstringInstance(DNA, list(rng.integers(0, 4, (4, 12))), 6))
print('scipy.optimize' in sys.modules)
exact_closest_string(StringInstance(DNA, rng.integers(0, 4, (3, 12))))
print('scipy.optimize' in sys.modules)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(exact.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout
        assert out.split() == ["False", "True"]

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

