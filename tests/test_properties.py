"""Property tests: every solver's radius lies between the exact oracle and
its declared ratio bound, and is the recomputed cost of its center; the
substring solver's skip of tuples that cannot win changes no output.

Hypothesis runs derandomized, so the examples are the same on every run.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centerstring import (
    Alphabet,
    ClosestStringConfig,
    StringInstance,
    SubstringConfig,
    SubstringInstance,
    cost_string,
    cost_substring,
    exact_closest_string,
    exact_closest_substring,
    solve_closest_string,
    solve_substring,
)
from centerstring.errors import BudgetExceeded
from test_closest_substring import planted_texts, reference_substring

SYMBOLS = {2: "01", 3: "012", 4: "ACGT"}
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def ceil_bound(bound: Fraction, opt: int) -> int:
    return math.ceil(bound * opt)


def shifted_pair(bits, extra):
    """Binary L = 15 pair: the 15 bits and their complement, with the bits
    of extra (at most one, in front when it is 1, else at the end) added to
    the complement.  One window pair disagrees everywhere, so |P| = 15 >
    |R| = 14 there, and that tuple is guessed under sampling, and under
    auto at y_budget 2^14."""
    comp = "".join("10"[b] for b in bits)
    if extra:
        comp = str(extra[0]) + comp if extra[0] else comp + "0"
    return SubstringInstance.from_texts(Alphabet.of("01"), ["".join(map(str, bits)), comp], 15)


@st.composite
def substring_cases(draw):
    if draw(st.integers(0, 5)) == 0:
        bits = draw(st.lists(st.integers(0, 1), min_size=15, max_size=15))
        extra = draw(st.lists(st.integers(0, 1), max_size=1))
        return shifted_pair(bits, extra), 2, draw(st.integers(0, 2 ** 16)), True
    k = draw(st.sampled_from(sorted(SYMBOLS)))
    l = draw(st.integers(1, 5 if k < 4 else 4))
    n = draw(st.integers(1, 4))
    texts = [
        "".join(SYMBOLS[k][v] for v in draw(st.lists(st.integers(0, k - 1), min_size=l, max_size=l + 3)))
        for _ in range(n)
    ]
    inst = SubstringInstance.from_texts(Alphabet.of(SYMBOLS[k]), texts, l)
    return inst, draw(st.integers(2, 3)), draw(st.integers(0, 2 ** 16)), False


@st.composite
def string_cases(draw):
    k = draw(st.sampled_from(sorted(SYMBOLS)))
    m = draw(st.integers(1, 7 if k < 4 else 5))
    n = draw(st.integers(1, 5))
    texts = [
        "".join(SYMBOLS[k][v] for v in draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
        for _ in range(n)
    ]
    return StringInstance.from_texts(Alphabet.of(SYMBOLS[k]), texts), draw(st.integers(2, 3))


@PROPERTY
@given(substring_cases(), st.sampled_from(["small_d", "sampling", "auto"]))
@example((shifted_pair([0, 1] * 7 + [1], [1]), 2, 0, True), "auto")
def test_substring_radius_between_oracle_and_bound(case, mode):
    inst, r, seed, shifted = case
    y_budget = 2 ** 14 if shifted and mode == "auto" else SubstringConfig.y_budget
    cfg = SubstringConfig(r=r, mode=mode, rng_seed=seed, y_budget=y_budget)
    sol = solve_substring(inst, cfg)
    opt = exact_closest_substring(inst).radius
    # small_d sweeps every tuple; only a guessed tuple adds the sampling term 3*eps*r
    assert mode != "small_d" or sol.guessed_tuples == 0
    # the shifted pairs reach the guessed path in both other modes
    assert not shifted or mode == "small_d" or sol.guessed_tuples > 0
    bound = 1 + Fraction(1, 2 * r - 1) + (3 * Fraction(cfg.epsilon) * r if sol.guessed_tuples else 0)
    assert opt <= sol.radius <= ceil_bound(bound, opt)
    assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)


@PROPERTY
@given(string_cases())
def test_string_radius_between_oracle_and_bound(case):
    inst, r = case
    cfg = ClosestStringConfig(r=r)
    sol = solve_closest_string(inst, cfg)
    opt = exact_closest_string(inst).radius
    bound = 1 + Fraction(1, 2 * r - 1) + r * Fraction(cfg.rounding.epsilon_prime)
    assert opt <= sol.radius <= ceil_bound(bound, opt)
    assert sol.radius == cost_string(inst, sol.center)


@st.composite
def skip_cases(draw):
    """Substring instances whose strings differ in length, with r, y_budget
    and rng_seed.  A shifted pair with its extra bit at y_budget 2^14,
    where its |P| = 15 tuple is guessed under sampling and auto (small_d
    refuses it), or at 2^16; or k = 2/3/4 strings with L <= 5, random or
    planted, at y_budget k^3, which refuses every tuple with |P| > 3, or
    2^16."""
    r, seed = draw(st.integers(2, 3)), draw(st.integers(0, 2 ** 16))
    if draw(st.integers(0, 3)) == 0:
        bits = draw(st.lists(st.integers(0, 1), min_size=15, max_size=15))
        inst = shifted_pair(bits, [draw(st.integers(0, 1))])
        return inst, r, draw(st.sampled_from((2 ** 14, 2 ** 16))), seed
    k = draw(st.sampled_from(sorted(SYMBOLS)))
    l = draw(st.integers(1, 5 if k < 4 else 4))
    lengths = draw(st.lists(st.integers(l, l + 3), min_size=2, max_size=4).filter(lambda ms: len(set(ms)) > 1))
    if draw(st.booleans()):
        # a planted center d away from a window of each string: the pair
        # tuples then often beat the single windows at their bound
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        texts = planted_texts(rng, SYMBOLS[k], lengths, l, draw(st.integers(1, max(1, l // 2))))
    else:
        texts = [
            "".join(SYMBOLS[k][v] for v in draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
            for m in lengths
        ]
    inst = SubstringInstance.from_texts(Alphabet.of(SYMBOLS[k]), texts, l)
    return inst, r, draw(st.sampled_from((k ** 3, 2 ** 16))), seed


@settings(derandomize=True, max_examples=40, deadline=None)
@given(skip_cases(), st.sampled_from(["small_d", "sampling", "auto"]))
# the alternating pair: a single window already reaches the instance bound
# 0, so the later guessed tuple is skipped
@example((shifted_pair([0, 1] * 7 + [0], [0]), 2, 2 ** 14, 0), "sampling")
# the instance bound equals the winning tuple's radius 1, one below the
# radius 2 a single window reached first: a bound one too high ties that at
# a larger index and skips the winner
@example((SubstringInstance.from_texts(Alphabet.of("01"), ["100101", "10100", "1110111"], 5), 2, 2 ** 16, 0), "small_d")
@example((SubstringInstance.from_texts(Alphabet.of("ACGT"), ["TTTTGTA", "CTTGTG", "CCTATC"], 4), 3, 2 ** 16, 0), "auto")
def test_substring_skip_is_exact(case, mode):
    # the solver skips the tuples whose (instance bound, index) already
    # loses; the reference solves every tuple, so the two must agree byte
    # for byte, guessed_tuples included, and refuse the same budgets
    inst, r, y_budget, seed = case
    cfg = SubstringConfig(r=r, mode=mode, y_budget=y_budget, rng_seed=seed)
    try:
        expected = reference_substring(inst, cfg)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            solve_substring(inst, cfg)
        return
    sol = solve_substring(inst, cfg)
    assert (sol.center, sol.radius, sol.witnesses, sol.guessed_tuples) == expected
