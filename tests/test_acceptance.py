"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All expectations are property checks against exact oracles at desk scale.
"""

import itertools
import math
import time
from fractions import Fraction

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
    SubstringConfig,
    build_restricted,
    cost_substring,
    enumerate_small_P,
    exact_closest_string,
    exact_closest_substring,
    generate_planted,
    round_derandomized,
    run_bench,
    sample_patch,
    sample_size,
    select_windows,
    solve_closest_string,
    solve_closest_substring,
    solve_lp,
    solve_small_substring,
)
from centerstring.errors import EstimatorAtLeastOne
from centerstring.io_cli import planted_instance_file


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_binary_instance(rng, n, m):
    return StringInstance(
        BINARY,
        [rng.integers(0, 2, m) for _ in range(n)],
    )


def test_criterion_1_closest_string_ratio():
    """200 binary instances: oracle sandwich plus the 4/3 ratio target."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    shapes = list(itertools.product((3, 4, 5), (8, 10)))
    hard_bound = Fraction(7, 3)  # 1 + 1/3 + r*eps' with r=2, eps'=0.5
    within_tight = 0
    total = 200
    for i in range(total):
        n, m = shapes[i % len(shapes)]
        inst = _random_binary_instance(rng, n, m)
        oracle = exact_closest_string(inst).radius
        cfg = ClosestStringConfig(
            r=2, rounding=RoundingConfig(epsilon_prime=0.5, rng_seed=i)
        )
        radius = solve_closest_string(inst, cfg).radius
        assert radius >= oracle
        assert radius <= math.ceil(hard_bound * oracle)
        if 3 * radius <= 4 * oracle or radius == oracle == 0:
            within_tight += 1
    elapsed = time.perf_counter() - t0
    ok = within_tight >= 0.95 * total and elapsed < 60.0
    _report(
        "criterion 1 (closest string ratio)",
        ok,
        f"{within_tight}/{total} at ratio <= 4/3, all within ceil(7/3 * opt), {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def restricted_suite():
    """200 random restricted problems with at most 4096 patches each."""
    rng = np.random.default_rng(777)
    alphabets = [Alphabet.of("01"), Alphabet.of("012"), Alphabet.of("ACGT")]
    suite = []
    while len(suite) < 200:
        alpha = alphabets[len(suite) % len(alphabets)]
        k = alpha.size
        max_p = int(math.log(4096) / math.log(k))
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 13))
        inst = StringInstance(alpha, [rng.integers(0, k, m) for _ in range(n)])
        anchor = rng.integers(0, k, m).astype(np.uint8)
        p_size = int(rng.integers(1, min(max_p, m) + 1))
        on_q = np.ones(m, dtype=bool)
        on_q[rng.choice(m, size=p_size, replace=False)] = False
        problem = build_restricted(inst, anchor, on_q)
        eps = float((0.4, 0.7, 1.0)[len(suite) % 3])
        suite.append((problem, eps))
    return suite


def _sweep_optimum(problem):
    """Direct patch sweep, independent of the library enumeration."""
    k = problem.inst.alphabet.size
    rows = [tuple(s[problem.P].tolist()) for s in problem.inst.matrix]
    best = None
    for digits in itertools.product(range(k), repeat=len(problem.P)):
        worst = max(
            sum(1 for x, y in zip(row, digits) if x != y) + f
            for row, f in zip(rows, problem.fixed.tolist())
        )
        if best is None or worst < best:
            best = worst
    return best


def _patch_cost(problem, patch):
    """Max over strings of the fixed cost plus the patch's mismatches on P."""
    return max(
        int((s[problem.P] != patch).sum()) + f
        for s, f in zip(problem.inst.matrix, problem.fixed.tolist())
    )


def test_criterion_2_restricted_guarantee(restricted_suite):
    """Enumeration is exactly optimal; derandomized rounding meets its bound."""
    t0 = time.perf_counter()
    solvable = 0
    skipped = 0
    for problem, eps in restricted_suite:
        opt = _sweep_optimum(problem)
        assert _patch_cost(problem, enumerate_small_P(problem)) == opt, (
            "enumerate_small_P missed the optimum"
        )

        frac = solve_lp(problem)
        try:
            rounded = round_derandomized(frac, eps)
        except EstimatorAtLeastOne:
            skipped += 1
            continue
        solvable += 1
        cost = _patch_cost(problem, rounded)
        assert cost <= frac.objective + eps * len(problem.P) + 1e-9, (
            "derandomized rounding exceeded dbar + eps'|P|"
        )
    elapsed = time.perf_counter() - t0
    ok = solvable > 0 and elapsed < 30.0
    _report(
        "criterion 2 (restricted guarantee)",
        ok,
        f"enumeration optimal on 200, rounding bound held on {solvable} solvable "
        f"({skipped} estimator-skipped), {elapsed:.1f}s",
    )


def test_criterion_3_lp_lower_bound(restricted_suite):
    """The fractional objective never exceeds the integral optimum."""
    worst_gap = 0.0
    for problem, _ in restricted_suite:
        opt = _sweep_optimum(problem)
        frac = solve_lp(problem)
        worst_gap = max(worst_gap, frac.objective - opt)
        assert frac.objective <= opt + 1e-6
    _report(
        "criterion 3 (LP lower bound)",
        True,
        f"dbar <= integral optimum on all 200 (worst slack {worst_gap:.2e})",
    )


def test_criterion_4_small_substring_ratio():
    """100 planted instances: radius within ceil((1 + 1/3) * oracle)."""
    t0 = time.perf_counter()
    bound = Fraction(4, 3)
    for seed in range(100):
        inst, _ = generate_planted("01", 3, 8, 5, seed % 2, seed)
        oracle = exact_closest_substring(inst).radius
        radius = solve_small_substring(inst, SubstringConfig(r=2)).radius
        assert oracle <= radius <= math.ceil(bound * oracle)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        "criterion 4 (small-substring ratio)",
        ok,
        f"100/100 within ceil(4/3 * opt), {elapsed:.1f}s",
    )


def test_criterion_5_sampling_ptas_bound():
    """50 planted instances through the sampling pipeline."""
    t0 = time.perf_counter()
    bound = 1 + Fraction(1, 3) + 3 * 1 * 2  # 1 + 1/(2r-1) + 3*eps*r
    max_ratio = Fraction(0)
    for seed in range(50):
        inst, _ = generate_planted("01", 3, 8, 5, 1, seed)
        oracle = exact_closest_substring(inst).radius
        cfg = SubstringConfig(r=2, epsilon=1.0, y_budget=1 << 16, rng_seed=seed)
        radius = solve_closest_substring(inst, cfg).radius
        if oracle == 0:
            assert radius == 0
        else:
            assert Fraction(radius, oracle) <= bound
            max_ratio = max(max_ratio, Fraction(radius, oracle))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    _report(
        "criterion 5 (sampling PTAS bound)",
        ok,
        f"50/50 within {float(bound):.3f} * opt, achieved max ratio "
        f"{float(max_ratio):.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_window_selection_empirics():
    """With y = the planted center on R, selected windows stay within
    2*eps*|P| of the ideal witnesses in at least 95% of trials."""
    eps = 1.0
    n, m, l, d = 4, 120, 60, 24
    trials = 200
    violations = 0
    genuine = 0
    for seed in range(trials):
        inst, meta = generate_planted("01", n, m, l, d, seed)
        center = Seq.from_text(inst.alphabet, meta.center)
        _, offsets = cost_substring(inst, center)
        witnesses = [w[off] for w, off in zip(inst.windows, offsets)]
        q = witnesses[0] == witnesses[1]
        p = np.flatnonzero(~q)
        # the center with the first witness's letters on Q
        star = center.arr.copy()
        star[q] = witnesses[0][q]
        size = sample_size(eps, n, m)
        if 0 < size < len(p):
            genuine += 1
            rng = np.random.default_rng(10_000 + seed)
            r_idx = np.sort(p[rng.integers(0, len(p), size)])
        else:
            r_idx = p
        ys = star[r_idx][None, :]
        offsets = select_windows(inst, ys, r_idx, witnesses[0], q)[0]
        chosen = [w[off] for w, off in zip(inst.windows, offsets)]
        bound = 2 * eps * len(p)
        if any(
            int((star != t).sum()) > int((star != w).sum()) + bound
            for t, w in zip(chosen, witnesses)
        ):
            violations += 1
    ok = violations <= 0.05 * trials
    _report(
        "criterion 6 (window-selection empirics)",
        ok,
        f"{violations}/{trials} trials violated ({genuine} with a strict subsample)",
    )


def test_criterion_7_sample_size_formula():
    values = (sample_size(1.0, 10, 10), sample_size(0.5, 3, 8), sample_size(1.0, 1, 1))
    ok = values == (19, 51, 0)
    _report("criterion 7 (sample-size formula)", ok, f"got {values}, want (19, 51, 0)")


def test_criterion_8_bench_determinism():
    suite = [
        (f"p{seed}", planted_instance_file("01", 3, 8, 5, seed % 2, seed))
        for seed in range(3)
    ]
    algos = ["exact", "small", "sampling"]
    first = run_bench(suite, algos, seed=9, timing=False).to_csv()
    second = run_bench(suite, algos, seed=9, timing=False).to_csv()
    parallel = run_bench(suite, algos, seed=9, timing=False, parallel=True).to_csv()
    ok = first == second == parallel

    # with timing on, everything except the ms column must still agree
    def drop_ms(csv_text):
        return [
            ",".join(v for i, v in enumerate(line.split(",")) if i != 8)
            for line in csv_text.splitlines()
        ]

    timed_a = run_bench(suite, algos, seed=9, timing=True).to_csv()
    timed_b = run_bench(suite, algos, seed=9, timing=True, parallel=True).to_csv()
    ok = ok and drop_ms(timed_a) == drop_ms(timed_b) == drop_ms(first)
    _report(
        "criterion 8 (bench determinism)",
        ok,
        "byte-identical CSV across serial/parallel reruns (ms column blanked)",
    )


def test_criterion_9_expected_cost_identity():
    """Empirical rounding cost matches the chi-weighted fractional cost."""
    inst = StringInstance.from_texts(BINARY, ["0010", "1101", "0111"])
    problem = build_restricted(inst, inst.matrix[0], np.zeros(4, dtype=bool))
    weights = ((0.3, 0.7), (0.5, 0.5), (0.9, 0.1), (0.25, 0.75))
    frac = FractionalCenter(problem, np.array(weights), 0.0)

    expected = []
    variances = []
    for s in inst.matrix:
        mu = sum(1.0 - weights[j][s[j]] for j in range(4))
        var = sum(
            (1.0 - weights[j][s[j]]) * weights[j][s[j]] for j in range(4)
        )
        expected.append(mu)
        variances.append(var)

    draws = 10_000
    rng = np.random.default_rng(12345)
    totals = np.zeros(inst.n)
    for _ in range(draws):
        patch = sample_patch(frac, rng)
        for i, s in enumerate(inst.matrix):
            totals[i] += sum(1 for x, y in zip(s, patch) if x != y)

    max_sigma = 0.0
    for i in range(inst.n):
        mean = totals[i] / draws
        se = math.sqrt(variances[i] / draws)
        max_sigma = max(max_sigma, abs(mean - expected[i]) / se)
    ok = max_sigma <= 3.0
    _report(
        "criterion 9 (expected-cost identity)",
        ok,
        f"max deviation {max_sigma:.2f} standard errors over {draws} draws",
    )
