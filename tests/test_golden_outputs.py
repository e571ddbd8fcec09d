"""Golden outputs: every solver path returns the recorded (center, radius, witnesses).

`golden_outputs.json` holds seeded instances together with the solver
output recorded before the patch-sweep kernels were merged; `auto-01-39`
and `auto-01-40` were re-recorded when the sampling solver began sweeping
the tuples its sample covers (same radius, another center), and
`string_lp-012-15` when the whole-string solver began taking the first
candidate of minimum radius in enumeration order (same radius, another
center).  The cases cover the whole-string sweep and LP paths and the
substring `small_d`, `sampling` and `auto` paths, over alphabets of size
2, 3 and 4 and substring inputs of unequal length.
`sampling-01-41` and `sampling-01-42`, appended later and recorded on the
code before the restricted problem became arrays, `sampling-01-43` and
`sampling-01-44`, recorded on the code before guesses were scored in
blocks, and `sampling-012-45`, `auto-012-46`, `sampling-01-47` and
`auto-01-48`, recorded on the code before instances became arrays, are
the only cases whose window tuples are guessed, so they alone pin window
selection and the LP stage of a guessed tuple.  Between them they cover
k = 2 and k = 3, and reach the guessed path of `auto` through a small
y_budget (46, 48).
Cases 43, 44, 47 and 48 have two guessed tuples each.  The first solves
2 or 3 distinct window selections, so these cases also pin the order in
which the selections are solved; the second is skipped, as the first
already reaches the instance bound.  Before that skip they solved 4 or 5
selections.  A refactor that keeps results must keep these bytes.

`string_lp-01-13`, `sampling-01-41`, `sampling-01-42`, `sampling-01-43`,
`sampling-01-44`, `sampling-01-47` and `auto-01-48` were re-recorded when
the restricted LP began running HiGHS without presolve: HiGHS returned
another optimal vertex, which rounds to another center of the same radius
and witnesses.  The LP-path cases hang on HiGHS's vertex choice, so a
scipy release that changes it can move them too.

`sampling-01-42` was re-recorded when rounding became one rule
(derandomized, falling back to randomized): it had been recorded under
randomized rounding, and moved to another center of the same radius.  The
spec rows that then differed only in their rounding mode are kept, so
every case keeps its seeds and id.

Run `python tests/test_golden_outputs.py` to rebuild the file from the
current code; do that only for a change meant to alter solver output.
"""

import json
from pathlib import Path

import numpy as np

from centerstring import (
    Alphabet,
    ClosestStringConfig,
    RoundingConfig,
    StringInstance,
    SubstringConfig,
    SubstringInstance,
    solve_closest_string,
    solve_closest_substring,
    solve_small_substring,
    solve_substring,
)
from centerstring import closest_substring, lp_round

GOLDEN = Path(__file__).with_name("golden_outputs.json")
# the guessed cases and the distinct window selections they solve
GUESSED = {
    "sampling-01-41": 1, "sampling-01-42": 1, "sampling-01-43": 2, "sampling-01-44": 3,
    "sampling-012-45": 1, "auto-012-46": 1, "sampling-01-47": 2, "auto-01-48": 2,
}


def _solve(case):
    alpha = Alphabet.of(case["alphabet"])
    cfg = case["config"]
    if case["solver"] == "string":
        rounding = RoundingConfig(
            trials=cfg["trials"],
            epsilon_prime=cfg["epsilon_prime"],
            rng_seed=cfg["seed"],
        )
        inst = StringInstance.from_texts(alpha, case["strings"])
        return solve_closest_string(inst, ClosestStringConfig(r=cfg["r"], rounding=rounding))
    inst = SubstringInstance.from_texts(alpha, case["strings"], case["L"])
    sub_cfg = SubstringConfig(
        r=cfg["r"], epsilon=cfg["epsilon"], trials=cfg["trials"], mode=cfg["mode"], rng_seed=cfg["seed"],
        y_budget=cfg.get("y_budget", SubstringConfig.y_budget),
    )
    solver = {
        "small_d": solve_small_substring,
        "sampling": solve_closest_substring,
        "auto": solve_substring,
    }[cfg["mode"]]
    return solver(inst, sub_cfg)


def _output(sol):
    return {"center": sol.center.text, "radius": sol.radius, "witnesses": list(sol.witnesses)}


def _cases():
    return json.loads(GOLDEN.read_text())["cases"]


def test_solver_outputs_match_golden():
    mismatched = [
        c["id"] for c in _cases()
        if json.dumps(_output(_solve(c)), sort_keys=True)
        != json.dumps(c["expect"], sort_keys=True)
    ]
    assert mismatched == []


def test_guessed_tuples_counted_on_the_guessed_cases_only():
    # the count is what tells which ratio bound a substring solve has
    counts = {c["id"]: _solve(c).guessed_tuples for c in _cases()}
    assert {case for case, count in counts.items() if count > 0} == GUESSED.keys()
    assert all(counts[c["id"]] == 0 for c in _cases() if c["path"] in ("string_sweep", "string_lp", "small_d"))


def test_golden_covers_every_path():
    paths = {c["path"] for c in _cases()}
    assert paths == {"string_sweep", "string_lp", "small_d", "sampling", "auto"}
    assert {len(c["alphabet"]) for c in _cases()} == {2, 3, 4}


def test_guessed_cases_reach_the_restricted_lp(monkeypatch):
    # a guessed tuple has |P| > |R| = ceil(4 ln(n*m) / eps^2) >= 4 ln(n) / eps^2,
    # the enumeration threshold at eps' = eps, so its selections never sweep
    built, solved = [], []
    build, solve_lp = closest_substring.build_restricted, lp_round.solve_lp

    def recording(*args):
        built.append(args)
        return build(*args)

    def swept(*args, **kwargs):
        raise AssertionError("a window selection was swept")

    monkeypatch.setattr(closest_substring, "build_restricted", recording)
    monkeypatch.setattr(lp_round, "enumerate_small_P", swept)
    monkeypatch.setattr(lp_round, "solve_lp", lambda p: solved.append(p) or solve_lp(p))
    counts = {}
    for case in _cases():
        if case["id"] in GUESSED:
            built.clear()
            solved.clear()
            _solve(case)
            counts[case["id"]] = (len(built), len(solved))
    # one restricted problem and one LP per distinct window selection
    assert counts == {case: (count, count) for case, count in GUESSED.items()}


def _planted(rng, alphabet, lengths, width, d):
    """Texts of the given lengths, each holding the center with d changes."""
    k = len(alphabet)
    center = rng.integers(0, k, size=width)
    texts = []
    for m in lengths:
        copy = center.copy()
        pos = rng.choice(width, size=d, replace=False)
        copy[pos] = (copy[pos] + rng.integers(1, k, size=d)) % k
        row = rng.integers(0, k, size=m)
        off = int(rng.integers(0, m - width + 1))
        row[off:off + width] = copy
        texts.append("".join(alphabet[v] for v in row))
    return texts


def _shifted_pair(rng, alphabet, lengths):
    """Two texts of the given lengths whose windows at equal offsets differ
    at every position; over "01", a complementary pair."""
    k = len(alphabet)
    row = rng.integers(0, k, size=max(lengths))
    other = (row + rng.integers(1, k, size=len(row))) % k
    return ["".join(alphabet[v] for v in r[:m]) for r, m in zip((row, other), lengths)]


def _build_cases():
    specs = []
    # (path, alphabet, n, m, L, d, r, mode, eps', eps, count)
    string_specs = [
        ("string_sweep", "01", 4, 14, None, 3, 2, "", 0.5, 1.0, 4),
        ("string_sweep", "01", 5, 12, None, 2, 3, "", 0.5, 1.0, 2),
        ("string_sweep", "012", 4, 10, None, 2, 2, "", 0.5, 1.0, 2),
        ("string_sweep", "ACGT", 4, 8, None, 2, 2, "", 0.5, 1.0, 2),
        ("string_lp", "ACGT", 6, 30, None, 5, 2, "", 1.0, 1.0, 2),
        ("string_lp", "ACGT", 6, 30, None, 5, 2, "", 1.0, 1.0, 1),
        ("string_lp", "01", 6, 30, None, 5, 2, "", 1.0, 1.0, 2),
        ("string_lp", "012", 5, 24, None, 4, 2, "", 1.0, 1.0, 1),
    ]
    substring_specs = [
        ("small_d", "01", 3, (8, 9, 7), 5, 1, 2, "small_d", 0.5, 1.0, 4),
        ("small_d", "012", 3, (7, 8, 6), 4, 1, 2, "small_d", 0.5, 1.0, 3),
        ("small_d", "ACGT", 4, (9, 7, 8, 10), 5, 1, 2, "small_d", 0.5, 1.0, 3),
        ("small_d", "01", 4, (7, 8, 7, 9), 5, 2, 3, "small_d", 0.5, 1.0, 2),
        ("sampling", "01", 3, (7, 8, 7), 5, 1, 2, "sampling", 0.5, 1.0, 4),
        ("sampling", "012", 3, (6, 7, 6), 4, 1, 2, "sampling", 0.5, 1.0, 2),
        ("auto", "01", 3, (8, 7, 9), 5, 0, 2, "auto", 0.5, 1.0, 2),
        ("auto", "ACGT", 3, (8, 9, 8), 5, 2, 2, "auto", 0.5, 1.0, 2),
        ("auto", "01", 2, (6, 6), 6, 3, 2, "auto", 0.5, 1.0, 3),
        # d=None: a complementary pair, |P| = L = 15 > |R| = 14, so its one
        # window tuple is guessed and its selected windows reach the LP
        ("sampling", "01", 2, (15, 15), 15, None, 2, "sampling", 0.5, 1.0, 1),
        ("sampling", "01", 2, (15, 15), 15, None, 2, "sampling", 0.5, 1.0, 1),
    ]
    for index, spec in enumerate(string_specs + substring_specs):
        path, alphabet, n, m, l, d, r, mode, eps_p, eps, count = spec
        for seed in range(count):
            rng = np.random.default_rng([index, seed])
            if l is None:
                strings = _planted(rng, alphabet, [m] * n, m, d)
            elif d is None:
                strings = _shifted_pair(rng, alphabet, m)
            else:
                strings = _planted(rng, alphabet, list(m), l, d)
            case = {
                "id": f"{path}-{alphabet}-{len(specs)}",
                "path": path,
                "solver": "string" if l is None else "substring",
                "alphabet": alphabet,
                "strings": strings,
                "L": l,
                "config": {
                    "r": r, "mode": mode, "trials": 8,
                    "epsilon_prime": eps_p, "epsilon": eps, "seed": 1000 + seed,
                },
            }
            case["expect"] = _output(_solve(case))
            specs.append(case)
    # binary pairs of length 16 at L = 15 whose guessed tuples select 4 and
    # 5 distinct window selections: these pin the order in which distinct
    # selections are solved (rng seeds 8 and 12)
    for strings, seed in (
        (["0010110110111110", "1101001001000001"], 8),
        (["1011011111110010", "0100100000001101"], 12),
    ):
        case = {
            "id": f"sampling-01-{len(specs)}",
            "path": "sampling",
            "solver": "substring",
            "alphabet": "01",
            "strings": strings,
            "L": 15,
            "config": {
                "r": 2, "mode": "sampling", "trials": 8,
                "epsilon_prime": 0.5, "epsilon": 1.0, "seed": seed,
            },
        }
        case["expect"] = _output(_solve(case))
        specs.append(case)
    # shifted pairs whose equal-offset windows make guessed tuples: over
    # k = 3, and with derandomized rounding, which the cases above leave
    # out; the binary auto case's y_budget of 2^14 guesses the pairs that
    # differ at all 15 positions and sweeps the others.  A guessed tuple
    # makes k^|R| guesses, and |R| >= 14 whenever a window is longer than
    # |R|, so a k = 4 case (4^14 guesses) would take minutes
    for alphabet, lengths, width, mode, y_budget in (
        ("012", (15, 15), 15, "sampling", 3 ** 14),
        ("012", (16, 16), 16, "auto", 3 ** 14),
        ("01", (16, 16), 15, "sampling", 1 << 16),
        ("01", (16, 16), 15, "auto", 1 << 14),
    ):
        rng = np.random.default_rng([len(specs)])
        case = {
            "id": f"{mode}-{alphabet}-{len(specs)}",
            "path": mode,
            "solver": "substring",
            "alphabet": alphabet,
            "strings": _shifted_pair(rng, alphabet, lengths),
            "L": width,
            "config": {
                "r": 2, "mode": mode, "trials": 8,
                "epsilon_prime": 0.5, "epsilon": 1.0, "seed": len(specs), "y_budget": y_budget,
            },
        }
        case["expect"] = _output(_solve(case))
        specs.append(case)
    return specs


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"cases": _build_cases()}, indent=1, sort_keys=True) + "\n")
