"""Golden outputs: every solver path returns the recorded (center, radius, witnesses).

`golden_outputs.json` holds seeded instances together with the solver
output recorded before the patch-sweep kernels were merged; `auto-01-39`
and `auto-01-40` were re-recorded when the sampling solver began sweeping
the tuples its sample covers (same radius, another center), and
`string_lp-012-15` when the whole-string solver began taking the first
candidate of minimum radius in enumeration order (same radius, another
center).  The cases cover the whole-string sweep and LP paths (every
rounding mode) and the substring `small_d`, `sampling` and `auto` paths,
over alphabets of size 2, 3 and 4 and substring inputs of unequal length.
`sampling-01-41` and `sampling-01-42`, appended later and recorded on the
code before the restricted problem became arrays, are the only cases
whose window tuple is guessed, so they alone pin window selection and
the LP stage of a guessed tuple (rounding `auto` and `randomized`).  A
refactor that keeps results must keep these bytes.

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
from centerstring import closest_substring

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _solve(case):
    alpha = Alphabet.of(case["alphabet"])
    cfg = case["config"]
    if case["solver"] == "string":
        rounding = RoundingConfig(
            mode=cfg["rounding_mode"],
            trials=cfg["trials"],
            epsilon_prime=cfg["epsilon_prime"],
            rng_seed=cfg["seed"],
        )
        inst = StringInstance.from_texts(alpha, case["strings"])
        return solve_closest_string(inst, ClosestStringConfig(r=cfg["r"], rounding=rounding))
    inst = SubstringInstance.from_texts(alpha, case["strings"], case["L"])
    sub_cfg = SubstringConfig(
        r=cfg["r"], epsilon=cfg["epsilon"], rounding_mode=cfg["rounding_mode"],
        trials=cfg["trials"], mode=cfg["mode"], rng_seed=cfg["seed"],
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


def test_golden_covers_every_path():
    paths = {c["path"] for c in _cases()}
    assert paths == {"string_sweep", "string_lp", "small_d", "sampling", "auto"}
    assert {len(c["alphabet"]) for c in _cases()} == {2, 3, 4}


def test_guessed_cases_reach_the_restricted_lp(monkeypatch):
    built = []
    build = closest_substring.build_restricted

    def recording(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(closest_substring, "build_restricted", recording)
    for case in _cases():
        if case["id"] in ("sampling-01-41", "sampling-01-42"):
            _solve(case)
    assert len(built) == 2


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


def _complementary_pair(rng, width):
    """Two binary texts of the given width that differ at every position."""
    row = rng.integers(0, 2, size=width)
    return ["".join(map(str, row)), "".join(map(str, 1 - row))]


def _build_cases():
    specs = []
    # (path, alphabet, n, m, L, d, r, mode, rounding mode, eps', eps, count)
    string_specs = [
        ("string_sweep", "01", 4, 14, None, 3, 2, "", "auto", 0.5, 1.0, 4),
        ("string_sweep", "01", 5, 12, None, 2, 3, "", "auto", 0.5, 1.0, 2),
        ("string_sweep", "012", 4, 10, None, 2, 2, "", "auto", 0.5, 1.0, 2),
        ("string_sweep", "ACGT", 4, 8, None, 2, 2, "", "auto", 0.5, 1.0, 2),
        ("string_lp", "ACGT", 6, 30, None, 5, 2, "", "auto", 1.0, 1.0, 2),
        ("string_lp", "ACGT", 6, 30, None, 5, 2, "", "derandomized", 1.0, 1.0, 1),
        ("string_lp", "01", 6, 30, None, 5, 2, "", "randomized", 1.0, 1.0, 2),
        ("string_lp", "012", 5, 24, None, 4, 2, "", "auto", 1.0, 1.0, 1),
    ]
    substring_specs = [
        ("small_d", "01", 3, (8, 9, 7), 5, 1, 2, "small_d", "auto", 0.5, 1.0, 4),
        ("small_d", "012", 3, (7, 8, 6), 4, 1, 2, "small_d", "auto", 0.5, 1.0, 3),
        ("small_d", "ACGT", 4, (9, 7, 8, 10), 5, 1, 2, "small_d", "auto", 0.5, 1.0, 3),
        ("small_d", "01", 4, (7, 8, 7, 9), 5, 2, 3, "small_d", "auto", 0.5, 1.0, 2),
        ("sampling", "01", 3, (7, 8, 7), 5, 1, 2, "sampling", "auto", 0.5, 1.0, 4),
        ("sampling", "012", 3, (6, 7, 6), 4, 1, 2, "sampling", "randomized", 0.5, 1.0, 2),
        ("auto", "01", 3, (8, 7, 9), 5, 0, 2, "auto", "auto", 0.5, 1.0, 2),
        ("auto", "ACGT", 3, (8, 9, 8), 5, 2, 2, "auto", "auto", 0.5, 1.0, 2),
        ("auto", "01", 2, (6, 6), 6, 3, 2, "auto", "auto", 0.5, 1.0, 3),
        # d=None: a complementary pair, |P| = L = 15 > |R| = 14, so its one
        # window tuple is guessed and its selected windows reach the LP
        ("sampling", "01", 2, (15, 15), 15, None, 2, "sampling", "auto", 0.5, 1.0, 1),
        ("sampling", "01", 2, (15, 15), 15, None, 2, "sampling", "randomized", 0.5, 1.0, 1),
    ]
    for index, spec in enumerate(string_specs + substring_specs):
        path, alphabet, n, m, l, d, r, mode, rmode, eps_p, eps, count = spec
        for seed in range(count):
            rng = np.random.default_rng([index, seed])
            if l is None:
                strings = _planted(rng, alphabet, [m] * n, m, d)
            elif d is None:
                strings = _complementary_pair(rng, l)
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
                    "r": r, "mode": mode, "rounding_mode": rmode, "trials": 8,
                    "epsilon_prime": eps_p, "epsilon": eps, "seed": 1000 + seed,
                },
            }
            case["expect"] = _output(_solve(case))
            specs.append(case)
    return specs


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"cases": _build_cases()}, indent=1, sort_keys=True) + "\n")
