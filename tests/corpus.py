"""A seeded differential corpus: one short digest of every case's output.

Three groups of seeded cases, each with its id:
- `string-*`: whole-string solves at enum_budget 1, so every subset with a
  free position takes the LP path; random and planted, k 2-4, r 2-3,
  epsilon' 0.1-1;
- `tight-*`: the same at r = 2 on random binary instances of 6-10
  strings at epsilon' 0.1 or 0.2, where the derandomized estimator often
  starts at >= 1 and the rounding falls back to randomized rounding;
- `guessed-*`: binary pairs of a string and its complement, m 15 or 16,
  L = 15, at y_budget 2^14, where the tuples of two opposite windows are
  guessed on a 14-position sample and reach the restricted LP;
- `substring-*`: random substring solves with unequal lengths, k 2-4,
  r 2-3 and y_budget 2^3-2^16, some of them refused with BudgetExceeded.

A case's digest hashes (center, radius, witnesses, guessed_tuples), or
(error class, message) when the solve raises, so each id names the case
that moved.  `corpus_digests.json` holds the recorded digests; a change
that keeps outputs passes `test_corpus.py` with it unedited.  A change
meant to alter outputs re-records it with

    PYTHONPATH=src python tests/corpus.py

which prints the ids whose digest changed (appeared or vanished included).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from centerstring import (
    Alphabet,
    ClosestStringConfig,
    RoundingConfig,
    StringInstance,
    SubstringConfig,
    SubstringInstance,
    generate_planted,
    solve_closest_string,
    solve_substring,
)
from centerstring.errors import CenterStringError

DIGESTS = Path(__file__).with_name("corpus_digests.json")
ALPHABETS = ("01", "012", "ACGT")
EPSILONS = (0.1, 0.2, 0.3, 0.5, 0.75, 1.0)


def _string_cases() -> Iterator[tuple[str, Callable]]:
    rng = np.random.default_rng(2027)
    for i in range(360):
        alphabet = ALPHABETS[i % 3]
        k = len(alphabet)
        planted = i % 2 == 1
        n, m = int(rng.integers(3, 7)), int(rng.integers(6, 41))
        r = int(rng.integers(2, 4))
        eps = EPSILONS[int(rng.integers(len(EPSILONS)))]
        seed = int(rng.integers(1 << 31))
        if planted:
            d = int(rng.integers(1, m // 3 + 2))
            sub, _ = generate_planted(alphabet, n, m, m, d, seed)
            inst = StringInstance(sub.alphabet, sub.strings)
            kind = f"planted-d{d}"
        else:
            inst = StringInstance(Alphabet.of(alphabet), rng.integers(0, k, (n, m)))
            kind = "random"
        cfg = ClosestStringConfig(r, RoundingConfig(epsilon_prime=eps, rng_seed=seed), enum_budget=1)
        yield (f"string-{i:03d}-{kind}-k{k}-n{n}-m{m}-r{r}-e{eps}",
               lambda inst=inst, cfg=cfg: solve_closest_string(inst, cfg))


def _tight_cases() -> Iterator[tuple[str, Callable]]:
    rng = np.random.default_rng(2030)
    binary = Alphabet.of("01")
    for i in range(36):
        n, m = int(rng.integers(6, 11)), int(rng.integers(10, 31))
        eps = (0.1, 0.2)[i // 3 % 2]
        inst = StringInstance(binary, rng.integers(0, 2, (n, m)))
        seed = int(rng.integers(1 << 31))
        cfg = ClosestStringConfig(2, RoundingConfig(epsilon_prime=eps, rng_seed=seed), enum_budget=1)
        yield (f"tight-{i:03d}-n{n}-m{m}-e{eps}",
               lambda inst=inst, cfg=cfg: solve_closest_string(inst, cfg))


def _guessed_cases() -> Iterator[tuple[str, Callable]]:
    rng = np.random.default_rng(2028)
    binary = Alphabet.of("01")
    for i in range(48):
        m = 15 + i % 2
        s = rng.integers(0, 2, m)
        inst = SubstringInstance(binary, (s, 1 - s), 15)
        cfg = SubstringConfig(y_budget=1 << 14, rng_seed=int(rng.integers(1 << 31)))
        yield f"guessed-{i:03d}-m{m}", lambda inst=inst, cfg=cfg: solve_substring(inst, cfg)


def _substring_cases() -> Iterator[tuple[str, Callable]]:
    rng = np.random.default_rng(2029)
    for i in range(240):
        alphabet = ALPHABETS[i % 3]
        k = len(alphabet)
        n, window = int(rng.integers(2, 5)), int(rng.integers(2, 8))
        lengths = rng.integers(window, window + 5, n)
        strings = tuple(rng.integers(0, k, int(size)) for size in lengths)
        inst = SubstringInstance(Alphabet.of(alphabet), strings, window)
        budget = 1 << int(rng.integers(3, 17))
        cfg = SubstringConfig(
            r=int(rng.integers(2, 4)), epsilon=EPSILONS[int(rng.integers(len(EPSILONS)))],
            y_budget=budget, rng_seed=int(rng.integers(1 << 31)),
        )
        shape = "x".join(map(str, lengths.tolist()))
        yield (f"substring-{i:03d}-k{k}-{shape}-L{window}-r{cfg.r}-e{cfg.epsilon}-b{budget}",
               lambda inst=inst, cfg=cfg: solve_substring(inst, cfg))


def cases() -> Iterator[tuple[str, Callable]]:
    """(id, solve) per case, every group in a fixed order."""
    yield from _string_cases()
    yield from _tight_cases()
    yield from _guessed_cases()
    yield from _substring_cases()


def digest(solve: Callable) -> str:
    """16 hex digits of the sha256 of the solve's output, or of its error."""
    try:
        sol = solve()
        fields = (sol.center.text, sol.radius, sol.witnesses, sol.guessed_tuples)
    except CenterStringError as exc:
        fields = (type(exc).__name__, str(exc))
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def record() -> dict[str, str]:
    return {case_id: digest(solve) for case_id, solve in cases()}


def changed_ids(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Ids whose digest differs, present in only one of the two included."""
    return sorted(i for i in old.keys() | new.keys() if old.get(i) != new.get(i))


def main() -> None:
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = record()
    DIGESTS.write_text(json.dumps(new, indent=1) + "\n")
    changed = changed_ids(old, new)
    for case_id in changed:
        print(case_id)
    print(f"{len(changed)} of {len(new)} case digests changed; wrote {DIGESTS.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
