"""Memory of the exact substring oracle: flat in the string length."""

import tracemalloc

import numpy as np

from centerstring import BINARY, SubstringInstance, cost_substring, exact_closest_substring


def whole_array_center(inst):
    """The first minimum-radius center, scored with one (candidates,
    windows, L) compare per string over all k^L candidates at once."""
    k, l = inst.alphabet.size, inst.window
    ids = np.arange(k ** l)
    cands = (ids[:, None] // k ** np.arange(l - 1, -1, -1)) % k
    costs = np.zeros(len(ids), dtype=np.int64)
    for wins in inst.windows:
        np.maximum(costs, (cands[:, None, :] != wins[None, :, :]).sum(axis=2).min(axis=1), out=costs)
    return tuple(int(v) for v in cands[int(np.argmin(costs))])


def test_long_strings_stay_under_a_fixed_cap():
    # three binary length-120 strings at L = 14: the whole-array compare
    # holds 16384 x 107 x 14 bools per string, about 24.5 MB
    rng = np.random.default_rng(5)
    texts = ["".join("01"[v] for v in rng.integers(0, 2, 120)) for _ in range(3)]
    inst = SubstringInstance.from_texts(BINARY, texts, 14)
    tracemalloc.start()
    try:
        sol = exact_closest_substring(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert tuple(sol.center.data) == whole_array_center(inst)
    assert (sol.radius, sol.witnesses) == cost_substring(inst, sol.center)
