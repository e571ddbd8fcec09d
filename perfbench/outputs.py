"""Output checks with the benchmark's own Hamming code.

Nothing here calls ``centerstring.core``: the checks must stay valid when
the package's cost functions change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Parsed:
    """An instance text decoded to symbol-index arrays."""

    k: int
    strings: tuple[np.ndarray, ...]
    L: int | None
    planted_d: int

    @classmethod
    def of(cls, text: str) -> "Parsed":
        obj = json.loads(text)
        index = {c: i for i, c in enumerate(obj["alphabet"])}
        rows = tuple(np.array([index[c] for c in s], dtype=np.uint8) for s in obj["strings"])
        return cls(len(index), rows, obj.get("L"), int(obj["planted"]["d"]))

    @property
    def width(self) -> int:
        return len(self.strings[0]) if self.L is None else self.L


def radius_and_offsets(inst: Parsed, center: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Max over strings of the min Hamming distance to any window (the whole
    string when L is None), and the first minimizing offset of each string."""
    radius, offsets = 0, []
    for s in inst.strings:
        wins = np.lib.stride_tricks.sliding_window_view(s, inst.width)
        dist = (wins != center).sum(axis=1)
        off = int(np.argmin(dist))
        offsets.append(off)
        radius = max(radius, int(dist[off]))
    return radius, tuple(offsets)


def violations(inst: Parsed, center: tuple[int, ...], radius: int,
               witnesses: tuple[int, ...], reference: int, bound: Fraction) -> list[str]:
    """Everything wrong with one returned solution; empty when it is correct."""
    out = []
    arr = np.array(center, dtype=np.int64)
    if len(arr) != inst.width or (len(arr) and (arr.min() < 0 or arr.max() >= inst.k)):
        return [f"center is not a length-{inst.width} string over the alphabet"]
    arr = arr.astype(np.uint8)
    recomputed, _ = radius_and_offsets(inst, arr)
    if radius != recomputed:
        out.append(f"radius {radius} but the center's cost is {recomputed}")
    if len(witnesses) != len(inst.strings):
        out.append(f"{len(witnesses)} witnesses for {len(inst.strings)} strings")
    else:
        for s, off in zip(inst.strings, witnesses):
            if not 0 <= off <= len(s) - inst.width:
                out.append(f"witness offset {off} outside string of length {len(s)}")
            elif int((s[off:off + inst.width] != arr).sum()) > radius:
                out.append(f"window at witness {off} is farther than the radius")
    if radius > math.ceil(bound * reference):
        out.append(f"radius {radius} exceeds ceil({bound} * {reference})")
    return out


def ratio(radius: int, reference: int) -> float:
    if reference == 0:
        return 1.0 if radius == 0 else math.inf
    return radius / reference
