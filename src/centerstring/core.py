"""Strings, alphabets, instances and Hamming geometry.

Positions are 0-based throughout the library; only the CLI renders them
1-based.  All types are immutable after construction, all operations are
pure functions, so everything here is safe to share across threads.
A `Seq` stores its alphabet indices once, as `bytes`; `Seq.arr` and the
instance views (`StringInstance.matrix`, `SubstringInstance.windows`) are
read-only uint8 arrays over them, the latter computed on first use.  Two
threads that race on a first use both compute the same view: benign.
Position sets are (m,) boolean masks, as `agreement_positions` returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    DomainError,
    EmptyInput,
    LengthMismatch,
    WindowTooLong,
)


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character symbols."""

    symbols: tuple[str, ...]
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise DomainError("alphabet needs at least 2 symbols")
        if len(self.symbols) > 256:
            raise DomainError("alphabet has more than 256 symbols, the most one byte can index")
        for s in self.symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise DomainError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise DomainError("alphabet symbols must be distinct")
        object.__setattr__(self, "_lookup", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def of(cls, symbols: str | Iterable[str]) -> "Alphabet":
        return cls(tuple(symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._lookup[symbol]
        except KeyError:
            raise AlphabetMismatch(f"symbol {symbol!r} not in alphabet {''.join(self.symbols)!r}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._lookup


BINARY = Alphabet.of("01")
DNA = Alphabet.of("ACGT")


@dataclass(frozen=True)
class Seq:
    """Immutable symbol string of alphabet indices, given as any iterable of
    integers (ndarrays included) and stored as bytes, one byte each."""

    alphabet: Alphabet
    data: bytes

    def __post_init__(self) -> None:
        k = self.alphabet.size
        if not isinstance(self.data, bytes):
            # tolist() and iter() keep bytes() from copying an ndarray's raw
            # buffer or reading a bare int n as n zero bytes
            values = self.data.tolist() if isinstance(self.data, np.ndarray) else self.data
            try:
                object.__setattr__(self, "data", bytes(iter(values)))
            except (TypeError, ValueError):
                raise DomainError(f"symbol indices must be integers in range({k})") from None
        if self.data and max(self.data) >= k:
            raise DomainError(f"symbol index {max(self.data)} out of range for alphabet size {k}")

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> "Seq":
        return cls(alphabet, bytes(map(alphabet.index, text)))

    @property
    def arr(self) -> np.ndarray:
        """Read-only uint8 view of the indices (no copy)."""
        return np.frombuffer(self.data, dtype=np.uint8)

    @property
    def text(self) -> str:
        return "".join(self.alphabet.symbols[v] for v in self.data)

    def window(self, offset: int, length: int) -> "Seq":
        if offset < 0 or offset + length > len(self.data):
            raise DomainError(f"window [{offset}, {offset + length}) outside sequence of length {len(self.data)}")
        return Seq(self.alphabet, self.data[offset:offset + length])

    def __len__(self) -> int:
        return len(self.data)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class StringInstance:
    """n strings of one common length m over one alphabet."""

    alphabet: Alphabet
    strings: tuple[Seq, ...]

    def __post_init__(self) -> None:
        if not self.strings:
            raise EmptyInput("instance needs at least one string")
        m = len(self.strings[0])
        if m < 1:
            raise DomainError("strings must be nonempty")
        for s in self.strings:
            if s.alphabet != self.alphabet:
                raise AlphabetMismatch("all strings must share the instance alphabet")
            if len(s) != m:
                raise LengthMismatch("all strings must have equal length")

    @classmethod
    def from_texts(cls, alphabet: Alphabet, texts: Sequence[str]) -> "StringInstance":
        return cls(alphabet, tuple(Seq.from_text(alphabet, t) for t in texts))

    @property
    def n(self) -> int:
        return len(self.strings)

    @property
    def m(self) -> int:
        return len(self.strings[0])

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only (n, m) uint8 matrix of the strings, one row each."""
        joined = b"".join([s.data for s in self.strings])
        return np.frombuffer(joined, dtype=np.uint8).reshape(self.n, self.m)


@dataclass(frozen=True)
class SubstringInstance:
    """n strings (lengths may differ) plus a target window length L."""

    alphabet: Alphabet
    strings: tuple[Seq, ...]
    window: int

    def __post_init__(self) -> None:
        if not self.strings:
            raise EmptyInput("instance needs at least one string")
        if self.window < 1:
            raise DomainError("window length must be >= 1")
        for s in self.strings:
            if s.alphabet != self.alphabet:
                raise AlphabetMismatch("all strings must share the instance alphabet")
            if len(s) < self.window:
                raise WindowTooLong(f"window {self.window} exceeds a string of length {len(s)}")

    @classmethod
    def from_texts(cls, alphabet: Alphabet, texts: Sequence[str], window: int) -> "SubstringInstance":
        return cls(alphabet, tuple(Seq.from_text(alphabet, t) for t in texts), window)

    @property
    def n(self) -> int:
        return len(self.strings)

    @cached_property
    def windows(self) -> tuple[np.ndarray, ...]:
        """Per string, a read-only view with one row per length-L window."""
        return tuple(
            np.lib.stride_tricks.sliding_window_view(s.arr, self.window) for s in self.strings
        )


@dataclass(frozen=True)
class CenterSolution:
    """A center string, its achieved radius and per-input window offsets.

    Offsets are always 0 for the whole-string problem.  The radius is the
    recomputed cost of the center, never a stale bound.
    """

    center: Seq
    radius: int
    witnesses: tuple[int, ...]


def _check_same_alphabet(a: Seq, b: Seq) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("sequences use different alphabets")


def hamming(a: Seq, b: Seq) -> int:
    """Number of positions where a and b differ."""
    _check_same_alphabet(a, b)
    if len(a) != len(b):
        raise LengthMismatch(f"length {len(a)} vs {len(b)}")
    return int((a.arr != b.arr).sum())


def agreement_positions(ts: Sequence[Seq]) -> np.ndarray:
    """Read-only (m,) bool mask of the positions where all given
    equal-length sequences carry the same symbol."""
    if not ts:
        raise EmptyInput("need at least one sequence")
    m = len(ts[0])
    for s in ts[1:]:
        _check_same_alphabet(ts[0], s)
        if len(s) != m:
            raise LengthMismatch("sequences must have equal length")
    mat = np.frombuffer(b"".join([s.data for s in ts]), dtype=np.uint8).reshape(len(ts), m)
    agree = (mat == mat[0]).all(axis=0)
    agree.flags.writeable = False
    return agree


def cost_string(inst: StringInstance, center: Seq) -> int:
    """Max Hamming distance from center to the instance strings."""
    _check_same_alphabet(inst.strings[0], center)
    if len(center) != inst.m:
        raise LengthMismatch(f"center length {len(center)} vs instance length {inst.m}")
    return int((inst.matrix != center.arr).sum(axis=1).max())


def cost_substring(inst: SubstringInstance, center: Seq) -> tuple[int, tuple[int, ...]]:
    """Max over strings of the min distance from center to any length-L window.

    Returns (radius, per-string offsets); window ties break toward the
    smallest offset.
    """
    _check_same_alphabet(inst.strings[0], center)
    if len(center) != inst.window:
        raise LengthMismatch(f"center length {len(center)} vs window {inst.window}")
    carr = center.arr
    radius = 0
    offsets = []
    for wins in inst.windows:
        dists = (wins != carr).sum(axis=1)
        off = int(np.argmin(dists))  # first occurrence = smallest offset
        offsets.append(off)
        radius = max(radius, int(dists[off]))
    return radius, tuple(offsets)


def rho0_diagnostic(ts: Sequence[Seq], d_ref: int) -> Fraction:
    """Max pairwise Hamming distance divided by a reference radius."""
    if d_ref <= 0:
        raise DomainError("d_ref must be positive")
    worst = 0
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            worst = max(worst, hamming(ts[i], ts[j]))
    return Fraction(worst, d_ref)
