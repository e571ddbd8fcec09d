"""Strings, alphabets, instances and Hamming geometry.

Positions are 0-based throughout the library; only the CLI renders them
1-based.  All types are immutable after construction, all operations are
pure functions, so everything here is safe to share across threads.
An instance holds its input strings as read-only uint8 arrays of alphabet
indices, validated and copied once by its constructor: the (n, m)
`StringInstance.matrix`, and the `SubstringInstance.strings` rows with
their `windows` views.  `from_texts` builds them from text.  A `Seq`
stores its indices as `bytes`; it is the type of a solution's center and
the text form of a string.  Position sets are (m,) boolean masks, as
`agreement_positions` returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    # str.translate tables: symbol to the character of its index, and
    # symbol to nothing, which leaves only the text's unknown symbols
    _codes: dict = field(init=False, repr=False, compare=False)
    _drop: dict = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_codes", {ord(s): chr(i) for i, s in enumerate(self.symbols)})
        object.__setattr__(self, "_drop", dict.fromkeys(map(ord, self.symbols)))

    @classmethod
    def of(cls, symbols: str | Iterable[str]) -> "Alphabet":
        return cls(tuple(symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, text: str) -> bytes:
        """The text's symbol indices, one byte each; the first symbol
        outside the alphabet raises AlphabetMismatch."""
        unknown = text.translate(self._drop)
        if unknown:
            raise AlphabetMismatch(f"symbol {unknown[0]!r} not in alphabet {''.join(self.symbols)!r}")
        return text.translate(self._codes).encode("latin-1")


BINARY = Alphabet.of("01")
DNA = Alphabet.of("ACGT")


def _indices(strings: object, k: int) -> tuple[np.ndarray, list[int]]:
    """The strings' symbol indices joined into one read-only uint8 array of
    its own, and the offset at which each string ends in it.

    A string may be bytes, an ndarray of any integer dtype or an iterable
    of integers; anything but flat runs of integers in range(k) raises
    DomainError.  The strings are checked and copied together, so that
    parsing a large batch of small instances stays cheap.
    """
    try:
        arrays = [
            np.frombuffer(s, dtype=np.uint8) if isinstance(s, bytes)
            # list() takes any iterable and refuses a bare integer or numpy scalar
            else s if isinstance(s, np.ndarray) else np.array(list(s))
            for s in strings
        ]
    except (TypeError, ValueError, OverflowError):
        arrays = None
    if arrays is None or any(a.ndim != 1 or (a.size and a.dtype.kind not in "iu") for a in arrays):
        raise DomainError(f"symbol indices must be integers in range({k})")
    flat = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.uint8)
    # rows of mixed dtypes may join as float64, which still orders every integer
    if flat.size and (flat.max() >= k or (flat.dtype.kind != "u" and flat.min() < 0)):
        bad = flat.max() if flat.max() >= k else flat.min()
        raise DomainError(f"symbol index {bad} out of range for alphabet size {k}")
    flat = flat.astype(np.uint8)
    flat.flags.writeable = False
    return flat, list(itertools.accumulate(len(a) for a in arrays))


@dataclass(frozen=True)
class Seq:
    """Immutable symbol string of alphabet indices, given as bytes or as
    any iterable of integers (ndarrays included) and stored as bytes, one
    byte each: the type of a center and the text form of a string."""

    alphabet: Alphabet
    data: bytes

    def __post_init__(self) -> None:
        arr, _ = _indices([self.data], self.alphabet.size)
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", arr.tobytes())

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> "Seq":
        return cls(alphabet, alphabet.encode(text))

    @property
    def arr(self) -> np.ndarray:
        """Read-only uint8 view of the indices (no copy)."""
        return np.frombuffer(self.data, dtype=np.uint8)

    @property
    def text(self) -> str:
        return "".join(self.alphabet.symbols[v] for v in self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __str__(self) -> str:
        return self.text


# eq=False: a generated __eq__ or __hash__ over ndarrays raises
@dataclass(frozen=True, eq=False)
class StringInstance:
    """n strings of one common length m over one alphabet, held as a
    read-only (n, m) uint8 matrix of its own, one row per string.  The
    matrix may be given as any 2-D integer array or as a sequence of rows,
    each bytes, an integer ndarray or an iterable of integers."""

    alphabet: Alphabet
    matrix: np.ndarray

    def __post_init__(self) -> None:
        flat, ends = _indices(self.matrix, self.alphabet.size)
        if not ends:
            raise EmptyInput("instance needs at least one string")
        m = ends[0]
        if ends != [m * (i + 1) for i in range(len(ends))]:
            raise LengthMismatch("all strings must have equal length")
        if m < 1:
            raise DomainError("strings must be nonempty")
        object.__setattr__(self, "matrix", flat.reshape(len(ends), m))

    @classmethod
    def from_texts(cls, alphabet: Alphabet, texts: Sequence[str]) -> "StringInstance":
        return cls(alphabet, [alphabet.encode(t) for t in texts])

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class SubstringInstance:
    """n strings (lengths may differ) plus a target window length L.

    strings holds a read-only uint8 row of its own per string, each given
    as bytes, an integer ndarray or an iterable of integers; windows holds
    per string a read-only view with one row per length-L window.
    """

    alphabet: Alphabet
    strings: tuple[np.ndarray, ...]
    window: int
    windows: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        flat, ends = _indices(self.strings, self.alphabet.size)
        if not ends:
            raise EmptyInput("instance needs at least one string")
        l = self.window
        if l < 1:
            raise DomainError("window length must be >= 1")
        spans = list(zip([0, *ends[:-1]], ends))
        for start, end in spans:
            if end - start < l:
                raise WindowTooLong(f"window {l} exceeds a string of length {end - start}")
        # every length-L window of the joined strings, as sliding_window_view
        # would give them but in one call per instance; each string keeps the
        # rows that start and end inside it
        joined = np.ndarray((len(flat) - l + 1, l), np.uint8, buffer=flat, strides=(1, 1))
        object.__setattr__(self, "strings", tuple(flat[a:b] for a, b in spans))
        object.__setattr__(self, "windows", tuple(joined[a:b - l + 1] for a, b in spans))

    @classmethod
    def from_texts(cls, alphabet: Alphabet, texts: Sequence[str], window: int) -> "SubstringInstance":
        return cls(alphabet, [alphabet.encode(t) for t in texts], window)

    @property
    def n(self) -> int:
        return len(self.strings)


@dataclass(frozen=True)
class CenterSolution:
    """A center string, its achieved radius and per-input window offsets.

    Offsets are always 0 for the whole-string problem.  The radius is the
    recomputed cost of the center, never a stale bound.  guessed_tuples
    counts the kept window tuples of a substring solve whose center was
    guessed on a sample R: at 0 the solve swept every tuple and has ratio
    1 + 1/(2r-1), else 1 + 1/(2r-1) + 3*epsilon*r with high probability.
    The whole-string and exact solvers leave it at 0.
    """

    center: Seq
    radius: int
    witnesses: tuple[int, ...]
    guessed_tuples: int = 0


def _check_alphabet(alphabet: Alphabet, s: Seq) -> None:
    if s.alphabet != alphabet:
        raise AlphabetMismatch("sequences use different alphabets")


def agreement_positions(ts: Sequence[Seq]) -> np.ndarray:
    """Read-only (m,) bool mask of the positions where all given
    equal-length sequences carry the same symbol."""
    if not ts:
        raise EmptyInput("need at least one sequence")
    m = len(ts[0])
    for s in ts[1:]:
        _check_alphabet(ts[0].alphabet, s)
        if len(s) != m:
            raise LengthMismatch("sequences must have equal length")
    mat = np.frombuffer(b"".join([s.data for s in ts]), dtype=np.uint8).reshape(len(ts), m)
    agree = (mat == mat[0]).all(axis=0)
    agree.flags.writeable = False
    return agree


def cost_string(inst: StringInstance, center: Seq) -> int:
    """Max Hamming distance from center to the instance strings."""
    _check_alphabet(inst.alphabet, center)
    if len(center) != inst.m:
        raise LengthMismatch(f"center length {len(center)} vs instance length {inst.m}")
    return int((inst.matrix != center.arr).sum(axis=1).max())


def cost_substring(inst: SubstringInstance, center: Seq) -> tuple[int, tuple[int, ...]]:
    """Max over strings of the min distance from center to any length-L window.

    Returns (radius, per-string offsets); window ties break toward the
    smallest offset.
    """
    _check_alphabet(inst.alphabet, center)
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
