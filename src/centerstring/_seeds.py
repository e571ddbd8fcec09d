"""Deterministic seed derivation.

Every random decision in the package flows from a single 64-bit seed.
Independent streams (per subset, per window tuple) are derived here from
the base seed and a token naming the work, so a stream depends on what it
is for, not on how many draws ran before it.
"""

from __future__ import annotations

import hashlib

MASK64 = (1 << 64) - 1


def derive_seed(base: int, *tokens: object) -> int:
    """XOR `base` with a stable 64-bit hash of `tokens`.

    Uses blake2b rather than built-in hash() so the value does not depend
    on PYTHONHASHSEED or the platform.
    """
    h = hashlib.blake2b(repr(tokens).encode("utf-8"), digest_size=8)
    return (base ^ int.from_bytes(h.digest(), "little")) & MASK64
