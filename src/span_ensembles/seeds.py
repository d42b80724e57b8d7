"""Deterministic seed derivation and keyed pseudo-random draws.

Every randomized tie-break in the package draws through these helpers, keyed
by a master seed plus a context tuple (doc id, span index, character index,
source name, ...).  Draws are pure functions of their keys, so results never
depend on evaluation order.
"""

from __future__ import annotations

import random

# CPython's built-in blake2b, the one hashlib re-exports: importing hashlib
# would also load OpenSSL (about 3.6 MB resident), which nothing here uses.
try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without _blake2
    from hashlib import blake2b

_SEP = "\x1f"


def digest(*key: object) -> int:
    """64-bit digest of the key tuple."""
    text = _SEP.join(str(part) for part in key)
    raw = blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(raw, "big")


def derive_rng(*key: object) -> random.Random:
    """A fresh RNG seeded from the key tuple."""
    return random.Random(digest(*key))


def unit(*key: object) -> float:
    """Uniform draw in [0, 1) keyed by the arguments."""
    return digest(*key) / 2.0**64


def pick_index(n: int, *key: object) -> int:
    """Uniform index in [0, n) keyed by the arguments."""
    if n <= 0:
        raise ValueError("pick_index needs n >= 1")
    return digest(*key) % n


def randint(lo: int, hi: int, *key: object) -> int:
    """Uniform integer in [lo, hi] (inclusive) keyed by the arguments."""
    if hi < lo:
        raise ValueError("randint needs lo <= hi")
    return lo + digest(*key) % (hi - lo + 1)
