"""Deterministic seed derivation for independent RNG streams.

Every random decision in the package draws from a stream whose seed is
derived from a master seed plus a path of string/int tags. Derivation is
a splitmix-style mix of the master with a stable 64-bit hash of each tag,
so adding new streams (or more replications) never perturbs existing ones.
"""
from __future__ import annotations

import hashlib

from numpy.random import PCG64, Generator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 finalizer."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _tag64(tag: str | int) -> int:
    digest = hashlib.blake2b(str(tag).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(master: int, *path: str | int) -> int:
    """Derive a 64-bit child seed from a master seed and a tag path."""
    state = master & _MASK
    for part in path:
        state = _mix(state ^ _tag64(part))
    return state


def rng_for(master: int, *path: str | int) -> Generator:
    """A PCG64 generator seeded from ``derive_seed(master, *path)``."""
    return Generator(PCG64(derive_seed(master, *path)))
