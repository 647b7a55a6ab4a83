"""Deterministic random stream derivation.

Every stochastic routine in the package draws from a stream derived from a
single master seed, a short role tag, and an index (the chunk index of
:func:`ipsd.harness.replicate_map` for Monte Carlo ensembles, else 0):

    digest = SHA-256( "{master_seed}:{role}:{index}" as UTF-8 )
    stream = PCG64( SeedSequence(eight 32-bit words of the digest) )

The derivation is a pure function of its three arguments, so results never
depend on scheduling, thread count, or wall clock, and any other
implementation can reproduce the streams from this recipe.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_stream", "derive_seed_words"]


def derive_seed_words(master_seed: int, role: str, index: int) -> tuple[int, ...]:
    """Eight 32-bit words hashed from (master_seed, role, index)."""
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    payload = f"{master_seed}:{role}:{index}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 32, 4))


def derive_stream(master_seed: int, role: str, index: int = 0) -> np.random.Generator:
    """Independent PCG64 stream for (master_seed, role, index)."""
    words = derive_seed_words(master_seed, role, index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
