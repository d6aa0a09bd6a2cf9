"""Seed derivation and counter-based per-element randomness.

Two kinds of randomness are used in the pipeline:

* bulk sampling (training batches, stratum sampling) through numpy's Philox
  generator, seeded via :func:`derive_seed` so that every consumer gets an
  independent, reproducible stream;
* per-element draws (e.g. one uniform per pixel) through a stateless
  splitmix64 hash of ``(seed, coordinates...)``, which makes results
  independent of chunking or evaluation order.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV_2_53 = float(2.0**-53)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 values (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (x + _GAMMA).astype(np.uint64)
        z = (z ^ (z >> _S30)) * _MUL1
        z = (z ^ (z >> _S27)) * _MUL2
        return z ^ (z >> _S31)


def _to_u64(part) -> np.ndarray:
    if isinstance(part, str):
        digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
        return np.uint64(int.from_bytes(digest, "little"))
    return np.asarray(part).astype(np.int64).view(np.uint64)


def hash_u64(*parts) -> np.ndarray:
    """Combine integer arrays / strings into uniformly mixed uint64 values.

    Array arguments broadcast against each other; the result has the
    broadcast shape (or is a scalar for all-scalar input).
    """
    h = np.uint64(0)
    with np.errstate(over="ignore"):
        for part in parts:
            h = _mix(h ^ _to_u64(part))
    return h


def uniform01(*parts) -> np.ndarray:
    """Deterministic uniforms in [0, 1) keyed on the hashed arguments."""
    bits = hash_u64(*parts)
    return (bits >> _S11).astype(np.float64) * _INV_2_53


def derive_seed(*parts) -> int:
    """Derive an independent 64-bit seed for a numpy Philox stream."""
    return int(hash_u64(*parts))


def generator(*parts) -> np.random.Generator:
    """Philox generator seeded from the hashed arguments."""
    return np.random.Generator(np.random.Philox(key=derive_seed(*parts)))
