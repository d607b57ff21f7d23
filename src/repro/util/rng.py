"""Deterministic random-number stream derivation.

Every stochastic component in the simulator (background-load models,
cost-model sampling, measurement noise, ...) receives its own independent
:class:`numpy.random.Generator`, derived from a single run seed plus a string
path identifying the component (e.g. ``("load", "proc-3")``).  This gives two
properties the experiments rely on:

* **Reproducibility** — the same run seed reproduces the exact event trace.
* **Independence under reconfiguration** — adding a processor or stage does
  not perturb the random streams of unrelated components, because streams are
  keyed by name rather than by creation order.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "derive_rng"]

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *keys: str) -> int:
    """Derive a 64-bit child seed from ``seed`` and a path of string keys.

    The derivation hashes ``seed`` together with the keys using BLAKE2b, so
    distinct key paths yield (with overwhelming probability) independent
    seeds, and the mapping is stable across processes and Python versions.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed & _MASK64).to_bytes(8, "little"))
    for key in keys:
        h.update(b"\x00")
        h.update(key.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def derive_rng(seed: int, *keys: str) -> np.random.Generator:
    """Return an independent :class:`numpy.random.Generator` for a key path."""
    return np.random.default_rng(derive_seed(seed, *keys))
