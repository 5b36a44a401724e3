"""Deterministic seed derivation and the one per-length ensemble driver.

Every unit of work (one sequence, one repetition stream) owns a generator
seeded from ``seed_plan(master, j, rep)``, so a result depends only on the
master seed and the unit's index, never on the order units run in or on
the batch they run in.  ``run_ensemble`` hands each length's units to one
batched call and logs one INFO line per length (m, K_m, seconds).
"""

from __future__ import annotations

import logging
import time

import numpy as np

__all__ = ["seed_plan", "generator_for", "parallel_map", "run_ensemble"]

log = logging.getLogger(__name__)

_MASK = (1 << 64) - 1


def _splitmix64(v: int) -> int:
    v = (v + 0x9E3779B97F4A7C15) & _MASK
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK
    return (v ^ (v >> 31)) & _MASK


def seed_plan(master_seed: int, j: int, rep: int = 0) -> int:
    """Collision-free 64-bit stream seed for work unit (j, rep)."""
    v = master_seed & _MASK
    v = _splitmix64(v ^ _splitmix64((j & _MASK) ^ 0xA5A5A5A5A5A5A5A5))
    v = _splitmix64(v ^ _splitmix64((rep & _MASK) ^ 0x5A5A5A5A5A5A5A5A))
    return v


def generator_for(master_seed: int, j: int, rep: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_plan(master_seed, j, rep)))


def parallel_map(fn, items) -> list:
    """Order-preserving map; items must be independent for determinism."""
    return [fn(item) for item in items]


def run_ensemble(seed: int, lengths, k_m: int, one_length) -> list:
    """``k_m`` independent sequences per length, one result each.

    Sequence ``j`` at the ``im``-th length is work unit ``im * k_m + j``.
    Each length is one call ``one_length(m, rngs, indices)`` that returns its
    units' results in order, drawing each unit's randomness only from its
    stream ``rngs[j] = generator_for(seed, indices[j])``.
    """

    def length(task):
        im, m = task
        t0 = time.perf_counter()
        indices = list(range(im * k_m, (im + 1) * k_m))
        results = list(one_length(m, [generator_for(seed, i) for i in indices], indices))
        log.info("m=%d K_m=%d %.3f s", m, k_m, time.perf_counter() - t0)
        return results

    return parallel_map(length, list(enumerate(lengths)))
