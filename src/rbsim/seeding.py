"""Deterministic seed derivation, counter-based streams and the one call
that runs an ensemble.

Unit j of an ensemble owns two streams: its elements come from stream
``(j, 0)`` and its sampled repetitions from stream ``(j, 1)``, seeded by
``seed_plan(master, j, rep)``.  A stream is SplitMix64's own output sequence
from its seed (Steele, Lea & Flood 2014), read as a counter-based generator
(Salmon et al. 2011): word i of the stream with seed s is
``_splitmix64(s + i·γ)``, so any words of any streams are one uint64 array
evaluation and no generator object is built per unit.  A result therefore
depends only on the master seed and the unit's index, never on the order
units run in or on the batch they run in.  ``run_ensemble`` hands every
unit of every length to one batched call, in unit order, returns the
results as one ``(L, K)`` array and logs one INFO line per length (m, K_m,
seconds of that one call).
"""

from __future__ import annotations

import logging
import time

import numpy as np

__all__ = ["seed_plan", "seed_plans", "unit_seeds", "stream_words", "stream_rows", "redraw",
           "generator_for", "parallel_map", "run_ensemble"]

log = logging.getLogger(__name__)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_J_SALT, _REP_SALT = 0xA5A5A5A5A5A5A5A5, 0x5A5A5A5A5A5A5A5A
# the array form's constants as uint64 scalars, built once: numpy's scalar
# conversion costs about as much as an operation on a short array
_WORD_GAMMA, _WORD_MIX0, _WORD_MIX1 = (np.uint64(c) for c in (_GAMMA, *_MIX))
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64(v: int) -> int:
    v = (v + _GAMMA) & _MASK
    v = ((v ^ (v >> 30)) * _MIX[0]) & _MASK
    v = ((v ^ (v >> 27)) * _MIX[1]) & _MASK
    return (v ^ (v >> 31)) & _MASK


def _mix(v: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer (``_splitmix64`` after its γ step) on a uint64
    array, in place; uint64 arithmetic wraps modulo 2^64."""
    v ^= v >> _S30
    v *= _WORD_MIX0
    v ^= v >> _S27
    v *= _WORD_MIX1
    v ^= v >> _S31
    return v


def seed_plan(master_seed: int, j: int, rep: int = 0) -> int:
    """Collision-free 64-bit stream seed for work unit (j, rep)."""
    v = master_seed & _MASK
    v = _splitmix64(v ^ _splitmix64((j & _MASK) ^ _J_SALT))
    v = _splitmix64(v ^ _splitmix64((rep & _MASK) ^ _REP_SALT))
    return v


def _splitmix64_words(v: np.ndarray) -> np.ndarray:
    """``_splitmix64`` of each word of a uint64 array (a new array)."""
    return _mix(v + _WORD_GAMMA)


def seed_plans(master_seed: int, indices, rep: int = 0) -> np.ndarray:
    """``seed_plan(master_seed, j, rep)`` for every j of ``indices`` (non-negative
    integers), as one uint64 array, bit-identical to the scalar form."""
    j = _splitmix64_words(np.asarray(indices).astype(np.uint64) ^ np.uint64(_J_SALT))
    v = _splitmix64_words(np.uint64(master_seed & _MASK) ^ j)
    return _splitmix64_words(v ^ np.uint64(_splitmix64((rep & _MASK) ^ _REP_SALT)))


def unit_seeds(master_seed: int, indices) -> np.ndarray:
    """``(2, K)`` uint64: row 0 seeds each unit's element stream ``(j, 0)``,
    row 1 its repetition stream ``(j, 1)``."""
    return np.stack([seed_plans(master_seed, indices, rep) for rep in (0, 1)])


def stream_words(seeds, start: int, count: int) -> np.ndarray:
    """Words ``start .. start + count - 1`` of each stream of ``seeds``, as a
    ``(K, count)`` uint64 array: word i of the stream with seed s is
    ``_splitmix64(s + i·γ)``, SplitMix64's i-th output from state s."""
    steps = np.arange(start + 1, start + count + 1, dtype=np.uint64) * _WORD_GAMMA
    return _mix(np.asarray(seeds, dtype=np.uint64)[:, None] + steps)


def stream_rows(seeds, counts, width: int) -> np.ndarray:
    """The first ``counts[k] · width`` words of each stream of ``seeds`` as
    ``counts[k]`` consecutive rows of ``width``, stream after stream: a
    ``(sum(counts), width)`` uint64 array whose row r of stream k holds its
    words ``r · width .. (r + 1) · width - 1``."""
    counts = np.asarray(counts, dtype=np.intp)
    row = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    # word i of a stream is _mix(seed + (i + 1)·γ), built in one array
    words = (row * width).astype(np.uint64)[:, None] + np.arange(1, width + 1, dtype=np.uint64)
    words *= _WORD_GAMMA
    words += np.repeat(np.asarray(seeds, dtype=np.uint64), counts)[:, None]
    return _mix(words)


def redraw(seeds, words: np.ndarray, valid, counts) -> np.ndarray:
    """Replace, in place, each word that ``valid`` rejects; return ``words``.

    ``words`` is a ``(R, W)`` array of ``stream_rows(seeds, counts, W)``:
    stream k's first ``counts[k] · W`` words, a fixed budget.
    ``valid(words, columns)`` tells which of an array's words are usable,
    ``columns`` (broadcast against it) giving each word's column.  The
    rejected words of a stream, in stream order, take its words past the
    budget, skipping any that their column also rejects.  So a unit's words
    depend only on its own stream.
    """
    width = words.shape[1]
    columns = np.arange(width)
    rejected = ~valid(words, columns)
    if not rejected.any():
        return words
    seeds = np.asarray(seeds, dtype=np.uint64)
    counts = np.asarray(counts)
    stream_of = np.repeat(np.arange(len(seeds)), counts)
    following = {}  # each stream's next word past its budget
    for r, c in zip(*np.nonzero(rejected)):
        k = stream_of[r]
        index = following.get(k, counts[k] * width)
        while True:
            word = stream_words(seeds[k:k + 1], index, 1)
            index += 1
            if valid(word, columns[c:c + 1])[0, 0]:
                break
        following[k] = index
        words[r, c] = word[0, 0]
    return words


def generator_for(master_seed: int, j: int, rep: int = 0) -> np.random.Generator:
    """A numpy ``Generator`` seeded by ``seed_plan``.  The ensembles draw from
    counter-based streams instead; this stays as a ``bench/tracing.py``
    target."""
    return np.random.Generator(np.random.PCG64(seed_plan(master_seed, j, rep)))


def parallel_map(fn, items) -> list:
    """Order-preserving map; items must be independent for determinism.  The
    ensembles run as one batch instead; this stays as a ``bench/tracing.py``
    target."""
    return [fn(item) for item in items]


def run_ensemble(seed: int, lengths, k_m: int, run_units) -> np.ndarray:
    """``k_m`` independent sequences per length, one ``(L, K, ...)`` array.

    Sequence ``j`` at the ``im``-th length is work unit ``i = im * k_m + j``.
    Every unit of every length goes, in unit order (the engine takes a batch
    in any order), to one call ``run_units(lengths, seeds)``: unit i has length
    ``lengths[i]`` and streams ``seeds[:, i]``, with ``seeds = unit_seeds(seed,
    range(K))``, so its elements come from the stream seeded by ``seeds[0, i]``
    and its sampled repetitions from ``seeds[1, i]``.  The call returns its
    units' results, unit first; row ``im`` of the result is the im-th length's.
    """
    t0 = time.perf_counter()
    per_unit = np.repeat(np.asarray(lengths, dtype=np.int64), k_m)
    results = run_units(per_unit, unit_seeds(seed, np.arange(len(per_unit))))
    seconds = time.perf_counter() - t0
    for m in lengths:
        log.info("m=%d K_m=%d %.3f s", m, k_m, seconds)
    return results.reshape(len(lengths), k_m, *results.shape[1:])
