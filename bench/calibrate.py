"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by tens of percent
for seconds to minutes.  Each repetition times ``reference()`` right after
set-up and right after the workload, in the same process, and ``run.py``
divides the workload's times by it, so a drift that slows both cancels.  The kernel is
the benchmark's own code, independent of rbsim, and mixes what rbsim spends
its time on: interpreter-bound loops over small integers and containers,
and small numpy array operations.  It allocates next to nothing, so it
leaves the process's peak memory alone.
"""

import time

import numpy as np


def _interpreter(rounds: int) -> int:
    acc, table = 0, {}
    for i in range(rounds):
        row = (i * 2654435761) & 0xFFFF
        acc ^= (row >> (i & 7)) & 0xFF
        table[row & 1023] = table.get(row & 1023, 0) + 1
        acc += len([b for b in (row, acc, i) if b & 1])
    return acc + len(table)


def _small_arrays(rounds: int) -> int:
    rng = np.random.default_rng(12345)
    m = rng.integers(0, 2, size=(8, 8), dtype=np.uint8)
    acc = 0
    for _ in range(rounds):
        v = rng.integers(0, 2, size=8, dtype=np.uint8)
        m = (m @ m.T + np.outer(v, v)) % 2
        acc += int(np.bincount(m.ravel(), minlength=2)[1])
    return acc


def reference() -> float:
    """Seconds one fixed round of the kernel takes (0.2-0.3 s on the
    reference machine of ``README.md``)."""
    t0 = time.perf_counter()
    _interpreter(120_000)
    _small_arrays(6_000)
    return time.perf_counter() - t0
