"""Seeded randomness helpers used by workload generators and Raft timers.

Everything random in the testbed flows through an explicit
``random.Random`` (or ``numpy.random.Generator``) seeded by the caller,
so every benchmark run is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
import string

import numpy as np


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def make_np_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_string(rng: random.Random, min_len: int, max_len: int) -> str:
    """TPC-C style a-string: random letters, length in [min_len, max_len]."""
    length = rng.randint(min_len, max_len)
    return "".join(rng.choices(string.ascii_letters, k=length))


def nurand(rng: random.Random, a: int, x: int, y: int, c: int = 123) -> int:
    """TPC-C NURand non-uniform distribution over [x, y]."""
    return (((rng.randint(0, a) | rng.randint(x, y)) + c) % (y - x + 1)) + x


class ZipfGenerator:
    """Zipf-distributed integers in [0, n) with parameter ``theta``.

    Used to build the skewed/correlated workloads that §2.4 argues
    TPC-H lacks; precomputes the CDF once so draws are O(log n).
    """

    def __init__(self, n: int, theta: float, seed: int):
        if n <= 0:
            raise ValueError("n must be positive")
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self._rng = random.Random(seed)
        weights = np.arange(1, n + 1, dtype=np.float64) ** (-theta)
        self._cdf = np.cumsum(weights / weights.sum())

    def draw(self) -> int:
        u = self._rng.random()
        return int(np.searchsorted(self._cdf, u, side="left"))

    def draw_many(self, k: int) -> list[int]:
        return [self.draw() for _ in range(k)]
