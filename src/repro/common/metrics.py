"""Measurement helpers: latency distributions, throughput, freshness.

These are the metric definitions §2.3 of the paper builds on: tpmC-style
transaction throughput, QphH-style query throughput, data freshness
(staleness of the analytical view), and workload-isolation degradation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


class LatencyRecorder:
    """Collects latency samples (simulated microseconds) and summarizes.

    The sorted view is computed lazily and cached, so a p50/p95/p99
    summary costs one sort total instead of one sort per percentile;
    any new sample invalidates the cache.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted: list[float] | None = None

    def record(self, latency_us: float) -> None:
        self._samples.append(latency_us)
        self._sorted = None

    def extend(self, samples: Iterable[float]) -> None:
        self._samples.extend(samples)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; pct in (0, 100]."""
        if not self._samples:
            return 0.0
        if not 0 < pct <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        rank = max(1, math.ceil(pct / 100 * len(ordered)))
        return ordered[rank - 1]

    def p50(self) -> float:
        return self.percentile(50)

    def p95(self) -> float:
        return self.percentile(95)

    def p99(self) -> float:
        return self.percentile(99)

    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0


@dataclass
class ThroughputMeter:
    """Ops per simulated second over an explicit window."""

    ops: int = 0
    window_us: float = 0.0

    def add(self, ops: int, window_us: float) -> None:
        self.ops += ops
        self.window_us += window_us

    def per_second(self) -> float:
        if self.window_us <= 0:
            return 0.0
        return self.ops / (self.window_us / 1e6)

    def per_minute(self) -> float:
        return self.per_second() * 60.0


@dataclass
class FreshnessSample:
    """One freshness observation at analytical-query time.

    ``lag_ts`` counts commit timestamps not yet visible to the reader
    (version distance); ``lag_us`` is the simulated age of the oldest
    missing update.  Both appear in the literature; we track both.
    """

    lag_ts: int
    lag_us: float


class FreshnessRecorder:
    """Aggregates freshness samples into the scores used by the benches."""

    def __init__(self) -> None:
        self.samples: list[FreshnessSample] = []

    def record(self, lag_ts: int, lag_us: float = 0.0) -> None:
        self.samples.append(FreshnessSample(lag_ts=lag_ts, lag_us=lag_us))

    def mean_lag_ts(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.lag_ts for s in self.samples) / len(self.samples)

    def freshness_score(self) -> float:
        """1 / (1 + mean version lag): 1.0 means perfectly fresh reads."""
        return 1.0 / (1.0 + self.mean_lag_ts())


def isolation_degradation(throughput_alone: float, throughput_mixed: float) -> float:
    """Fractional throughput lost when the other workload co-runs.

    0.0 = perfect isolation (no interference); 1.0 = fully starved.
    This is the §2.3(2) "performance degradation paid" metric.
    """
    if throughput_alone <= 0:
        return 0.0
    return max(0.0, 1.0 - throughput_mixed / throughput_alone)


@dataclass
class BenchReport:
    """A labelled bundle of the four headline HTAP metrics."""

    label: str
    tp_per_sec: float = 0.0
    ap_per_sec: float = 0.0
    freshness: float = 0.0
    isolation: float = 0.0
    extras: dict = field(default_factory=dict)

    def row(self) -> str:
        return (
            f"{self.label:<38} {self.tp_per_sec:>12.1f} {self.ap_per_sec:>12.2f} "
            f"{self.freshness:>10.3f} {self.isolation:>10.3f}"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'system':<38} {'TP ops/s':>12} {'AP q/s':>12} "
            f"{'freshness':>10} {'isolation':>10}"
        )
