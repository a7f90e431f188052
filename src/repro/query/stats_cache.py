"""Slack-based statistics caching shared by engine table adapters.

Real engines refresh optimizer statistics periodically, not on every
commit.  Recomputing stats per query would bill the analytical path
for work no real system does, so adapters wrap their computation in a
:class:`StatsCache` that only refreshes once the table's change
counter has drifted past a slack threshold.

The slack is keyed off the *live* version delta, not the cached row
count alone: the drift since the cached point is an upper bound on how
many of the cached rows can still exist, so the allowed slack shrinks
as the drift grows (``delta <= fraction * (row_count - delta)``).
After a large delete/truncate this busts the slack immediately instead
of letting an oversized threshold — computed from a row count that no
longer exists — serve stale stats far past the intended drift.

Backward version movement (a counter reset after recovery) always
refreshes: a reset counter says nothing about drift, so the cached
entry cannot be trusted.

The drift only grows with the version while the allowed slack only
shrinks, so the versions a cached entry may serve form one interval,
``[version_at, served_until]``.  A refresh computes its upper end once;
:meth:`StatsCache.get` — asked on every prepared statement, through the
plan cache's stats fence — is then two comparisons.

``epoch`` is the cache's externally visible version: it advances on
every refresh *and* on invalidation, and never moves while the cached
stats are served unchanged.  The parameterized plan cache keys plans
on it (a plan is valid exactly as long as the statistics it was costed
against), so every state change here must bump it — the htaplint
HTL002 store-layer rule machine-checks that invariant.
"""

from __future__ import annotations

from typing import Callable

from .statistics import TableStats


class StatsCache:
    """Caches a TableStats until the version counter drifts too far."""

    def __init__(
        self,
        compute: Callable[[], TableStats],
        min_slack: int = 2_000,
        slack_fraction: float = 0.5,
    ):
        if slack_fraction < 0:
            raise ValueError("slack_fraction must be >= 0")
        self._compute = compute
        self._min_slack = min_slack
        self._slack_fraction = slack_fraction
        self._cached: TableStats | None = None
        self._version_at: int = -1
        #: Newest version the cached stats are served at; below
        #: ``_version_at`` while nothing is cached (an empty interval).
        self._served_until: int = -2
        self.refreshes = 0
        #: Version of the served statistics; bumps on refresh and on
        #: invalidate, so equal epochs imply identical stats objects.
        self.epoch = 0

    def _within_slack(self, delta: int) -> bool:
        base = max(self._cached.row_count - delta, 0)
        slack = max(self._min_slack, int(base * self._slack_fraction))
        return delta <= slack

    def _max_drift(self) -> int:
        """The largest drift ``_within_slack`` admits: it admits every
        drift up to ``min_slack`` and none past the largest slack, and
        what it admits is a prefix, so a binary search finds the end."""
        lo = max(self._min_slack, 0)
        hi = max(lo, int(self._cached.row_count * self._slack_fraction))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._within_slack(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def get(self, version: int) -> TableStats:
        """Return cached stats unless ``version`` drifted past the slack."""
        if self._version_at <= version <= self._served_until:
            return self._cached
        self._cached = self._compute()
        self._version_at = version
        self._served_until = version + self._max_drift()
        self.refreshes += 1
        self.epoch += 1
        return self._cached

    def invalidate(self) -> None:
        self._cached = None
        self._version_at = -1
        self._served_until = -2
        self.epoch += 1
