"""Stats cache slack behavior."""

from hypothesis import given, settings, strategies as st

from repro.query.stats_cache import StatsCache
from repro.query.statistics import ColumnStats, TableStats


def make_cache(min_slack=10, fraction=0.5):
    calls = []

    def compute():
        calls.append(1)
        return TableStats(row_count=100, columns={"a": ColumnStats(ndv=10)})

    return StatsCache(compute, min_slack=min_slack, slack_fraction=fraction), calls


class TestStatsCache:
    def test_first_call_computes(self):
        cache, calls = make_cache()
        cache.get(version=0)
        assert len(calls) == 1

    def test_within_slack_cached(self):
        cache, calls = make_cache(min_slack=10)
        cache.get(0)
        cache.get(5)
        cache.get(10)
        assert len(calls) == 1

    def test_beyond_slack_refreshes(self):
        cache, calls = make_cache(min_slack=10, fraction=0.0)
        cache.get(0)
        cache.get(11)
        assert len(calls) == 2
        assert cache.refreshes == 2

    def test_fraction_scales_with_row_count(self):
        cache, calls = make_cache(min_slack=1, fraction=0.5)
        cache.get(0)
        # Slack shrinks as drift grows: delta <= 0.5 * (100 - delta),
        # so 33 is the largest cached drift (33 <= int(0.5 * 67) = 33).
        cache.get(33)
        assert len(calls) == 1
        cache.get(34)
        assert len(calls) == 2

    def test_truncate_busts_slack_immediately(self):
        """Slack must key off the live drift, not the cached row count:
        after a truncate-sized delta the cached 100 rows cannot all
        exist, so even a generous fraction refreshes — regression for
        the oversized-slack stale serve."""
        cache, calls = make_cache(min_slack=1, fraction=10.0)
        cache.get(0)  # cached-row-count slack would be 1000
        cache.get(100)  # delta == row_count: base max(100-100, 0) = 0
        assert len(calls) == 2

    def test_backward_version_refreshes(self):
        """A version counter moving backward (reset after recovery) says
        nothing about drift; the old abs() check treated it as small
        drift and served stale stats — regression."""
        cache, calls = make_cache(min_slack=10)
        cache.get(100)
        cache.get(95)
        assert len(calls) == 2
        # And the refresh re-anchors at the new (lower) version.
        cache.get(96)
        assert len(calls) == 2

    def test_invalidate_forces_recompute(self):
        cache, calls = make_cache()
        cache.get(0)
        cache.invalidate()
        cache.get(0)
        assert len(calls) == 2

    def test_epoch_tracks_refreshes_and_invalidations(self):
        """The plan cache fences plans on ``epoch``: it must advance on
        every refresh and invalidate, and hold while cached stats are
        served unchanged."""
        cache, calls = make_cache(min_slack=10)
        assert cache.epoch == 0
        cache.get(0)
        assert cache.epoch == 1
        cache.get(5)  # served from cache
        assert cache.epoch == 1
        cache.get(50)  # past slack -> refresh
        assert cache.epoch == 2
        cache.invalidate()
        assert cache.epoch == 3
        cache.get(50)
        assert cache.epoch == 4


class OldRule:
    """The serve-or-refresh rule as first written: serve while there is
    a cached entry and the drift passes ``_within_slack`` afresh at every
    call."""

    def __init__(self, min_slack, fraction):
        self.min_slack, self.fraction = min_slack, fraction
        self.row_count = None  # None: nothing cached
        self.version_at = -1
        self.epoch = 0

    def within_slack(self, version):
        if version < self.version_at:
            return False
        delta = version - self.version_at
        base = max(self.row_count - delta, 0)
        return delta <= max(self.min_slack, int(base * self.fraction))

    def get(self, version, row_count):
        """True when the cached stats are served."""
        if self.row_count is not None and self.within_slack(version):
            return True
        self.row_count, self.version_at = row_count, version
        self.epoch += 1
        return False

    def invalidate(self):
        self.row_count, self.version_at = None, -1
        self.epoch += 1


step = st.one_of(
    st.tuples(st.just("get"), st.integers(-40, 40)),
    st.tuples(st.just("jump"), st.integers(-3_000, 3_000)),
    st.tuples(st.just("invalidate"), st.just(0)),
)


@settings(max_examples=300, deadline=None)
@given(
    min_slack=st.sampled_from([0, 1, 10, 2_000]),
    fraction=st.sampled_from([0.0, 0.5, 1.0, 10.0]),
    row_counts=st.lists(st.sampled_from([0, 1, 7, 100, 4_000, 10_000]), min_size=1),
    steps=st.lists(step, max_size=60),
    start=st.integers(0, 50),
)
def test_get_serves_and_refreshes_like_the_old_rule(
    min_slack, fraction, row_counts, steps, start
):
    """Random version walks (small steps, jumps past ``min_slack`` either
    way, backward moves, invalidations) over refreshed row counts that
    include 0: the cache serves exactly when the old rule serves, and
    its epoch and refresh count follow."""
    computed = []

    def compute():
        row_count = row_counts[len(computed) % len(row_counts)]
        computed.append(row_count)
        return TableStats(row_count=row_count, columns={})

    cache = StatsCache(compute, min_slack=min_slack, slack_fraction=fraction)
    old = OldRule(min_slack, fraction)
    version = start
    for kind, amount in steps:
        if kind == "invalidate":
            cache.invalidate()
            old.invalidate()
        else:
            version = max(version + amount, 0)
            before = len(computed)
            stats = cache.get(version)
            next_row_count = row_counts[before % len(row_counts)]
            served = old.get(version, next_row_count)
            assert (len(computed) == before) == served
            assert stats.row_count == old.row_count
        assert cache.epoch == old.epoch
        assert cache.refreshes == len(computed)
