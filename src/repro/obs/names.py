"""The registered-name registry for metrics and trace spans.

Every series name passed to :class:`~repro.obs.registry.MetricsRegistry`
and every span name passed to :class:`~repro.obs.trace.SimTracer` in
``src/repro`` must appear here.  The ``htaplint`` rule **HTL004**
statically checks every name literal against this registry, so a typo'd
counter (``"wal.fsync"`` for ``"wal.fsyncs"``) fails lint instead of
silently recording into an orphan series that no bench snapshot reads.

Keep the sets sorted; add the name here *in the same commit* that
introduces the instrument.  Tests and ad-hoc scripts are outside the
registry's scope — only ``src/repro`` is linted.
"""

from __future__ import annotations

#: Every metric series name registered by src/repro (label sets vary
#: per call site; only the dotted name is registered).
REGISTERED_METRICS: frozenset[str] = frozenset(
    {
        # engine layer
        "engine.ap_queries",
        "engine.sync_calls",
        "engine.sync_rows",
        "engine.tp_aborts",
        "engine.tp_commits",
        "engine.tp_rollbacks",
        # simulated network
        "network.delivered",
        "network.dropped",
        "network.latency_us",
        "network.sent",
        # raft replication
        "raft.apply_batch_commands",
        "raft.elections",
        "raft.heartbeats",
        "raft.replication_lag",
        "raft.wakeups",
        # learner replication drains
        "replication.drain_timeouts",
        # stateless router tier
        "router.cached_epoch",
        "router.refreshes",
        "router.retries_exhausted",
        "router.routes",
        "router.stale_retries",
        # shard-map metadata service
        "shardmap.delta_fetches",
        "shardmap.epoch",
        "shardmap.full_fetches",
        "shardmap.shards",
        # online resharding
        "reshard.duration_us",
        "reshard.merges",
        "reshard.migrations",
        "reshard.rows_moved",
        "reshard.splits",
        "reshard.tail_writes",
        # compressed (code-space) execution
        "exec.code_space_distincts",
        "exec.code_space_groups",
        "exec.code_space_joins",
        # join intermediate sizes (rows a join emits / a residual filter reads)
        "exec.join_rows_out",
        "exec.residual_rows_in",
        # predicate-aware column scans
        "scan.code_space_filters",
        "scan.segments_pruned",
        "scan.segments_scanned",
        # parameterized plan cache
        "plan_cache.entries",
        "plan_cache.evictions",
        "plan_cache.hits",
        "plan_cache.invalidations",
        "plan_cache.misses",
        # snapshot-scan cache
        "scan_cache.bytes",
        "scan_cache.entries",
        "scan_cache.evictions",
        "scan_cache.hits",
        "scan_cache.invalidations",
        "scan_cache.misses",
        # session tier (front door)
        "session.admitted",
        "session.completed",
        "session.delayed",
        "session.group_commit_size",
        "session.latency_us",
        "session.opened",
        "session.queue_depth",
        "session.shed",
        # schedulers
        "scheduler.freshness_lag",
        "scheduler.olap_slots",
        "scheduler.oltp_slots",
        "scheduler.rounds",
        "scheduler.syncs",
        # data synchronization
        "sync.batch_rows",
        "sync.delta_merge.events",
        "sync.delta_merge.l1_to_l2",
        "sync.delta_merge.l2_to_main",
        "sync.delta_merge.rows",
        "sync.log_merge.events",
        "sync.log_merge.rows",
        "sync.merge_latency_us",
        "sync.rebuild.events",
        "sync.rebuild.rows",
        # commit paths (placement-aware cluster commit routing)
        "commit.participant_fanout",
        "commit.piggybacked",
        "commit.single_shard",
        # transactions: first-committer-wins refusals, every engine
        "txn.conflicts",
        # write-ahead log
        "wal.appends",
        "wal.fsyncs",
        "wal.group_commit_batch",
        # runtime sanitizer (repro.analysis.sanitizer)
        "sanitizer.deliveries_checked",
        "sanitizer.reads_checked",
        "sanitizer.violations",
    }
)

#: Every tracer span name opened by src/repro.
REGISTERED_SPANS: frozenset[str] = frozenset(
    {
        "engine.query",
        "engine.sync",
    }
)
