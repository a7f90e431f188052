"""Engine (b)'s learner ships sealed delta files in the background.

The learner's ingest (WAL appends and the page writes of a sealed file)
runs on the analytics node's own clock, and shipping a sealed file to
the columnar side is time in flight that no clock pays.  So a network
handler — the Raft delivery that hands the learner its batch — never
moves the shared clock, and a foreground operation never waits for the
analytics tier.  What it costs instead is freshness: a file is invisible
to analytical reads until it lands, ``ship_latency_us`` after its page
writes, and its table counts as stale until then.
"""

from repro.common import Column, DataType, Schema
from repro.distributed import DistributedCluster, WriteKind, WriteOp

SCHEMAS = [
    Schema(
        name,
        [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
        ["id"],
    )
    for name in ("a", "b")
]


def make_cluster(n_regions: int = 1) -> DistributedCluster:
    cluster = DistributedCluster(n_storage_nodes=3, n_regions=n_regions, seed=3)
    for schema in SCHEMAS:
        cluster.create_table(schema)
    return cluster


def fill_both_tables(cluster, start: int) -> tuple[int, int]:
    """One transaction that writes exactly one delta file's worth of rows
    into each table; returns (rows per table, commit ts)."""
    n = cluster.columnar.delta_logs["a"]._seal_threshold
    writes = [
        WriteOp(WriteKind.INSERT, table, k, (k, float(k)))
        for table in ("a", "b")
        for k in range(start, start + n)
    ]
    return n, cluster.execute_transaction(writes)


def when_sealed(cluster, table: str) -> list[float]:
    """Wrap every learner's network handler; the returned list gets the
    shared clock's reading at the call after which ``table``'s delta log
    first holds a sealed file."""
    seen = []
    log = cluster.columnar.delta_logs[table]
    handlers = cluster.network._handlers
    for node_id, handler in list(handlers.items()):
        if node_id.endswith(".learner"):

            def wrapped(src, message, handler=handler):
                handler(src, message)
                if log.files and not seen:
                    seen.append(cluster.cost.now_us())

            handlers[node_id] = wrapped
    return seen


def test_no_network_handler_moves_the_shared_clock():
    cluster = make_cluster(n_regions=3)
    cluster.insert("a", (0, 0.0))  # builds the shards
    moved = []
    handlers = cluster.network._handlers
    for node_id, handler in list(handlers.items()):

        def wrapped(src, message, node_id=node_id, handler=handler):
            before = cluster.cost.now_us()
            handler(src, message)
            if cluster.cost.now_us() != before:
                moved.append((node_id, type(message).__name__))

        handlers[node_id] = wrapped
    for start in (1, 200, 400):
        fill_both_tables(cluster, start)
    cluster.bulk_load("b", [(k, 1.0) for k in range(1_000, 1_300)])
    assert cluster.drain_replication()
    logs = cluster.columnar.delta_logs
    assert logs["a"].sealed_entries() and logs["b"].sealed_entries()
    assert moved == []


def test_a_sealed_file_lands_ship_latency_after_its_page_writes():
    cluster = make_cluster()
    cluster._build()
    sealed_at = when_sealed(cluster, "b")
    cost = cluster.cost
    logs = cluster.columnar.delta_logs
    n, commit_ts = fill_both_tables(cluster, 0)
    while not sealed_at:
        cluster.advance(10.0)
    # The batch that sealed both files was handed over at ``sealed_at``;
    # the learner's node then wrote the WAL for every entry and one page
    # per file, and only then shipped both files together.
    handed_over = sealed_at[0]
    landing = (
        handed_over
        + cost.wal_append_us * 2 * n
        + cost.page_write_us * (logs["a"].files[0].page_count() + logs["b"].files[0].page_count())
        + logs["a"].ship_latency_us
    )

    cluster.advance(landing - 0.5 - cost.now_us())
    for table in ("a", "b"):
        assert len(cluster.analytic_scan(table, ["id"])) == 0
        assert logs[table].max_sealed_ts() == 0
    assert cluster.freshness_lag_ts() > 0

    cluster.advance(0.5)
    assert cost.now_us() == landing
    for table in ("a", "b"):  # both land at the same instant
        assert len(cluster.analytic_scan(table, ["id"])) == n
        assert logs[table].max_sealed_ts() == commit_ts
    assert cluster.freshness_lag_ts() == 0

    # A drain does not return while a file is still in flight.
    n, commit_ts = fill_both_tables(cluster, n)
    assert cluster.drain_replication()
    for table in ("a", "b"):
        assert logs[table].max_sealed_ts() == commit_ts
        assert len(cluster.analytic_scan(table, ["id"])) == 2 * n
