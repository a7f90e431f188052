"""Architecture (b): Distributed Row Store + Column Store Replica.

The TiDB shape over the simulated cluster: transactions commit through
Raft-replicated regions ("2PC+Raft+logging": one shard commits in one
propose, several through the piggybacked one-round 2PC); Raft learners
feed a columnar replica on separate analytics nodes; OLAP runs the
"log-based delta and column scan" against that replica.  Workload
isolation is High (AP never touches the row nodes' CPU); freshness is
Low (only sealed delta files that have landed after shipping are
visible); both TP and AP scale out with node counts.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from ..common.clock import LogicalClock, Timestamp
from ..common.cost import CostModel
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Key, Row, Schema
from ..distributed.cluster import DistributedCluster, WriteKind, WriteOp
from ..query.statistics import TableStats
from .base import EngineInfo, EngineSession, EngineTableAccess, HTAPEngine, WriteSetSession

_WRITE_KIND = {kind.value: kind for kind in WriteKind}


class DistributedReplicaEngine(HTAPEngine):
    """Raft row regions committed by 1PC or one-round 2PC, with
    learner-fed columnar replicas."""

    info = EngineInfo(
        name="distributed+replica",
        category="b",
        description="Distributed Row Store + Column Store Replica (TiDB style)",
    )

    def __init__(
        self,
        cost: CostModel | None = None,
        clock: LogicalClock | None = None,
        n_storage_nodes: int = 3,
        replication: int = 3,
        n_analytic_nodes: int = 1,
        n_regions: int | None = None,
        seed: int = 0,
    ):
        super().__init__(cost, clock)
        self.cluster = DistributedCluster(
            n_storage_nodes=n_storage_nodes,
            replication=replication,
            n_regions=n_regions,
            n_analytic_nodes=n_analytic_nodes,
            cost=self.cost,
            clock=self.clock,
            seed=seed,
        )
        # One ledger shared with the cluster so all busy time lands in
        # one place.
        self.ledger = self.cluster.ledger
        self._session_ids = itertools.count(1)

    @property
    def router(self):
        """The cluster's co-located shard-map router (the front door and
        benches can also mint their own via :meth:`make_router`)."""
        return self.cluster.router

    def make_router(self, name: str):
        """A fresh stateless router with an independent shard-map cache."""
        return self.cluster.make_router(name)

    # ------------------------------------------------------------- schema

    def create_table(self, schema: Schema) -> None:
        self.cluster.create_table(schema)
        self._register_adapter(
            schema.table_name, _ReplicaTableAccess(self, schema.table_name)
        )

    def declare_placement(self, table: str, group: str, prefix_len: int) -> None:
        """Co-locate ``table`` rows by a placement-key prefix (DDL time,
        before any row exists)."""
        self.cluster.declare_placement(table, group, prefix_len)

    def install_boundaries(self, points) -> None:
        """Re-cut the boot shard map at load quantiles of an
        expected-load placement-point sample (DDL time only)."""
        self.cluster.install_boundaries(points)

    # ------------------------------------------------------------- OLTP
    #
    # The write-set session reads the row regions through the cluster
    # and commits through Raft at its read ts (one clock for both); the
    # cluster numbers, validates and logs the transaction, region by region.

    def session(self) -> EngineSession:
        return WriteSetSession(self, next(self._session_ids))

    def _schema_of(self, table: str) -> Schema:
        return self.cluster.schemas[table]

    def _read_committed(self, table: str, key: Key, _read_ts: Timestamp) -> Row | None:
        return self.cluster.read(table, key)

    def _read_committed_many(
        self, pairs: Iterable[tuple[str, Key]]
    ) -> dict[tuple[str, Key], Row | None]:
        return self.cluster.read_many(pairs)

    def _scan_committed(
        self, table: str, predicate: Predicate, _read_ts: Timestamp
    ) -> list[Row]:
        return self.cluster.row_scan(table, predicate)

    def _commit_writes(self, _txn_id: int, writes, read_ts: Timestamp) -> Timestamp:
        if not writes:
            return self.clock.now()  # read-only: nothing to propose
        commit_ts = self.cluster.execute_transaction(
            [WriteOp(_WRITE_KIND[kind], table, key, row) for kind, table, key, row in writes],
            read_ts=read_ts,
        )
        self._m_tp_commits.inc()
        return commit_ts

    def bulk_load(self, table: str, rows: list[Row]) -> None:
        """Fast load through the cluster's bulk Raft command: one
        proposal per owning region instead of one commit per row
        batch.  Rows must be fresh keys."""
        if not rows:
            return
        self.cluster.bulk_load(table, rows)
        self._m_tp_commits.inc()

    # ------------------------------------------------------------- DS / metrics

    def _sync(self) -> int:
        return self.cluster.sync()

    def force_sync(self) -> int:
        moved = self.cluster.sync()
        self.scan_cache.invalidate()
        return moved

    def freshness_lag(self) -> int:
        return self.cluster.freshness_lag_ts()

    def tp_nodes(self) -> list[str]:
        return [f"n{i}" for i in range(self.cluster.n_storage_nodes)]

    def ap_nodes(self) -> list[str]:
        return [f"ap{i}" for i in range(self.cluster.n_analytic_nodes)]

    def memory_report(self) -> dict[str, int]:
        row_bytes = 0
        for sms in self.cluster._region_sms:
            for sm in sms.values():
                for table_rows in sm.rows.values():
                    width = 8
                    row_bytes += len(table_rows) * width * 16
        columnar = self.cluster.columnar
        return {
            "row_replicas": row_bytes,
            "column_replica": sum(
                cs.memory_bytes() for cs in columnar.column_stores.values()
            ),
            "delta_logs": sum(
                log.disk_bytes() for log in columnar.delta_logs.values()
            ),
        }


class _ReplicaTableAccess(EngineTableAccess):
    """TableAccess over the learner-fed columnar replica + row regions."""

    def schema(self) -> Schema:
        return self._engine.cluster.schemas[self._table]

    def _compute_stats(self) -> TableStats:
        # Statistics come from the columnar replica (cheap, slightly
        # stale — like real learner-side statistics).
        cluster = self._engine.cluster
        cluster.drain_replication()
        result = cluster.analytic_scan(self._table, None, ALWAYS_TRUE)
        return TableStats.from_arrays(result.arrays)

    def stats(self) -> TableStats:
        return self._stats.get(self._engine.cluster.commits)

    def cache_token(self, path=None):
        """Scan-cache version token: cluster commit count (fences writes
        even before learner apply), the replica's applied timestamp, the
        columnar write version, the delta-log backlog, how many of its
        sealed files have landed (a landing needs no commit), and the
        freshness mode."""
        cluster = self._engine.cluster
        columnar = cluster.columnar
        store = columnar.column_stores.get(self._table)
        log = columnar.delta_logs.get(self._table)
        return (
            "latest",
            cluster.commits,
            columnar.applied_ts,
            store.mutations if store is not None else -1,
            log.pending_entries() if log is not None else -1,
            log.landed_count() if log is not None else -1,
            self._engine.read_fresh,
        )

    def scan_rows(self, predicate: Predicate) -> list[Row]:
        return self._engine.cluster.row_scan(self._table, predicate)

    def scan_columns(
        self, columns: list[str], predicate: Predicate
    ) -> dict[str, np.ndarray]:
        result = self._engine.cluster.analytic_scan(
            self._table,
            columns,
            predicate,
            read_delta=self._engine.read_fresh,
            encode=True,
        )
        return result.arrays

    def scan_pruning_hint(self, predicate: Predicate) -> float:
        """Prunable fraction of the learner-side columnar replica."""
        store = self._engine.cluster.columnar.column_stores.get(self._table)
        if store is None:
            return 0.0
        return store.pruned_row_fraction(predicate)

    def code_space_hint(self, columns: list[str]) -> float:
        """Fraction of ``columns`` the replica store serves as codes."""
        store = self._engine.cluster.columnar.column_stores.get(self._table)
        if store is None:
            return 0.0
        return store.encoded_column_fraction(columns)

    def point_lookup(self, key: Key) -> Row | None:
        return self._engine.cluster.read(self._table, key)
