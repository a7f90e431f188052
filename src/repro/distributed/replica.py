"""The columnar learner replica: delta logs fed by Raft learner applies.

Extracted from ``cluster.py`` (which had grown to mix replica-merge,
placement, and commit orchestration): this module owns the analytics side
of architecture (b) — per-table delta logs that each shard's learner
stream appends into, and the log-based delta merge that folds them into
per-table column stores.

Resharding commands in the learner stream:

* ``"rehome"`` — proposed on the *target* group at the split/merge/
  migrate flip, carrying the moved interval's current committed rows;
  replayed through the same bulk path as ``"bulk"`` loads
  (``learner_apply_batch`` column slabs), it rebuilds the re-homed
  learner's columnar state idempotently (the values equal the truth at
  the flip instant, so replay can never resurrect stale data no matter
  how merges interleave).
* ``"install"`` / ``"tail"`` / ``"truncate"`` — voter-side migration
  machinery (staged snapshot, dual-logged writes, source cleanup).  The
  learner ignores them: the source shard's learner stream already
  carried every one of those writes, and the column replica is keyed by
  primary key, not by shard.

The learner also skips ``None``, the no-op a leader elected with
uncommitted entries appends in its own term.
"""

from __future__ import annotations

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.predicate import ALWAYS_TRUE, Predicate
from ..common.types import Schema
from ..obs import get_registry
from ..storage.code_batch import overlay_delta
from ..storage.column_store import ColumnScanResult, ColumnStore
from ..storage.delta_batch import KIND_DELETE, KIND_INSERT, KIND_UPDATE
from ..storage.delta_log import LogDeltaManager
from ..sync.log_merge import LogDeltaMerger

#: Learner-stream commands the columnar replica deliberately skips
#: (voter-side resharding machinery; see the module docstring).
_LEARNER_IGNORED_OPS = frozenset({"install", "tail", "truncate"})


def _runs_by_table(writes):
    """Group one commit's writes by table, preserving per-table order.
    Single-table transactions (the common case) pass through without
    building intermediate groups."""
    if not writes:
        return ()
    first = writes[0].table
    if all(w.table == first for w in writes):
        return ((first, writes),)
    groups: dict[str, list] = {}
    for w in writes:
        groups.setdefault(w.table, []).append(w)
    return groups.items()


class ColumnarReplica:
    """The analytics side fed by learner applies: per-table delta logs
    that the log-based delta merge folds into per-table column stores."""

    def __init__(
        self,
        schemas: dict[str, Schema],
        cost: CostModel,
        seal_threshold: int = 64,
    ):
        # The learner node's own clock: ingest (WAL appends, a sealed
        # file's page writes) is charged there, never to the clock of the
        # foreground operation whose Raft wait delivered the batch.
        ingest = cost.fork_detached()
        self.delta_logs = {
            name: LogDeltaManager(
                schema, cost=cost, seal_threshold=seal_threshold, ingest=ingest
            )
            for name, schema in schemas.items()
        }
        self.column_stores = {
            name: ColumnStore(schema, cost=cost) for name, schema in schemas.items()
        }
        self._mergers = [
            LogDeltaMerger(log, self.column_stores[name], cost)
            for name, log in self.delta_logs.items()
        ]
        self.applied_ts: Timestamp = 0
        #: (shard, table) -> the newest commit timestamp that shard's
        #: learner stream has applied to the table.
        self.applied_ts_of: dict[tuple[int, str], Timestamp] = {}
        # Keyed by (shard, txn_id): each shard's learner stream carries
        # only that shard's slice of a multi-shard transaction, and
        # streams from different shards interleave arbitrarily.
        self._pending: dict[tuple[int, int], tuple[list, Timestamp]] = {}
        self._h_apply_batch = get_registry().histogram("raft.apply_batch_commands")

    def learner_apply_batch(
        self, region: int, _start_index: int, commands: list[tuple]
    ) -> None:
        """Batched log replay: one pass over a committed run of commands,
        accumulating per-table column slabs (kind codes, keys, rows,
        commit timestamps) that land with one columnar bulk append each
        (TiDB's batched learner replay) — no per-write DeltaEntry
        objects on this path."""
        from .cluster import WriteKind

        per_table: dict[str, tuple[list, list, list, list]] = {}
        max_ts = self.applied_ts
        pending = self._pending
        insert_kind = WriteKind.INSERT
        delete_kind = WriteKind.DELETE
        for command in commands:
            if command is None:
                continue  # a leader's election no-op
            op = command[0]
            if op == "intent":
                _op, txn_id, writes, commit_ts, _read_ts = command
                pending[(region, txn_id)] = (writes, commit_ts)
            elif op in ("resolve", "commit1p"):
                if op == "commit1p":
                    _op, _txn_id, writes, commit_ts = command
                elif not command[2]:
                    # A resolved abort: drop the staged intent.
                    pending.pop((region, command[1]), None)
                    continue
                else:
                    staged = pending.pop((region, command[1]), None)
                    if staged is None:
                        continue
                    writes, commit_ts = staged
                for table, run in _runs_by_table(writes):
                    cols = per_table.get(table)
                    if cols is None:
                        cols = per_table[table] = ([], [], [], [])
                    kinds, keys, rows, ts = cols
                    # Identity checks beat enum-hash dict lookups here.
                    kinds.extend(
                        [
                            KIND_INSERT
                            if w.kind is insert_kind
                            else (
                                KIND_DELETE
                                if w.kind is delete_kind
                                else KIND_UPDATE
                            )
                            for w in run
                        ]
                    )
                    keys.extend([w.key for w in run])
                    rows.extend(
                        [None if w.kind is delete_kind else w.row for w in run]
                    )
                    ts.extend([commit_ts] * len(run))
                if commit_ts > max_ts:
                    max_ts = commit_ts
            elif op in ("bulk", "rehome"):
                # "rehome" rides the same bulk slab path: the re-homed
                # learner's columnar slice rebuilds as one batched
                # upsert append, exactly like a bulk load.
                _op, table, bulk_rows, commit_ts = command
                cols = per_table.get(table)
                if cols is None:
                    cols = per_table[table] = ([], [], [], [])
                kinds, keys, rows, ts = cols
                key_of = self.delta_logs[table].schema.key_of
                kind = KIND_INSERT if op == "bulk" else KIND_UPDATE
                kinds.extend([kind] * len(bulk_rows))
                keys.extend([key_of(row) for row in bulk_rows])
                rows.extend(bulk_rows)
                ts.extend([commit_ts] * len(bulk_rows))
                if commit_ts > max_ts:
                    max_ts = commit_ts
            elif op in _LEARNER_IGNORED_OPS:
                continue
        applied_of = self.applied_ts_of
        sealed = []
        for table, (kinds, keys, rows, ts) in per_table.items():
            log = self.delta_logs[table]
            first = len(log.files)
            log.append_batch_columns(kinds, keys, rows, ts)
            sealed.extend(log.files[first:])
            key = (region, table)
            applied_of[key] = max(applied_of.get(key, 0), max(ts))
        # One shipment per batch: every file it sealed lands when the
        # last one does, ship latency after the batch's last page write.
        for file in sealed:
            file.shipped_at_us = sealed[-1].shipped_at_us
        self.applied_ts = max_ts
        self._h_apply_batch.observe(len(commands))

    # ------------------------------------------------------------- queries

    def scan(
        self,
        table: str,
        columns: list[str] | None,
        predicate: Predicate = ALWAYS_TRUE,
        read_delta: bool = True,
        encode: bool = False,
    ) -> ColumnScanResult:
        """Log-based delta + column scan (Table 2's second AP technique).

        ``encode=True`` keeps dictionary columns as CodeColumns across
        the delta overlay (fresh log rows fold into the code space with
        a decoded fallback)."""
        store = self.column_stores[table]
        result = store.scan(columns, predicate, encode=encode)
        if not read_delta:
            return result
        live, tombstones = self.delta_logs[table].effective_rows()
        if not live and not tombstones:
            return result
        dropped = store.rows_of(result, tombstones | set(live))
        result.arrays, fresh_rows = overlay_delta(
            result.arrays, dropped, live.values(), predicate, store.schema
        )
        for row in sorted(dropped, reverse=True):
            del result.keys[row]
        result.keys.extend(map(store.schema.key_of, fresh_rows))
        return result

    def landing_us(self) -> float:
        """When the newest sealed file of any table lands."""
        return max((log.landing_us() for log in self.delta_logs.values()), default=0.0)

    def merge_deltas(self) -> int:
        """Log-based delta merge: seal + fold every delta file into the
        column stores.  Returns rows merged."""
        return sum(merger.merge(seal_first=True) for merger in self._mergers)
