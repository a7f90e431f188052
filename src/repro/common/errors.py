"""Exception hierarchy shared by every subsystem of the testbed.

Keeping all error types in one module lets callers catch a single base
class (:class:`ReproError`) or a narrow subclass without importing the
subsystem that raised it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A table schema is malformed or a row does not match its schema."""


class StorageError(ReproError):
    """A storage engine rejected an operation (missing table, bad key...)."""


class DuplicateKeyError(StorageError):
    """An insert collided with an existing, visible primary key."""


class KeyNotFoundError(StorageError):
    """A point operation referenced a primary key that does not exist."""


class TransactionError(ReproError):
    """A transaction was used incorrectly (e.g. write after commit)."""


class TransactionAborted(TransactionError):
    """The system aborted the transaction, typically on a write conflict."""

    def __init__(self, txn_id: int, reason: str):
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class WriteConflictError(TransactionAborted):
    """First-committer-wins conflict under snapshot isolation."""

    def __init__(self, txn_id: int, key: object):
        TransactionError.__init__(
            self, f"transaction {txn_id} aborted: write-write conflict on {key!r}"
        )
        self.txn_id = txn_id
        self.reason = f"write-write conflict on {key!r}"
        self.key = key


class DuplicateKeyAborted(TransactionAborted, DuplicateKeyError):
    """A commit refused because a key it inserts is already committed."""


class QueryError(ReproError):
    """A query could not be parsed, planned, or executed."""


class SqlSyntaxError(QueryError):
    """The SQL text failed to parse."""

    def __init__(self, message: str, position: int | None = None):
        suffix = f" (at offset {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class PlanningError(QueryError):
    """The planner could not produce a plan (unknown table/column...)."""


class ConsensusError(ReproError):
    """A Raft group could not serve a request (no leader, lost quorum)."""


class NotLeaderError(ConsensusError):
    """A log append was sent to a node that is not the group leader."""

    def __init__(self, node_id: str, leader_hint: str | None):
        super().__init__(f"node {node_id} is not leader (hint: {leader_hint})")
        self.leader_hint = leader_hint


class TwoPhaseCommitError(ReproError):
    """A distributed commit failed during prepare or commit."""


class StaleEpochError(ReproError):
    """A shard rejected a request routed with an out-of-date shard map.

    Carries the authoritative epoch so the router can tell how far
    behind its cache is before refetching."""

    def __init__(self, shard_id: int, current_epoch: int, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"shard {shard_id} rejected stale-epoch request; "
            f"metadata is at epoch {current_epoch}{suffix}"
        )
        self.shard_id = shard_id
        self.current_epoch = current_epoch


class RoutingError(ReproError):
    """A router could not place a request (retries exhausted, no shard)."""


class SchedulerError(ReproError):
    """A resource scheduler was configured or driven incorrectly."""


class BenchmarkError(ReproError):
    """A benchmark driver was misconfigured."""
