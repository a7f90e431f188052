"""The commit-time rules over a transaction's staged write set.

Every engine's session stages its writes as ``(kind, table, key, row)``
tuples in order, ``kind`` one of ``"insert"`` / ``"update"`` /
``"delete"``, each staged against the transaction's own view of its
key.  At commit an engine validates the staged list by
:func:`first_committer_wins` at the transaction's read ts and installs
what it nets out to.  (b), (c) and (d) read the latest committed row,
which may be newer than the read ts: a write of it is refused, a false
abort rather than a lost update.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from ..common.clock import Timestamp
from ..common.errors import DuplicateKeyAborted, TransactionAborted, WriteConflictError
from ..common.types import Key


def first_writes(writes: Iterable[tuple]) -> Iterator[tuple]:
    """Each key's first staged ``(kind, table, key, ...)`` write, in
    staged order: the one a commit validates.  Later writes of the key
    were staged against the transaction's own view of it."""
    seen: set[tuple[str, Key]] = set()
    for write in writes:
        pair = (write[1], write[2])
        if pair not in seen:
            seen.add(pair)
            yield write


def first_committer_wins(
    txn_id: int, writes: Iterable[tuple], read_ts: Timestamp,
    written: Mapping[str, Mapping[Key, Timestamp]], fits: Callable[[str, str, Key], bool],
) -> TransactionAborted | None:
    """The commit rule of every engine: the refusal of a commit, or
    None.  Of the staged :func:`first_writes`, an insert whose key is
    present draws :class:`DuplicateKeyAborted`; otherwise a key written
    after ``read_ts`` (``written``: table -> key -> commit ts of its
    newest write, deletes included), or an update or delete of an
    absent key, draws :class:`WriteConflictError`.  ``fits(kind, table,
    key)`` says whether the key's committed state admits the write.
    Every insert is probed, in staged order, before a conflict wins."""
    conflict = None
    for write in first_writes(writes):
        kind, table, key = write[0], write[1], write[2]
        if not fits(kind, table, key):
            if kind == "insert":
                return DuplicateKeyAborted(txn_id, f"key {key!r} already exists in {table!r}")
            conflict = conflict or WriteConflictError(txn_id, key)
        elif conflict is None:
            stamps = written.get(table)
            if stamps and stamps.get(key, read_ts) > read_ts:
                conflict = WriteConflictError(txn_id, key)
    return conflict


def coalesce_writes(writes: list[tuple]) -> list[tuple]:
    """One effective write per key, at the position of the key's first
    staged write: insert+update is an insert of the newest row,
    insert+delete is nothing, delete+insert is an update, and
    insert-delete-insert is an insert again.  A redo log records, and
    a store installs, only these."""
    net: dict[tuple[str, Key], tuple | None] = {}
    for write in writes:
        kind, table, key, row = write
        pair = (table, key)
        if pair not in net:
            net[pair] = write
            continue
        prior = net[pair]
        # None: this transaction inserted the key and deleted it again.
        was_insert = prior is None or prior[0] == "insert"
        if kind == "delete":
            net[pair] = None if was_insert else write
        else:
            net[pair] = ("insert" if was_insert else "update", table, key, row)
    if len(net) == len(writes):
        return writes
    return [write for write in net.values() if write is not None]
