"""The commit-time rules over a transaction's staged write set.

Every engine's session stages its writes as ``(kind, table, key, row)``
tuples in order, ``kind`` one of ``"insert"`` / ``"update"`` /
``"delete"``, each staged against the transaction's own view of its
key.  At commit an engine validates the staged list and installs what
it nets out to.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..common.errors import DuplicateKeyAborted, TransactionAborted
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


def first_lost_write(
    writes: Iterable[tuple], exists: Callable[[str, Key], bool]
) -> tuple | None:
    """Commit-time validation for transactions that read the latest
    committed state instead of a snapshot (the engines' write-set
    sessions, the cluster's region state machines): of the staged
    :func:`first_writes`, the first that lost a race against
    ``exists(table, key)``, or None.  An insert needs its key absent
    (its session checked it only against its own writes); an update or
    delete needs it present."""
    for write in first_writes(writes):
        if exists(write[1], write[2]) == (write[0] == "insert"):
            return write
    return None


def refusal(txn_id: int, lost: tuple) -> TransactionAborted:
    """The error of a commit refused on its staged write ``lost``."""
    kind, table, key = lost[:3]
    if kind == "insert":
        return DuplicateKeyAborted(txn_id, f"key {key!r} already exists in {table!r}")
    return TransactionAborted(
        txn_id, f"{kind} of key {key!r} in {table!r} lost to a concurrent commit"
    )


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
