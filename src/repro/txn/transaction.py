"""The commit-time rules over a transaction's staged write set.

Every engine's session stages its writes as ``(kind, table, key, row)``
tuples in order, ``kind`` one of ``"insert"`` / ``"update"`` /
``"delete"``, each staged against the transaction's own view of its
key.  At commit an engine validates the staged list and installs what
it nets out to.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..common.types import Key


def first_lost_write(
    writes: Iterable[tuple], exists: Callable[[str, Key], bool]
) -> tuple | None:
    """Commit-time validation for transactions that read the latest
    committed state instead of a snapshot (the engines' write-set
    sessions, the cluster's region state machines): of the staged
    ``(kind, table, key, ...)`` writes, in staged order, the first that
    lost a race against ``exists(table, key)`` — an insert needs its
    key absent, an update or delete needs it present — or None.  Only
    a key's first write is checked; later ones were staged against the
    transaction's own view of it."""
    seen: set[tuple[str, Key]] = set()
    for write in writes:
        kind, table, key = write[:3]
        if (table, key) in seen:
            continue
        seen.add((table, key))
        if exists(table, key) == (kind == "insert"):
            return write
    return None


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
