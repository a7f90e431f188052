"""Reference table model: a dict, written in commit order."""

from __future__ import annotations


class TableModel:
    """``key -> row`` with last-writer-wins upserts and deletes; deleting
    an absent key (a pure tombstone) still moves the commit horizon."""

    def __init__(self, rows=(), ts: int = 0):
        self._rows = {row[0]: row for row in rows}  # the key is column 0
        self.max_ts = ts

    def apply(self, kind: str, key, row, ts: int) -> None:
        """One ``("insert" | "update" | "delete", key, row, ts)`` op."""
        if kind == "delete":
            self._rows.pop(key, None)
        else:
            self._rows[key] = row
        self.max_ts = max(self.max_ts, ts)

    def apply_all(self, ops) -> "TableModel":
        for op in ops:
            self.apply(*op)
        return self

    def rows(self) -> list[tuple]:
        return sorted(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    def state(self, ts: int | None = None):
        """Comparable with :func:`store_state`; ``ts`` overrides the
        horizon for synchronizers that advance to a cut."""
        return (self.rows(), self.max_ts if ts is None else ts, len(self))


def store_state(store):
    """What every reader of a column image observes: the sorted logical
    row set, the freshness horizon, the live count."""
    return (sorted(store.all_rows()), store.max_commit_ts(), len(store))
