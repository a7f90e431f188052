"""Log-based (disk) delta files, shipped to the columnar side.

The TiDB-style delta path of Table 2: committed changes destined for the
columnar replica are shipped as *log files* that accumulate on disk until
the log-based delta merge folds them into the column store.  Analytical
scans that want fresh data must read these unmerged files — the survey's
"log-based delta and column scan", which is more expensive than the
in-memory variant because every file read is charged page I/O, and
freshness suffers from shipping latency.

Ingest (WAL appends and a sealed file's page writes) is charged to an
*ingest* cost model: architecture (b)'s learner passes its own node's
clock, so the transactions whose commits it replays never wait for it;
a stand-alone caller passes nothing and ingests on its one clock.  A
sealed file then ships: it lands ``ship_latency_us`` after its page
writes, and that latency is time in flight that no clock is charged.
Readers see landed files only, and the merge waits for the newest file
to land.
"""

from __future__ import annotations

from ..common.clock import Timestamp
from ..common.cost import CostModel
from ..common.types import Key, Row, Schema
from .delta_batch import KIND_DELETE, KIND_INSERT, KIND_UPDATE
from .delta_store import DeltaEntry, DeltaKind, collapse_entries

_ENTRIES_PER_PAGE = 64

_KIND_OF_CODE = {
    KIND_INSERT: DeltaKind.INSERT,
    KIND_UPDATE: DeltaKind.UPDATE,
    KIND_DELETE: DeltaKind.DELETE,
}
_CODE_OF_KIND = {kind: code for code, kind in _KIND_OF_CODE.items()}


class DeltaLogFile:
    """One sealed, immutable delta log file.

    Holds either materialized :class:`DeltaEntry` objects (scalar
    ingest) or parallel column slabs (batched ingest); each
    representation derives — and caches — the other on demand.
    ``shipped_at_us`` is the simulated instant it lands on the columnar
    side (a file built outside a :class:`LogDeltaManager` has landed)."""

    __slots__ = (
        "file_id",
        "_entries",
        "_columns",
        "min_commit_ts",
        "max_commit_ts",
        "shipped_at_us",
    )

    def __init__(self, file_id: int, entries: list[DeltaEntry]):
        self.file_id = file_id
        self._entries = entries
        self._columns = None
        self.min_commit_ts = entries[0].commit_ts if entries else 0
        self.max_commit_ts = entries[-1].commit_ts if entries else 0
        self.shipped_at_us = 0.0

    @classmethod
    def from_columns(
        cls,
        file_id: int,
        kinds: list[int],
        keys: list[Key],
        rows: list[Row | None],
        commit_ts: list[Timestamp],
    ) -> "DeltaLogFile":
        """Seal a file directly from column slabs (batched replay)."""
        obj = cls.__new__(cls)
        obj.file_id = file_id
        obj._entries = None
        obj._columns = (kinds, keys, rows, commit_ts)
        obj.min_commit_ts = commit_ts[0] if commit_ts else 0
        obj.max_commit_ts = commit_ts[-1] if commit_ts else 0
        obj.shipped_at_us = 0.0
        return obj

    def __len__(self) -> int:
        if self._entries is not None:
            return len(self._entries)
        return len(self._columns[1])

    @property
    def entries(self) -> list[DeltaEntry]:
        if self._entries is None:
            kind_of = _KIND_OF_CODE
            self._entries = [
                DeltaEntry(kind_of[kind], key, row, ts)
                for kind, key, row, ts in zip(*self._columns)
            ]
        return self._entries

    def columns(self) -> tuple[list[int], list[Key], list, list[Timestamp]]:
        """``(kind codes, keys, rows, commit_ts)`` parallel lists."""
        if self._columns is None:
            code_of = _CODE_OF_KIND
            es = self._entries
            self._columns = (
                [code_of[e.kind] for e in es],
                [e.key for e in es],
                [e.row for e in es],
                [e.commit_ts for e in es],
            )
        return self._columns

    def indexed_key_count(self) -> int:
        """Distinct keys in the file — what a per-key merge walk probes."""
        if self._entries is not None:
            return len({e.key for e in self._entries})
        return len(set(self._columns[1]))

    def page_count(self) -> int:
        return max(1, -(-len(self) // _ENTRIES_PER_PAGE))


class LogDeltaManager:
    """Open write buffer + sealed files (in flight or landed) awaiting merge."""

    def __init__(
        self,
        schema: Schema,
        cost: CostModel | None = None,
        seal_threshold: int = 256,
        ship_latency_us: float = 2_000.0,
        ingest: CostModel | None = None,
    ):
        self.schema = schema
        self._cost = cost or CostModel()
        #: What ingest work is charged to: a learner node's own clock, or
        #: the one clock of a stand-alone caller.
        self._ingest = ingest or self._cost
        self._buffer: list[DeltaEntry] = []
        self._files: list[DeltaLogFile] = []
        # Ship times never decrease, so the landed files are a prefix of
        # ``_files``: ``_files[:_landed]``, advanced on demand.
        self._landed = 0
        self._next_file_id = 0
        self._seal_threshold = seal_threshold
        #: Simulated time a sealed file spends in flight between its page
        #: writes and its landing on the columnar side — the source of the
        #: architecture's freshness gap.  No clock is charged for it.
        self.ship_latency_us = ship_latency_us

    # ------------------------------------------------------------- ingest

    def _start_work(self) -> None:
        """A piece of ingest work starts no earlier than the shared
        clock's now (a no-op on a stand-alone caller's one clock)."""
        self._ingest.clock.advance_to(self._cost.now_us())

    def _ship(self, sealed: DeltaLogFile) -> None:
        """Write ``sealed``'s pages on the ingest clock and send it off."""
        self._next_file_id += 1
        self._files.append(sealed)
        ingest = self._ingest
        ingest.charge(ingest.page_write_us * sealed.page_count())
        sealed.shipped_at_us = ingest.now_us() + self.ship_latency_us

    def append(self, entry: DeltaEntry) -> None:
        self._start_work()
        self._buffer.append(entry)
        self._ingest.charge(self._ingest.wal_append_us)
        if len(self._buffer) >= self._seal_threshold:
            self.seal()

    def record_insert(self, row: Row, commit_ts: Timestamp) -> None:
        key = self.schema.key_of(row)
        self.append(DeltaEntry(DeltaKind.INSERT, key, row, commit_ts))

    def record_update(self, row: Row, commit_ts: Timestamp) -> None:
        key = self.schema.key_of(row)
        self.append(DeltaEntry(DeltaKind.UPDATE, key, row, commit_ts))

    def record_delete(self, key: Key, commit_ts: Timestamp) -> None:
        self.append(DeltaEntry(DeltaKind.DELETE, key, None, commit_ts))

    def append_batch(self, entries: list[DeltaEntry]) -> None:
        """Bulk ingest: one WAL charge for the whole batch, sealing as
        many full files as the threshold dictates."""
        if not entries:
            return
        self._start_work()
        self._ingest.charge_rows(self._ingest.wal_append_us, len(entries))
        buf = self._buffer
        buf.extend(entries)
        threshold = self._seal_threshold
        n_full = len(buf) // threshold
        for i in range(n_full):
            self._ship(
                DeltaLogFile(
                    self._next_file_id, buf[i * threshold : (i + 1) * threshold]
                )
            )
        del buf[: n_full * threshold]

    def append_batch_columns(
        self,
        kinds: list[int],
        keys: list[Key],
        rows: list[Row | None],
        commit_ts: list[Timestamp],
    ) -> None:
        """Columnar bulk ingest: same sealing cadence and charges as
        :meth:`append_batch`, but full files keep the column slabs —
        no per-entry object materialization on the hot replay path.
        Only a sub-threshold head (topping up an open buffer) and tail
        ever become :class:`DeltaEntry` objects."""
        n = len(keys)
        if n == 0:
            return
        if not (len(kinds) == len(rows) == len(commit_ts) == n):
            raise ValueError("column slabs must have equal lengths")
        self._start_work()
        self._ingest.charge_rows(self._ingest.wal_append_us, n)
        threshold = self._seal_threshold
        kind_of = _KIND_OF_CODE
        start = 0
        if self._buffer:
            take = min(n, threshold - len(self._buffer))
            self._buffer.extend(
                DeltaEntry(kind_of[kinds[i]], keys[i], rows[i], commit_ts[i])
                for i in range(take)
            )
            start = take
            if len(self._buffer) >= threshold:
                self.seal()
        while n - start >= threshold:
            end = start + threshold
            self._ship(
                DeltaLogFile.from_columns(
                    self._next_file_id,
                    kinds[start:end],
                    keys[start:end],
                    rows[start:end],
                    commit_ts[start:end],
                )
            )
            start = end
        if start < n:
            self._buffer.extend(
                DeltaEntry(kind_of[kinds[i]], keys[i], rows[i], commit_ts[i])
                for i in range(start, n)
            )

    def seal(self) -> DeltaLogFile | None:
        """Flush the open buffer into a sealed file and ship it: its page
        writes are charged to the ingest clock, and it lands on the
        columnar side ``ship_latency_us`` after them."""
        if not self._buffer:
            return None
        self._start_work()
        sealed = DeltaLogFile(self._next_file_id, self._buffer)
        self._buffer = []
        self._ship(sealed)
        return sealed

    # ------------------------------------------------------------- reads

    @property
    def files(self) -> list[DeltaLogFile]:
        """Every sealed file, in flight or landed, oldest first."""
        return self._files

    def landed_count(self) -> int:
        """How many sealed files have landed by the shared clock's now."""
        files, i = self._files, self._landed
        if i < len(files):
            now = self._cost.now_us()
            while i < len(files) and files[i].shipped_at_us <= now:
                i += 1
            self._landed = i
        return i

    def in_flight(self) -> int:
        """Sealed files still shipping."""
        return len(self._files) - self.landed_count()

    def landing_us(self) -> float:
        """When the newest sealed file lands (0.0 with none sealed)."""
        return self._files[-1].shipped_at_us if self._files else 0.0

    def pending_entries(self) -> int:
        return sum(len(f) for f in self._files) + len(self._buffer)

    def sealed_entries(self) -> int:
        return sum(len(f) for f in self._files)

    def unsealed_entries(self) -> int:
        return len(self._buffer)

    def scan_sealed(self, up_to_ts: Timestamp | None = None):
        """Read every landed entry (paying page I/O per file)."""
        out: list[DeltaEntry] = []
        for file in self._files[: self.landed_count()]:
            self._cost.charge(self._cost.page_read_us * file.page_count())
            for entry in file.entries:
                if up_to_ts is None or entry.commit_ts <= up_to_ts:
                    out.append(entry)
        return out

    def effective_rows(self, up_to_ts: Timestamp | None = None):
        """Collapsed (live rows, tombstones) over landed files only.

        Unsealed buffer entries and files still in flight have not
        shipped yet — that invisibility is exactly the freshness penalty
        the paper attributes to this design.
        """
        return collapse_entries(self.scan_sealed(up_to_ts))

    def max_sealed_ts(self) -> Timestamp:
        """The newest commit in a landed file (0 with none landed)."""
        return max(
            (f.max_commit_ts for f in self._files[: self.landed_count()]), default=0
        )

    # ------------------------------------------------------------- merge support

    def drain_files(self) -> list[DeltaLogFile]:
        """Hand every sealed file to the merger and forget them; the merge
        first waits, on the shared clock, for the newest to land."""
        drained = self._files
        if drained:
            wait = drained[-1].shipped_at_us - self._cost.now_us()
            if wait > 0:
                self._cost.charge(wait)
        self._files = []
        self._landed = 0
        return drained

    def disk_bytes(self) -> int:
        width = max(1, len(self.schema.columns))
        return self.pending_entries() * width * 40
