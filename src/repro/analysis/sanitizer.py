"""Runtime sanitizers: happens-before and snapshot-isolation checkers.

htaplint proves properties of the *source*; these wrappers check the
*execution*.  Both attach to live objects by monkeypatching their public
entry points, record every check in ``sanitizer.*`` metrics, and (in
strict mode, the default) raise :class:`SanitizerViolation` at the
first broken invariant so the failing simulated step is the one on the
stack.

:class:`HappensBeforeChecker` wraps a
:class:`~repro.distributed.network.SimNetwork`:

* every ``send`` stamps the message with the sender's vector clock, the
  simulated send time, and a per-link sequence number;
* every delivery asserts the message was actually sent and not yet
  delivered (no duplication/fabrication), that simulated time did not
  run backwards, that per-link delivery order is monotone in send order
  (the bus has constant one-way latency, so any inversion is a bus
  bug), and that the sender-component of the stamped clock advances the
  receiver's view (a stale component means the receiver already saw a
  later state of the sender — a happens-before violation).

Dropped messages are handled naturally: their stamps are simply never
consumed, and sequence gaps are allowed (the order check is *monotone*,
not *consecutive*).  Stamps hold a strong reference to the message so a
recycled ``id()`` can never alias a dropped message's stamp.

:class:`SnapshotIsolationChecker` wraps engine (a), the
:class:`~repro.engines.row_imcs.RowIMCSEngine`:

* every ``MVCCRowStore.read``/``scan`` result is recomputed from the
  version-chain ground truth (``RowVersion.visible_at``) and compared —
  a cached, indexed, or fast-path read that returns a version outside
  its snapshot's visibility window is caught at the call site;
* every successful commit (``_commit_writes``) is checked for monotone
  commit timestamps after the session's read ts, and for each
  effective write actually being installed at the commit timestamp
  (first-committer-wins leaves no half-installed state behind).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..common.predicate import ALWAYS_TRUE
from ..obs import get_registry
from ..txn.transaction import coalesce_writes


class SanitizerViolation(AssertionError):
    """A runtime invariant of the simulation was broken."""


# ------------------------------------------------------------------ vector clock


class VectorClock:
    """A node-id -> counter map with merge/tick, value-semantics copy."""

    __slots__ = ("_counts",)

    def __init__(self, counts: dict[str, int] | None = None):
        self._counts: dict[str, int] = dict(counts or {})

    def get(self, node: str) -> int:
        return self._counts.get(node, 0)

    def tick(self, node: str) -> None:
        self._counts[node] = self._counts.get(node, 0) + 1

    def merge(self, other: "VectorClock") -> None:
        for node, count in other._counts.items():
            if count > self._counts.get(node, 0):
                self._counts[node] = count

    def copy(self) -> "VectorClock":
        return VectorClock(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{c}" for n, c in sorted(self._counts.items()))
        return f"VC({inner})"


# ------------------------------------------------------------------ HB checker


@dataclass
class _Stamp:
    message: Any  # strong ref: keeps id(message) unambiguous for drops
    seq: int
    sent_at_us: float
    clock: VectorClock


@dataclass
class Violation:
    kind: str
    detail: str


class HappensBeforeChecker:
    """Vector-clock happens-before checking for a :class:`SimNetwork`."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: list[Violation] = []
        self.deliveries_checked = 0
        self._network: Any | None = None
        self._orig_send: Callable | None = None
        self._orig_register: Callable | None = None
        self._clocks: dict[str, VectorClock] = {}
        self._stamps: dict[tuple[str, str, int], deque[_Stamp]] = {}
        self._link_seq: dict[tuple[str, str], int] = {}
        self._last_delivered_seq: dict[tuple[str, str], int] = {}
        registry = get_registry()
        self._m_checked = registry.counter("sanitizer.deliveries_checked")
        self._m_violations = registry.counter("sanitizer.violations")

    # -------------------------------------------------------------- wiring

    def attach(self, network: Any) -> "HappensBeforeChecker":
        """Wrap ``send`` and every (current and future) handler."""
        if self._network is not None:
            raise RuntimeError("checker is already attached")
        self._network = network
        self._orig_send = network.send
        self._orig_register = network.register

        def send(src: str, dst: str, message: Any) -> None:
            self._on_send(src, dst, message)
            self._orig_send(src, dst, message)

        def register(node_id: str, handler: Callable) -> None:
            self._orig_register(node_id, self._wrap_handler(node_id, handler))

        network.send = send
        network.register = register
        for node_id, handler in list(network._handlers.items()):
            network._handlers[node_id] = self._wrap_handler(node_id, handler)
        return self

    def detach(self) -> None:
        network = self._network
        if network is None:
            return
        # The wrappers were installed as instance attributes shadowing
        # the class methods; deleting them restores normal lookup.
        del network.send
        del network.register
        for node_id, handler in list(network._handlers.items()):
            original = getattr(handler, "_hb_original", None)
            if original is not None:
                network._handlers[node_id] = original
        self._network = None

    # -------------------------------------------------------------- checks

    def _clock(self, node: str) -> VectorClock:
        clock = self._clocks.get(node)
        if clock is None:
            clock = self._clocks[node] = VectorClock()
        return clock

    def _now_us(self) -> float:
        assert self._network is not None
        return self._network._cost.now_us()

    def _report(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))
        self._m_violations.inc()
        if self.strict:
            raise SanitizerViolation(f"{kind}: {detail}")

    def _on_send(self, src: str, dst: str, message: Any) -> None:
        sender = self._clock(src)
        sender.tick(src)
        seq = self._link_seq.get((src, dst), 0) + 1
        self._link_seq[(src, dst)] = seq
        stamp = _Stamp(message, seq, self._now_us(), sender.copy())
        self._stamps.setdefault((src, dst, id(message)), deque()).append(stamp)

    def _wrap_handler(self, node_id: str, handler: Callable) -> Callable:
        if getattr(handler, "_hb_original", None) is not None:
            return handler  # already wrapped

        def checked(src: str, message: Any) -> None:
            self._on_deliver(src, node_id, message)
            handler(src, message)

        checked._hb_original = handler
        return checked

    def _on_deliver(self, src: str, dst: str, message: Any) -> None:
        self.deliveries_checked += 1
        self._m_checked.inc()
        pending = self._stamps.get((src, dst, id(message)))
        if not pending:
            self._report(
                "phantom-delivery",
                f"{src}->{dst}: message delivered that was never sent "
                "on this link (or was already delivered once)",
            )
            return
        stamp = pending.popleft()
        now = self._now_us()
        if now < stamp.sent_at_us:
            self._report(
                "time-travel",
                f"{src}->{dst}: delivered at {now}us before its send "
                f"at {stamp.sent_at_us}us",
            )
        last = self._last_delivered_seq.get((src, dst), 0)
        if stamp.seq <= last:
            self._report(
                "link-reorder",
                f"{src}->{dst}: delivery seq {stamp.seq} after seq {last} "
                "on a constant-latency link",
            )
        else:
            self._last_delivered_seq[(src, dst)] = stamp.seq
        receiver = self._clock(dst)
        if stamp.clock.get(src) <= receiver.get(src):
            self._report(
                "happens-before",
                f"{src}->{dst}: stamped clock {stamp.clock} does not "
                f"advance the receiver's view of {src} "
                f"(receiver already at {receiver.get(src)})",
            )
        receiver.merge(stamp.clock)
        receiver.tick(dst)


# ------------------------------------------------------------------ SI checker


@dataclass
class _WrappedStore:
    store: Any
    orig_read: Callable
    orig_scan: Callable


class SnapshotIsolationChecker:
    """Visibility ground-truthing for MVCC reads + commit-path checks."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: list[Violation] = []
        self.reads_checked = 0
        self._engine: Any | None = None
        self._wrapped: list[_WrappedStore] = []
        self._last_commit_ts: Any | None = None
        registry = get_registry()
        self._m_checked = registry.counter("sanitizer.reads_checked")
        self._m_violations = registry.counter("sanitizer.violations")

    # -------------------------------------------------------------- wiring

    def attach(self, engine: Any) -> "SnapshotIsolationChecker":
        """Wrap engine (a)'s row stores, its ``create_table`` (so later
        tables' stores are wrapped too) and its commit body."""
        if self._engine is not None:
            raise RuntimeError("checker is already attached")
        self._engine = engine
        for store in engine._stores.values():
            self._wrap_store(store)
        orig_create_table = engine.create_table
        orig_commit = engine._commit_writes

        def create_table(schema: Any) -> None:
            orig_create_table(schema)
            self._wrap_store(engine.store(schema.table_name))

        def commit_writes(txn_id: int, writes: list, read_ts: Any) -> Any:
            commit_ts = orig_commit(txn_id, writes, read_ts)
            self._check_commit(txn_id, read_ts, commit_ts, coalesce_writes(writes))
            return commit_ts

        engine.create_table = create_table
        engine._commit_writes = commit_writes
        return self

    def detach(self) -> None:
        engine = self._engine
        if engine is None:
            return
        del engine.create_table
        del engine._commit_writes
        for wrapped in self._wrapped:
            del wrapped.store.read
            del wrapped.store.scan
        self._wrapped.clear()
        self._engine = None

    # -------------------------------------------------------------- checks

    def _report(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))
        self._m_violations.inc()
        if self.strict:
            raise SanitizerViolation(f"{kind}: {detail}")

    @staticmethod
    def _ground_truth_read(store: Any, key: Any, snapshot_ts: Any) -> Any:
        chain = store._chains.get(key)
        if not chain:
            return None
        for version in reversed(chain):
            if version.visible_at(snapshot_ts):
                return version.row
        return None

    def _wrap_store(self, store: Any) -> None:
        orig_read = store.read
        orig_scan = store.scan
        table = store.schema.table_name

        def read(key: Any, snapshot_ts: Any) -> Any:
            got = orig_read(key, snapshot_ts)
            self.reads_checked += 1
            self._m_checked.inc()
            expected = self._ground_truth_read(store, key, snapshot_ts)
            if got != expected:
                self._report(
                    "si-read",
                    f"{table}[{key!r}] @ ts={snapshot_ts}: read returned "
                    f"{got!r} but the visible version is {expected!r}",
                )
            return got

        def scan(snapshot_ts: Any, predicate: Any = ALWAYS_TRUE, **kwargs: Any) -> Any:
            got = orig_scan(snapshot_ts, predicate, **kwargs)
            self.reads_checked += 1
            self._m_checked.inc()
            key_of = store.schema.key_of
            expected: dict[Any, Any] = {}
            for key in list(store._chains):
                row = self._ground_truth_read(store, key, snapshot_ts)
                if row is not None and predicate.matches(row, store.schema):
                    expected[key] = row
            got_by_key = {key_of(row): row for row in got}
            if got_by_key != expected:
                missing = sorted(set(expected) - set(got_by_key))
                extra = sorted(set(got_by_key) - set(expected))
                self._report(
                    "si-scan",
                    f"{table} @ ts={snapshot_ts}: scan visibility mismatch "
                    f"(missing keys {missing[:5]!r}, phantom keys "
                    f"{extra[:5]!r})",
                )
            return got

        store.read = read
        store.scan = scan
        self._wrapped.append(_WrappedStore(store, orig_read, orig_scan))

    def _check_commit(
        self, txn_id: int, read_ts: Any, commit_ts: Any, writes: list
    ) -> None:
        assert self._engine is not None
        if self._last_commit_ts is not None and commit_ts <= self._last_commit_ts:
            self._report(
                "commit-order",
                f"commit_ts {commit_ts} not after previous {self._last_commit_ts}",
            )
        self._last_commit_ts = commit_ts
        if commit_ts <= read_ts:
            self._report(
                "commit-ts",
                f"txn {txn_id}: commit_ts {commit_ts} does not follow "
                f"read_ts {read_ts}",
            )
        for _kind, table, key, _row in writes:
            chain = self._engine.store(table)._chains.get(key)
            newest = chain[-1] if chain else None
            if newest is None or commit_ts not in (newest.begin_ts, newest.end_ts):
                shown = "none" if newest is None else f"[{newest.begin_ts}, {newest.end_ts})"
                self._report(
                    "commit-install",
                    f"txn {txn_id}: {table}[{key!r}] shows no version "
                    f"installed/closed at commit_ts {commit_ts} "
                    f"(newest is {shown})",
                )


# ------------------------------------------------------------------ context


@contextmanager
def happens_before(network: Any, strict: bool = True) -> Iterator[HappensBeforeChecker]:
    checker = HappensBeforeChecker(strict=strict).attach(network)
    try:
        yield checker
    finally:
        checker.detach()


@contextmanager
def snapshot_isolation(
    engine: Any, strict: bool = True
) -> Iterator[SnapshotIsolationChecker]:
    checker = SnapshotIsolationChecker(strict=strict).attach(engine)
    try:
        yield checker
    finally:
        checker.detach()
