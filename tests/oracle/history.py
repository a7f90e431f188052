"""An Adya-style checker for client-observed transaction histories.

Every write puts a value no other write uses, so each read names the
transaction whose write it saw.  A history is the list of
:class:`TxnRecord` s in the order their sessions began; each record
holds its external reads (``key -> value seen``, the first read of a
key before the transaction wrote it), its writes in staged order, and
whether, and in which position, it committed.  Committed writers of a
key are ordered by commit position: every engine under test installs
a transaction's writes when its commit returns, so that order is the
version order — except that the writer of the value each key holds
after the history (``final``, read back once every session is done)
is its last version, whatever the commit order says.

:func:`anomalies` reports, over committed transactions only:

* **G0** — a cycle of write-write edges;
* **G1a** — a read of a value written by a transaction that aborted;
* **G1b** — a read of a value its writer later overwrote in the same
  transaction (an intermediate version);
* **G1c** — a cycle of write-write and write-read edges, reported when
  the write-write edges alone have none (that would be G0);
* **lost update** — two transactions read the same version of a key
  and both wrote the key.

Anti-dependency cycles (write skew, G2) are permitted: the contract is
snapshot isolation, not serializability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

#: The pseudo-transaction that wrote every value present before the
#: history began.
INITIAL = "init"


@dataclass
class TxnRecord:
    name: Hashable
    reads: dict[Hashable, Any] = field(default_factory=dict)
    writes: list[tuple[Hashable, Any]] = field(default_factory=list)
    #: Position in the commit order; None if refused or rolled back.
    committed_at: int | None = None

    def read(self, key: Hashable, value: Any) -> None:
        """Record a read; only the first read of a key this transaction
        has not written is an external read."""
        if key in self.reads or any(k == key for k, _ in self.writes):
            return
        self.reads[key] = value

    def write(self, key: Hashable, value: Any) -> None:
        self.writes.append((key, value))


@dataclass(frozen=True)
class Anomaly:
    kind: str
    detail: str


def anomalies(
    history: list[TxnRecord],
    initial: dict[Hashable, Any],
    final: dict[Hashable, Any] | None = None,
) -> list[Anomaly]:
    """Every G0 / G1a / G1b / G1c / lost-update instance in ``history``;
    ``initial`` maps each key to the value it held before, ``final`` to
    the value it held after."""
    found: list[Anomaly] = []
    writer: dict[Any, tuple[Hashable, bool]] = {}  # value -> (txn, final?)
    for value in initial.values():
        writer[value] = (INITIAL, True)
    for txn in history:
        last = {key: value for key, value in txn.writes}
        for key, value in txn.writes:
            if value in writer:
                raise ValueError(f"value {value!r} written twice; values must be unique")
            writer[value] = (txn.name, last[key] == value)
    committed = [t for t in history if t.committed_at is not None]
    names = {t.name for t in committed} | {INITIAL}

    # Version order per key: the initial value, then committed writers
    # in commit order, then the writer of the final value.
    versions: dict[Hashable, list[Hashable]] = {key: [INITIAL] for key in initial}
    for txn in sorted(committed, key=lambda t: t.committed_at):
        for key in dict(txn.writes):
            versions.setdefault(key, [INITIAL]).append(txn.name)
    for key, value in (final or {}).items():
        last, _ = writer.get(value, (None, True))
        chain = versions.setdefault(key, [INITIAL])
        if last not in chain:
            found.append(Anomaly("G1a", f"{key} ended at {value!r}, which no committed transaction wrote"))
        elif chain[-1] != last:
            chain.remove(last)
            chain.append(last)

    ww: set[tuple[Hashable, Hashable]] = set()
    for chain in versions.values():
        ww.update(zip(chain, chain[1:]))
    wr: set[tuple[Hashable, Hashable]] = set()
    for txn in committed:
        for key, value in txn.reads.items():
            source, final = writer.get(value, (None, True))
            if source is None:
                found.append(Anomaly("G1a", f"{txn.name} read {key}={value!r}, which no transaction wrote"))
            elif source not in names:
                found.append(Anomaly("G1a", f"{txn.name} read {key}={value!r} from aborted {source}"))
            elif not final:
                found.append(Anomaly("G1b", f"{txn.name} read {key}={value!r}, an intermediate write of {source}"))
            if source in names and source != txn.name:
                wr.add((source, txn.name))

    cycle = _cycle(ww)
    if cycle:
        found.append(Anomaly("G0", "write cycle " + " -> ".join(map(str, cycle))))
    cycle = _cycle(ww | wr)
    if cycle and not _cycle(ww):
        found.append(Anomaly("G1c", "information cycle " + " -> ".join(map(str, cycle))))

    seen: dict[tuple[Hashable, Any], Hashable] = {}
    for txn in committed:
        written = dict(txn.writes)
        for key, value in txn.reads.items():
            if key not in written:
                continue
            other = seen.setdefault((key, value), txn.name)
            if other != txn.name:
                found.append(
                    Anomaly(
                        "lost update",
                        f"{other} and {txn.name} both read {key}={value!r} and both wrote {key}",
                    )
                )
    return found


def _cycle(edges: set[tuple[Hashable, Hashable]]) -> list[Hashable] | None:
    """One cycle of the directed graph ``edges`` (closed: first node
    repeated last), or None."""
    graph: dict[Hashable, list[Hashable]] = {}
    for src, dst in sorted(edges, key=repr):
        graph.setdefault(src, []).append(dst)
    state: dict[Hashable, int] = {}  # 1 on the stack, 2 done
    stack: list[Hashable] = []

    def visit(node: Hashable) -> list[Hashable] | None:
        state[node] = 1
        stack.append(node)
        for nxt in graph.get(node, ()):
            if state.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph, key=repr):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None
