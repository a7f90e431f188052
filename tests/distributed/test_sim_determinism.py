"""The simulator's determinism contract, pinned to constants.

One fixed scenario crosses every path of the Raft/network kernel —
single- and multi-shard commits, a ``sync()``, a leader crash and
restart, one online split — and is reduced to a digest of the simulated
clock, the message and Raft counters, and every replica's
``(current_term, commit_index, len(log))``.  The digest is a recorded
constant: a change to the kernel that claims "same simulation, faster"
must leave it alone, and one that changes the simulated traffic must
re-record it and say which components moved.

A second constant pins the same scenario event by event: every delivery
(instant, endpoints, message type and fields by name), the busy ledger,
the learner's applied timestamp, every replica's role, vote, believed
leader and timer deadline, and the link-latency and replication-lag
summaries.  Fields are read by name, so swapping the message classes'
implementation moves nothing; delivering one message at another instant,
in another order, or with another field value moves the digest.
"""

import hashlib

from repro.common import Column, DataType, Schema
from repro.distributed import DistributedCluster, ShardSplit, WriteKind, WriteOp
from repro.obs import MetricsRegistry, get_registry, set_registry

#: Re-recorded once, when quiescent groups began to hibernate.  The
#: polled kernel and the timer-heap kernel both gave
#: 196ec7bbfd278720d0abb5fe711d729a; against it every replica's commit
#: index and log length are unchanged, and what moved is what idle
#: heartbeats and the never-ending drain caused: ``now_us`` 302140.2 ->
#: 204442.2 (two ``sync()`` calls no longer burn 50 ms each),
#: ``network`` (15805, 15410, 380) -> (3352, 3202, 147),
#: ``raft.heartbeats`` 2694 -> 577, and — the followers' election
#: deadlines now come from different RNG draws — one more election
#: after the crashed leader restarts (``raft.elections`` 9 -> 10, shard
#: 1's term 3 -> 4).
#:
#: Re-recorded again (f94fbd447152537e0fca8b5db32b71f7 before) when
#: multi-shard Raft work went out in parallel, the drain began asking
#: the learners, and a preferred replica's short election timeout began
#: to apply to its first election only.  Every replica's commit index
#: and log length are unchanged.  What moved: ``now_us`` 204442.2 ->
#: 124242.2 — the intent rounds and settles take one round for all
#: their shards (-30 400 µs), the split's flip no longer burns the
#: drain's 50 000 µs on a leader that never hibernates, and the boot's
#: elections no longer fail and retry; ``network`` (3352, 3202, 147) ->
#: (2291, 2130, 146) and ``raft.heartbeats`` 577 -> 402 with the
#: shorter run; ``raft.elections`` stays 10, but the boot holds 4 of
#: them, not 6 (shard 2's term 3 -> 1), and the crashed leader's
#: restart two more.
#:
#: Re-recorded a third time (8f2976dda2de37427dcdcc0e4a95673b before)
#: when a multi-shard commit began to propose each shard's "resolve" at
#: its decision instead of queueing it for the next operation to
#: flush.  Every replica's term, commit index and log length are
#: unchanged (one log entry per resolve either way), and so is
#: ``raft.elections`` (10).  What moved: ``now_us`` 124242.1975 ->
#: 103442.1975 — the next operation waits out what is left of the
#: resolve's replication round instead of paying a round trip to the
#: leaders plus a whole round (-20 800 µs); ``network`` (2291, 2130,
#: 146) -> (2141, 2028, 107) and ``raft.heartbeats`` 402 -> 369 with
#: the shorter run and the resolves riding the commit's own traffic.
#:
#: Re-recorded a fourth time (8da8bf6272c1ba4c092a82e31e3d6a79 before)
#: when a shard's in-flight resolves began to ride its next intent round
#: and reads began to go through decided intents.  Only ``now_us`` moved:
#: 103442.1975 -> 103142.1975 (-300 µs, a multi-shard commit no longer
#: waits out its shards' earlier resolve before proposing its intents).
#: ``network`` (2141, 2028, 107), ``raft.heartbeats`` 369,
#: ``raft.elections`` 10, and every replica's term, commit index and log
#: length are unchanged.
#:
#: Re-recorded a fifth time (0f0d5f0915a411dc2e2a596b96ee1159 before)
#: when the learner's ingest moved to its own node's clock and sealed
#: files began to ship in the background: a delivery that hands the
#: learner a batch no longer moves the shared clock by its WAL appends,
#: nor jumps it by a seal's page writes plus 2 000 µs of shipping, which
#: had tripped the suspend guard and re-armed every timer mid-election.  After the crash, shard 1 elects
#: its new leader in one election, not five: ``raft.elections`` 10 -> 6
#: and shard 1's term 4 -> 2 on every replica; every commit index and
#: log length is unchanged.  ``now_us`` 103142.1975 -> 99042.1975
#: (-4 100 µs, the inserts after the crash wait less for a leader);
#: ``network`` (2141, 2028, 107) -> (2051, 1984, 67) and
#: ``raft.heartbeats`` 369 -> 349 with the shorter election.
EXPECTED_DIGEST = "69a77d8c490fe4b35995d3614a3f3729"

#: Recorded on the frozen-dataclass messages and the list-scanning
#: ``RaftGroup.leader``; re-recorded (9bf75c82ea76ef415cc7289620d54a79
#: before) with ``EXPECTED_DIGEST``, for the same changes — every
#: delivery instant after the first multi-shard commit moves.
#: Re-recorded again (7350593ef3351735a0147dce7419c4c5 before) with
#: ``EXPECTED_DIGEST``'s third re-recording, for the same change: every
#: delivery instant after the first multi-shard commit moves.  The busy
#: ledger does not (every flushed batch here held one resolve).
#: Re-recorded a third time (26a627fdaf7dcfed0d9464dfb344c800 before)
#: with ``EXPECTED_DIGEST``'s fourth re-recording, for the same change:
#: delivery instants move from the first multi-shard commit that finds
#: one of its shards' resolves still in flight.
#: Re-recorded a fourth time (cb856852ca4aba4c9c6d8335dec6d161 before)
#: with ``EXPECTED_DIGEST``'s fifth re-recording, for the same change:
#: delivery instants move from the first learner apply (2 µs of WAL
#: append per entry leave the shared clock).
#: Re-recorded a fifth time (b500a5576c052c864ded87e7f8ad7328 before)
#: when an ``"intent"`` began to carry its transaction's read ts: only
#: the replicated entries' contents moved.  With each intent cut back
#: to its old four fields the scenario gives the old digest, so every
#: delivery instant, the ledger, the roles and the summaries are
#: unchanged, and ``EXPECTED_DIGEST`` holds.
EXPECTED_TRACE_DIGEST = "d9e6f62258c69f7b77722baffc7f89c1"


def build_cluster(seed: int) -> DistributedCluster:
    cluster = DistributedCluster(n_storage_nodes=4, seed=seed)
    cluster.create_table(
        Schema(
            "acct",
            [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
            ["id"],
        )
    )
    return cluster


def drive(cluster: DistributedCluster) -> None:
    """The fixed scenario: commits, a sync, a leader crash and restart,
    a split under traffic, a final sync."""

    def insert(*ids: int) -> None:
        cluster.execute_transaction(
            [WriteOp(WriteKind.INSERT, "acct", i, (i, float(i))) for i in ids]
        )

    nxt = 0
    for step in range(24):
        width = 1 if step % 3 else 3  # every third txn spans shards
        insert(*range(nxt, nxt + width))
        nxt += width
    cluster.sync()

    leader = cluster._groups[1].elect_leader()
    cluster.network.crash(leader.node_id)
    cluster.advance(30_000)
    for step in range(8):
        width = 1 if step % 2 else 2
        insert(*range(nxt, nxt + width))
        nxt += width
    cluster.network.restart(leader.node_id)
    cluster.advance(10_000)

    split = ShardSplit(cluster, 0)
    while not split.done:
        split.step()
        insert(nxt)
        nxt += 1
    for step in range(4):
        insert(nxt, nxt + 1)
        nxt += 2
    cluster.sync()

    assert sorted(r[0] for r in cluster.row_scan("acct")) == list(range(nxt))


def run_scenario(seed: int = 31) -> dict:
    """Drive the fixed scenario; returns the digest's components."""
    registry = get_registry()
    heartbeats = registry.counter("raft.heartbeats")
    elections = registry.counter("raft.elections")
    hb0, el0 = heartbeats.value, elections.value

    cluster = build_cluster(seed)
    drive(cluster)
    net = cluster.network
    return {
        "now_us": repr(cluster.cost.now_us()),
        "network": (net.sent, net.delivered, net.dropped),
        "raft.heartbeats": heartbeats.value - hb0,
        "raft.elections": elections.value - el0,
        "nodes": sorted(
            (node_id, node.current_term, node.commit_index, len(node.log))
            for group in cluster._groups
            for node_id, node in group.nodes.items()
        ),
    }


def digest_of(components: dict) -> str:
    return hashlib.blake2b(
        repr(sorted(components.items())).encode(), digest_size=16
    ).hexdigest()


def fields_of(message) -> tuple:
    """``(name, value)`` per field, for a dataclass or a NamedTuple."""
    return tuple((name, getattr(message, name)) for name in type(message).__match_args__)


def record_deliveries(cluster: DistributedCluster, trace) -> None:
    """Feed every delivery into ``trace`` (a hash), for the replicas
    registered from now on — the split's new shard included."""
    net = cluster.network
    register = net.register

    def recording_register(node_id, handler):
        def recording(src, message):
            event = (
                repr(cluster.cost.now_us()), src, node_id,
                type(message).__name__, fields_of(message),
            )
            trace.update(repr(event).encode())
            handler(src, message)

        register(node_id, recording)

    net.register = recording_register


def trace_digest(seed: int = 31) -> str:
    """The scenario pinned event by event, on a registry of its own so
    the summaries cover this run only."""
    trace = hashlib.blake2b(digest_size=16)
    previous = set_registry(MetricsRegistry())
    try:
        cluster = build_cluster(seed)
        record_deliveries(cluster, trace)
        drive(cluster)
        histograms = get_registry().snapshot()["histograms"]
        tail = {
            "ledger": sorted(cluster.ledger.snapshot().items()),
            "applied_ts": cluster.columnar.applied_ts,
            "replicas": sorted(
                (node_id, node.role.value, node.voted_for, node.leader_id,
                 repr(node.timer_due_us))
                for group in cluster._groups
                for node_id, node in group.nodes.items()
            ),
            "summaries": sorted(
                (name, sorted(summary.items()))
                for name, summary in histograms.items()
                if name.startswith(("network.latency_us", "raft.replication_lag"))
            ),
        }
        trace.update(repr(sorted(tail.items())).encode())
    finally:
        set_registry(previous)
    return trace.hexdigest()


def test_two_runs_of_one_seed_agree():
    assert run_scenario() == run_scenario()


def test_digest_matches_the_recorded_constant():
    components = run_scenario()
    assert digest_of(components) == EXPECTED_DIGEST, components


def test_trace_repeats_within_a_process():
    assert trace_digest() == trace_digest()


def test_trace_digest_matches_the_recorded_constant():
    assert trace_digest() == EXPECTED_TRACE_DIGEST
