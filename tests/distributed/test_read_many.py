"""One round trip per batch: ``DistributedCluster.read_many``, the
session's ``prefetch`` over it, and the parallel Raft fan-out.

``read_many`` must answer exactly what one ``read`` per key answers —
present and absent keys, several tables, stale routes, in-flight resolves
read through their decided intents or, on a deposed leader, waited for
— while charging one round trip plus the slowest shard's reads, and
booking each leader's own reads to it.  The fan-out must commit every
group's proposal, re-propose on a dead leader, and take one replication
round for many groups.
"""

import pytest

from repro.common import Column, ConsensusError, CostModel, DataType, Schema
from repro.distributed import (
    DistributedCluster,
    RaftGroup,
    ShardSplit,
    SimNetwork,
    WriteKind,
    WriteOp,
)
from repro.distributed.raft import await_commit
from repro.engines import make_engine
from . import depose_leader

SCHEMAS = [
    Schema(
        name,
        [Column("id", DataType.INT64), Column("bal", DataType.FLOAT64)],
        ["id"],
    )
    for name in ("acct", "memo")
]


def make_cluster():
    cluster = DistributedCluster(n_storage_nodes=4, n_regions=4, seed=5)
    for schema in SCHEMAS:
        cluster.create_table(schema)
    for i in range(0, 24, 2):
        cluster.insert("acct", (i, float(i)))
        cluster.insert("memo", (i, -float(i)))
    return cluster


PAIRS = [(table, key) for table in ("acct", "memo") for key in range(12)]


def one_by_one(cluster, pairs):
    return {pair: cluster.read(*pair) for pair in pairs}


class TestReadMany:
    def test_answers_what_point_reads_answer(self):
        cluster = make_cluster()
        batch = cluster.read_many(PAIRS + PAIRS[:5])  # duplicates too
        assert batch == one_by_one(cluster, PAIRS)
        assert batch[("acct", 4)] == (4, 4.0) and batch[("memo", 5)] is None
        assert cluster.read_many([]) == {}

    def test_one_round_trip_plus_the_slowest_shards_reads(self):
        cluster = make_cluster()
        cluster.settle_all()
        cluster.advance(5_000)  # let the groups go quiet
        by_shard = {}
        for table, key in PAIRS:
            sid = cluster.region_of(table, key)
            by_shard[sid] = by_shard.get(sid, 0) + 1
        cost = cluster.cost
        busy = cluster.ledger.snapshot()
        start = cost.now_us()
        cluster.read_many(PAIRS)
        assert cost.now_us() - start == cost.network_rtt_us + max(by_shard.values())
        # Each leader's own reads are booked to it, and nothing else.
        want = {}
        for sid, n_keys in by_shard.items():
            node = cluster._phys_node_of_leader(sid)
            want[node] = want.get(node, 0.0) + n_keys * cost.row_point_read_us
        booked = {
            node: cluster.ledger.busy(node) - busy.get(node, 0.0)
            for node in cluster.ledger.nodes()
        }
        assert {node: us for node, us in booked.items() if us} == want

    def test_reads_decided_intents_without_waiting(self):
        """Right after a 3-shard commit, with its resolves in flight, a
        batch of its keys answers the decided rows for one round trip
        plus the slowest shard's reads, and the network does not run."""
        cluster = make_cluster()
        keys = one_key_per_shard(cluster, 3)
        cluster.execute_transaction(
            [WriteOp(WriteKind.UPDATE, "acct", k, (k, 7.0)) for k in keys]
        )
        assert sorted(cluster._resolving) == sorted(
            cluster.region_of("acct", k) for k in keys
        )
        advances = []
        advance = cluster.network.advance

        def counted(delta_us):
            advances.append(delta_us)
            return advance(delta_us)

        cluster.network.advance = counted
        cost = cluster.cost
        start = cost.now_us()
        got = cluster.read_many([("acct", k) for k in keys])
        assert got == {("acct", k): (k, 7.0) for k in keys}
        assert cost.now_us() - start == cost.network_rtt_us + cost.row_point_read_us
        assert advances == []

    def test_settles_the_touched_shards_only(self):
        """Resolves in flight on live leaders are read through and left
        in flight; a touched shard whose resolve sits on a deposed
        leader is settled, and no other shard is."""
        cluster = make_cluster()
        keys = range(100, 108)
        cluster.execute_transaction(inserts(keys))
        pending = set(cluster._resolving)
        assert len(pending) >= 2
        batch = [("acct", k) for k in keys]
        assert cluster.read_many(batch) == {pair: (pair[1], 1.0) for pair in batch}
        assert set(cluster._resolving) == pending
        touched = min(pending)
        depose_leader(cluster, touched)
        key = next(k for k in keys if cluster.region_of("acct", k) == touched)
        assert cluster.read_many([("acct", key)]) == {("acct", key): (key, 1.0)}
        assert set(cluster._resolving) == pending - {touched}

    def test_a_stale_route_retries_and_answers(self):
        cluster = make_cluster()
        router = cluster.make_router("client")
        cluster.read_many(PAIRS, router=router)  # warm the router's map
        ShardSplit(cluster, 0).run()
        assert cluster.read_many(PAIRS, router=router) == one_by_one(cluster, PAIRS)
        assert router.stats["stale_retries"] >= 1


def inserts(keys):
    return [WriteOp(WriteKind.INSERT, "acct", k, (k, 1.0)) for k in keys]


def one_key_per_shard(cluster, n):
    """The first present ``acct`` key of each of ``n`` shards."""
    by_shard = {}
    for k in range(0, 24, 2):
        by_shard.setdefault(cluster.region_of("acct", k), k)
    return sorted(by_shard.values())[:n]


class TestSessionPrefetch:
    def _engine(self, cat):
        engine = make_engine(cat, **({"seed": 5} if cat == "b" else {}))
        for schema in SCHEMAS:
            engine.create_table(schema)
        with engine.session() as s:
            for i in range(0, 24, 2):
                s.insert("acct", (i, float(i)))
        return engine

    def test_prefetched_reads_cost_nothing_on_b(self):
        engine = self._engine("b")
        keys = [("acct", k) for k in range(16)]
        s = engine.session()
        start = engine.cost.now_us()
        s.prefetch(keys)
        fetched = engine.cost.now_us()
        assert fetched - start >= engine.cost.network_rtt_us
        assert [s.read(*p) for p in keys] == [
            (k, float(k)) if k % 2 == 0 else None for k in range(16)
        ]
        s.update("acct", (2, 9.0))  # staged against the read set, no trip
        assert engine.cost.now_us() == fetched
        assert s.read("acct", 2) == (2, 9.0)  # own writes win
        s.commit()
        with engine.session() as fresh:
            assert fresh.read("acct", 2) == (2, 9.0)

    @pytest.mark.parametrize("cat", ["a", "c", "d"])
    def test_prefetch_charges_nothing_elsewhere(self, cat):
        engine = self._engine(cat)
        s = engine.session()
        start, busy = engine.cost.now_us(), engine.ledger.snapshot()
        s.prefetch([("acct", k) for k in range(16)])
        assert engine.cost.now_us() == start
        assert engine.ledger.snapshot() == busy
        s.abort()


class TestFanOut:
    def test_many_shards_commit_in_about_one_round(self):
        cluster = make_cluster()
        cluster.settle_all()
        by_shard = {}
        for k in range(200, 260):
            by_shard.setdefault(cluster.region_of("acct", k), k)
        assert len(by_shard) == 4
        start = cluster.cost.now_us()
        cluster.execute_transaction(inserts([by_shard[0]]))
        single = cluster.cost.now_us() - start
        start = cluster.cost.now_us()
        cluster.execute_transaction(inserts([by_shard[s] for s in (1, 2, 3)]))
        three = cluster.cost.now_us() - start
        # One round trip for the whole intent round, not one per shard.
        assert three < single + cluster.cost.network_rtt_us
        assert sorted(cluster._resolving) == [1, 2, 3]
        start = cluster.cost.now_us()
        cluster.settle_all()  # three shards' commit rounds, already in flight
        # What is left of one replication round (leader to followers and
        # back), not one per shard, and no trip to the leaders first.
        assert cluster.cost.now_us() - start <= cluster.cost.network_rtt_us

    def _groups(self, n=3):
        cost = CostModel()
        net = SimNetwork(cost)
        groups = [
            RaftGroup(f"g{i}", [f"g{i}.a", f"g{i}.b", f"g{i}.c"], [], net, cost, seed=i)
            for i in range(n)
        ]
        for group in groups:
            group.elect_leader()
        return groups, net

    def test_a_dead_leader_is_proposed_around(self):
        groups, net = self._groups()
        proposals = [g.propose(("cmd", i)) for i, g in enumerate(groups)]
        dead = groups[1].leader()
        net.crash(dead.node_id)
        indices = await_commit(proposals)
        assert groups[1].leader() is not dead
        for group, index, i in zip(groups, indices, range(3)):
            leader = group.leader()
            assert leader.commit_index >= index
            assert leader.log[index].command == ("cmd", i)

    def test_one_budget_for_every_group(self):
        groups, net = self._groups()
        proposals = [g.propose(("cmd", i)) for i, g in enumerate(groups)]
        for node_id in ("g2.a", "g2.b", "g2.c"):
            if groups[2].nodes[node_id] is not groups[2].leader():
                net.crash(node_id)  # no quorum left in g2
        start = net._clock.now_us()
        with pytest.raises(ConsensusError, match="g2"):
            await_commit(proposals, max_us=20_000.0)
        assert net._clock.now_us() - start == pytest.approx(20_000.0)
