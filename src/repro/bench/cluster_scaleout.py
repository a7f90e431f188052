"""Elastic scale-out bench: fixed HTAP work on 4 -> 16 -> 64 nodes.

Each *arm* builds a fresh distributed-replica engine with N storage
nodes and N Raft shards, loads TPC-C, and drives the **same fixed
operation count** through the FrontDoor/session tier: TPC-C
transactions (the key-skewed write mix) on the OLTP sessions and
parameterized CH-flavored statements on the OLAP sessions.  Throughput
is makespan-based — committed transactions divided by the busiest *row
node's* BusyLedger time — so scaling efficiency at N nodes vs the
4-node base is

    efficiency(N) = (tp_N / tp_base) / (N / base)

and near-linear scale-out means efficiency stays close to 1.0 as the
same work spreads over more shard leaders.

Placement-driven co-location is on by default: customer rows co-locate
with their history appends (group "cust") and orders with their lines
(group "order"), so the dominant mix commits on the single-shard 1PC
fast path; each arm reports its ``single_shard_fraction``.

Strong scaling (fixed work over more nodes) under-reports the large
arms: 64 shards sharing a fixed transaction count measure workload
discretization, not the architecture.  The *weak-scaling* arms scale
work proportionally to nodes (work per node constant); their
efficiency is tp_N / tp_base directly.

A separate *split arm* proves elasticity is safe, not just fast: keyed
audit writes flow through the front door's router while a
:class:`~repro.distributed.resharding.ShardSplit` runs one phase per
scheduling round, CH reads keep executing mid-split, and afterwards
every acknowledged write must be present exactly once (zero lost, zero
duplicated) on both the row path and the re-homed columnar replica —
with the 1PC and piggybacked commit paths live throughout.

Deterministic, simulated-time only (HTL001):
``benchmarks/test_perf_cluster.py`` owns the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common import Column, DataType, Schema
from ..common.rng import make_rng
from ..distributed.cluster import WriteKind, WriteOp
from ..distributed.metadata import RING_SIZE
from ..distributed.partitioner import placement_point
from ..distributed.resharding import ShardSplit
from ..engines.distributed_replica import DistributedReplicaEngine
from ..scheduler.workload_driven import WorkloadDrivenScheduler
from ..session import AdmissionPolicy, FrontDoor, FrontDoorConfig
from .frontdoor import PREPARED_STATEMENTS
from .tpcc import TpccLoader, TpccScale

#: Weight-expanded CH statement draw table (same shapes the front-door
#: bench executes; one randrange picks a statement).
CH_DRAWS = [
    (sql, make_params)
    for _name, weight, sql, make_params in PREPARED_STATEMENTS
    for _ in range(weight)
]


class SkewedWriteMix:
    """TPC-C-style key-skewed write transactions, payment-dominant.

    70% single-row balance updates, 20% payment (customer update +
    history insert), 10% order entry (order + two order lines) — hot
    customers drawn nurand-style.  With the placement policy on, every
    shape is a placement-group transaction (a customer's history lands
    with the customer, an order's lines with the order), so the whole
    mix rides the single-shard 1PC fast path — exactly how TPC-C keeps
    a warehouse's traffic local in real systems.  With placement off,
    the hash ring scatters the 2-3 row shapes across shards and the
    cross-shard commit round shows up instead.
    """

    def __init__(self, cluster, router, scale: TpccScale, seed: int):
        self.cluster = cluster
        self.router = router
        self.scale = scale
        self.rng = make_rng(seed ^ 0xA111)
        # Fresh key ranges, disjoint from the loader's.
        self._history_id = 1_000_000
        self._order_id = 1_000_000
        self.committed = 0

    def _hot(self, n: int) -> int:
        """75% of draws hit the top quarter of the key space."""
        if self.rng.random() < 0.75:
            return self.rng.randrange(1, max(2, n // 4 + 1))
        return self.rng.randrange(1, n + 1)

    def _pick_customer(self) -> tuple[int, int, int]:
        d = self.rng.randrange(1, self.scale.districts + 1)
        return 1, d, self._hot(self.scale.customers)

    def _commit(self, writes: list[WriteOp]) -> None:
        self.cluster.execute_transaction(writes, router=self.router)
        self.committed += 1

    def run_one(self) -> None:
        draw = self.rng.random()
        if draw < 0.70:
            self.txn_balance()
        elif draw < 0.90:
            self.txn_payment()
        else:
            self.txn_order_entry()

    def txn_balance(self) -> None:
        """Single-row hot-customer balance update (1 shard)."""
        key = self._pick_customer()
        amount = round(self.rng.uniform(1.0, 5000.0), 2)
        row = self.cluster.read("customer", key, router=self.router)
        updated = (*row[:7], row[7] - amount, *row[8:])
        self._commit([WriteOp(WriteKind.UPDATE, "customer", key, updated)])

    def txn_payment(self) -> None:
        """Customer debit + history append (1 shard with placement on,
        else <= 2)."""
        key = self._pick_customer()
        amount = round(self.rng.uniform(1.0, 5000.0), 2)
        row = self.cluster.read("customer", key, router=self.router)
        updated = (
            *row[:7],
            row[7] - amount,
            row[8] + amount,
            row[9] + 1,
            *row[10:],
        )
        self._history_id += 1
        history = (self._history_id, *key, self._history_id, amount)
        self._commit([
            WriteOp(WriteKind.UPDATE, "customer", key, updated),
            WriteOp(
                WriteKind.INSERT,
                "history",
                (*key, self._history_id),
                history,
            ),
        ])

    def txn_order_entry(self) -> None:
        """Order header + two lines (1 shard with placement on,
        else <= 3)."""
        w, d, c = self._pick_customer()
        self._order_id += 1
        o_id = self._order_id
        order = (w, d, o_id, c, o_id, None, 2, 1)
        writes = [WriteOp(WriteKind.INSERT, "orders", (w, d, o_id), order)]
        for number in (1, 2):
            item = self._hot(self.scale.items)
            line = (w, d, o_id, number, item, w, None, 5, 99.5)
            writes.append(
                WriteOp(
                    WriteKind.INSERT, "order_line", (w, d, o_id, number), line
                )
            )
        self._commit(writes)


@dataclass(frozen=True)
class ClusterScaleoutConfig:
    """Scale knobs; the fixed work totals are identical across arms."""

    node_counts: tuple[int, ...] = (4, 16, 64)
    n_sessions: int = 24
    #: Every ``olap_every``-th session is an OLAP client.
    olap_every: int = 3
    #: Fixed total TPC-C transactions per arm.  Sized so the largest
    #: strong arm (64 shards) gets enough transactions per shard that
    #: sampling discretization, not the commit path, stops being the
    #: visible ceiling (the load-quantile boot boundaries already
    #: remove the fixed assignment imbalance).
    write_txns: int = 600
    #: Fixed total CH statement executions per arm.
    ch_reads: int = 150
    #: Per-4-nodes work unit for the weak-scaling arms (work ∝ nodes,
    #: so the largest arm runs ``weak_write_txns * nodes / base``
    #: transactions; kept smaller than ``write_txns`` to bound cost).
    weak_write_txns: int = 75
    #: Generous round budget: the bench measures the cluster, not the
    #: scheduler's slot split, so rounds should drain what they get.
    round_slot_us: float = 200_000.0
    total_slots: int = 8
    min_slots: int = 3
    #: Audit writes in the split arm (acknowledged-exactly-once check).
    split_writes: int = 90
    seed: int = 7
    #: Co-locate customer/history and orders/order_line placement
    #: groups (the co-location arm; off measures the raw hash ring).
    placement: bool = True
    #: Weak-scaling arms: work scales with nodes (work/node constant),
    #: so the large arms measure the architecture rather than workload
    #: discretization.  Run alongside the fixed-work strong arms.
    weak_scaling: bool = True
    #: Wider-than-default key space: the hot-key pool must comfortably
    #: exceed the largest shard count or popularity skew (not the
    #: architecture) caps the busiest leader's share.
    scale: TpccScale = field(
        default_factory=lambda: TpccScale(districts=8, customers=120)
    )


@dataclass
class ScaleoutArm:
    """One node-count measurement."""

    nodes: int
    shards: int
    committed: int
    aborted: int
    ch_reads: int
    tp_makespan_us: float        # busiest row node (the TP bottleneck)
    makespan_us: float           # busiest node overall (AP included)
    total_busy_us: float
    router: dict[str, float]
    #: Commit-path split: how the mix actually committed.
    single_shard: int = 0
    piggybacked: int = 0
    #: Work multiplier vs the base arm (1 for strong scaling).
    work_factor: int = 1

    @property
    def tp_per_sim_s(self) -> float:
        if self.tp_makespan_us <= 0:
            return 0.0
        return self.committed / (self.tp_makespan_us / 1e6)

    @property
    def single_shard_fraction(self) -> float:
        total = self.single_shard + self.piggybacked
        if total == 0:
            return 0.0
        return self.single_shard / total


@dataclass
class SplitCheck:
    """Mid-bench shard split: every acknowledged write, exactly once."""

    expected: int                # acknowledged audit writes
    present: int                 # distinct audit keys on the row path
    duplicates: int              # keys seen on more than one shard
    lost: int                    # acknowledged keys missing
    columnar_rows: int           # audit rows on the re-homed AP replica
    ch_reads_during_split: int
    rows_moved: int
    tail_writes: int
    stale_retries: float
    retries_exhausted: float
    epoch: int                   # epochs advanced by the split itself

    @property
    def exactly_once(self) -> bool:
        return self.lost == 0 and self.duplicates == 0


@dataclass
class ScaleoutResult:
    config: ClusterScaleoutConfig
    arms: list[ScaleoutArm]
    #: nodes -> throughput-scaling efficiency vs the smallest arm.
    efficiency: dict[int, float]
    split: SplitCheck
    #: Weak-scaling arms (work ∝ nodes) and their efficiency — the
    #: makespan ratio T_base/T_N (throughput ratio over node ratio).
    weak_arms: list[ScaleoutArm] = field(default_factory=list)
    weak_efficiency: dict[int, float] = field(default_factory=dict)


class ClusterScaleoutDriver:
    """Runs every arm plus the mid-bench split, returns the result."""

    def __init__(self, config: ClusterScaleoutConfig | None = None):
        self.config = config or ClusterScaleoutConfig()

    # ------------------------------------------------------------- plumbing

    def _build(
        self, n_nodes: int, audit: bool = False
    ) -> tuple[DistributedReplicaEngine, FrontDoor]:
        cfg = self.config
        engine = DistributedReplicaEngine(
            n_storage_nodes=n_nodes,
            n_regions=n_nodes,      # one shard leader per row node
            seed=cfg.seed,
        )
        if cfg.placement:
            # DDL-time co-location: a customer's history rides with the
            # customer row, an order's lines with the order header.
            engine.declare_placement("customer", "cust", 3)
            engine.declare_placement("history", "cust", 3)
            engine.declare_placement("orders", "order", 3)
            engine.declare_placement("order_line", "order", 3)
            # Co-location concentrates each transaction on one placement
            # point, so equal ring spans leave a fixed busiest-shard
            # excess; cut the boot map at expected-load quantiles
            # instead (what a placement driver converges to online).
            engine.install_boundaries(self._load_sample())
        if audit:
            # DDL must precede the first commit (the TPC-C load).
            engine.create_table(
                Schema(
                    "audit",
                    [
                        Column("id", DataType.INT64),
                        Column("val", DataType.FLOAT64),
                    ],
                    ["id"],
                )
            )
        TpccLoader(cfg.scale, seed=cfg.seed).load(engine)
        engine.sync()
        frontdoor = FrontDoor(
            engine,
            WorkloadDrivenScheduler(
                total_slots=cfg.total_slots, min_slots=cfg.min_slots
            ),
            FrontDoorConfig(
                round_slot_us=cfg.round_slot_us,
                # Fixed work: nothing may be shed, only delayed.
                policy=AdmissionPolicy(
                    delay_depth_per_slot=10_000, shed_depth_per_slot=1_000_000
                ),
            ),
        )
        return engine, frontdoor

    def _load_sample(self) -> list[int]:
        """Expected-load placement-point sample for boundary quantiles.

        Mirrors :class:`SkewedWriteMix`: hot customers (the top quarter,
        nurand-style 75/25) draw 13x the cold ones — per draw, a hot
        pair gets ``0.75 / (D*C/4) + 0.25 / (D*C)`` vs a cold pair's
        ``0.25 / (D*C)``.  Order entries use fresh ids that hash
        uniformly, so their ~10% traffic share enters as an even stripe
        across the whole ring.
        """
        s = self.config.scale
        hot = max(1, s.customers // 4)
        pts: list[int] = []
        for d in range(1, s.districts + 1):
            for c in range(1, s.customers + 1):
                weight = 13 if c <= hot else 1
                pts.extend([placement_point("cust", (1, d, c))] * weight)
        n_uniform = max(1, len(pts) // 9)
        pts.extend((i * RING_SIZE) // n_uniform for i in range(n_uniform))
        return pts

    @staticmethod
    def _sessions(frontdoor: FrontDoor, cfg: ClusterScaleoutConfig):
        sessions = [
            frontdoor.open_session(
                "olap" if i % cfg.olap_every == 0 else "oltp"
            )
            for i in range(cfg.n_sessions)
        ]
        oltp = [s for s in sessions if s.workload_class == "oltp"]
        olap = [s for s in sessions if s.workload_class == "olap"]
        return oltp, olap

    @staticmethod
    def _tp_makespan(engine: DistributedReplicaEngine) -> float:
        busy = engine.ledger.snapshot()
        return max(
            (t for node, t in busy.items() if node.startswith("n")),
            default=0.0,
        )

    # ------------------------------------------------------------- one arm

    def run_arm(
        self,
        n_nodes: int,
        work_factor: int = 1,
        base_writes: int | None = None,
        base_reads: int | None = None,
    ) -> ScaleoutArm:
        """One measurement: fixed work (strong scaling) when
        ``work_factor`` is 1, work ∝ nodes (weak scaling) otherwise;
        ``base_writes``/``base_reads`` override the per-unit work."""
        cfg = self.config
        engine, frontdoor = self._build(n_nodes)
        cluster = engine.cluster
        workload = SkewedWriteMix(
            cluster, frontdoor.router, cfg.scale, seed=cfg.seed
        )
        oltp, olap = self._sessions(frontdoor, cfg)
        rng = make_rng(cfg.seed ^ 0xC105)

        # Loading/sync busy time is setup, not measured work.
        engine.ledger.reset()
        commits0, aborts0 = cluster.commits, cluster.aborts
        paths0 = (cluster.commits_single_shard, cluster.commits_piggybacked)

        writes_left = (
            base_writes if base_writes is not None else cfg.write_txns
        ) * work_factor
        reads_left = (
            base_reads if base_reads is not None else cfg.ch_reads
        ) * work_factor
        while writes_left or reads_left:
            for session in oltp:
                if writes_left:
                    session.submit(workload.run_one)
                    writes_left -= 1
            for session in olap:
                if reads_left:
                    sql, make_params = CH_DRAWS[rng.randrange(len(CH_DRAWS))]
                    session.submit_query(sql, make_params(rng, cfg.scale))
                    reads_left -= 1
            frontdoor.run_round()
        frontdoor.drain_all()

        return ScaleoutArm(
            nodes=n_nodes,
            shards=cluster.n_regions,
            committed=cluster.commits - commits0,
            aborted=cluster.aborts - aborts0,
            ch_reads=frontdoor.completed["olap"],
            tp_makespan_us=self._tp_makespan(engine),
            makespan_us=engine.ledger.makespan_us(),
            total_busy_us=engine.ledger.total_us(),
            router=dict(frontdoor.router.stats),
            single_shard=cluster.commits_single_shard - paths0[0],
            piggybacked=cluster.commits_piggybacked - paths0[1],
            work_factor=work_factor,
        )

    # ------------------------------------------------------------- split arm

    def run_split(self) -> SplitCheck:
        """Smallest arm again, with a shard split mid-traffic."""
        cfg = self.config
        engine, frontdoor = self._build(cfg.node_counts[0], audit=True)
        cluster = engine.cluster
        oltp, olap = self._sessions(frontdoor, cfg)
        rng = make_rng(cfg.seed ^ 0x5917)
        acked: list[int] = []
        next_id = 0

        def audit_write(i: int):
            # Through the front door's own router cache — the component
            # the split will make stale.
            def run():
                cluster.execute_transaction(
                    [WriteOp(WriteKind.INSERT, "audit", i, (i, float(i)))],
                    router=frontdoor.router,
                )
                acked.append(i)

            return run

        def submit_wave(n_writes: int, n_reads: int) -> None:
            nonlocal next_id
            for k in range(n_writes):
                oltp[k % len(oltp)].submit(audit_write(next_id))
                next_id += 1
            for k in range(n_reads):
                sql, make_params = CH_DRAWS[rng.randrange(len(CH_DRAWS))]
                olap[k % len(olap)].submit_query(
                    sql, make_params(rng, cfg.scale)
                )

        third = cfg.split_writes // 3
        # Boundary installation may already have consumed an epoch;
        # the check below is about the split's own transitions.
        epoch_before = cluster.metadata.epoch
        # Phase 1: steady state before the split.
        submit_wave(third, 4)
        frontdoor.drain_all()

        # Phase 2: split the shard owning audit key 0, one resharding
        # phase per scheduling round, traffic never pausing.
        split = ShardSplit(cluster, cluster.region_of("audit", 0))
        reads_before_split = frontdoor.completed["olap"]
        while not split.done:
            split.step()
            submit_wave(max(1, third // 4), 2)
            frontdoor.run_round()
        ch_during = frontdoor.completed["olap"] - reads_before_split

        # Phase 3: the rest of the fixed work on the post-split map.
        submit_wave(cfg.split_writes - next_id, 4)
        frontdoor.drain_all()

        # Every acknowledged write: present exactly once, both tiers.
        rows = cluster.row_scan("audit")
        ids = [r[0] for r in rows]
        present = set(ids)
        engine.force_sync()
        columnar = len(cluster.analytic_scan("audit", ["id"]))
        return SplitCheck(
            expected=len(acked),
            present=len(present),
            duplicates=len(ids) - len(present),
            lost=len(set(acked) - present),
            columnar_rows=columnar,
            ch_reads_during_split=ch_during,
            rows_moved=split.rows_moved,
            tail_writes=split.tail_writes,
            stale_retries=frontdoor.router.stats["stale_retries"]
            + cluster.router.stats["stale_retries"],
            retries_exhausted=frontdoor.router.stats["retries_exhausted"]
            + cluster.router.stats["retries_exhausted"],
            epoch=cluster.metadata.epoch - epoch_before,
        )

    # ------------------------------------------------------------- all arms

    def run(self, on_arm=None) -> ScaleoutResult:
        arms = []
        for n_nodes in self.config.node_counts:
            arms.append(self.run_arm(n_nodes))
            if on_arm is not None:
                on_arm(arms[-1])
        base = arms[0]
        efficiency = {
            arm.nodes: (
                (arm.tp_per_sim_s / base.tp_per_sim_s)
                / (arm.nodes / base.nodes)
                if base.tp_per_sim_s > 0
                else 0.0
            )
            for arm in arms
        }
        weak_arms: list[ScaleoutArm] = []
        weak_efficiency: dict[int, float] = {}
        if self.config.weak_scaling:
            cfg = self.config
            base_nodes = cfg.node_counts[0]
            weak_reads = max(
                1, cfg.weak_write_txns * cfg.ch_reads // cfg.write_txns
            )
            for n_nodes in cfg.node_counts:
                factor = max(1, n_nodes // base_nodes)
                weak_arms.append(
                    self.run_arm(
                        n_nodes,
                        work_factor=factor,
                        base_writes=cfg.weak_write_txns,
                        base_reads=weak_reads,
                    )
                )
                if on_arm is not None:
                    on_arm(weak_arms[-1])
            weak_base = weak_arms[0]
            # Work/node is constant, so ideal throughput grows with the
            # node ratio; efficiency is the makespan ratio T_base/T_N.
            weak_efficiency = {
                arm.nodes: (
                    (arm.tp_per_sim_s / weak_base.tp_per_sim_s)
                    / (arm.nodes / weak_base.nodes)
                    if weak_base.tp_per_sim_s > 0
                    else 0.0
                )
                for arm in weak_arms
            }
        split = self.run_split()
        if on_arm is not None:
            on_arm(split)
        return ScaleoutResult(
            config=self.config,
            arms=arms,
            efficiency=efficiency,
            split=split,
            weak_arms=weak_arms,
            weak_efficiency=weak_efficiency,
        )
