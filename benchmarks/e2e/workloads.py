"""The four workloads.  Each is a ``setup`` / ``run`` / ``check`` triple
over a :class:`harness.Recorder`; sizes come frozen from ``sizes.json``
and every input is generated from the seed.

Why these four (the reasons are also in BENCHMARK.json):

* ``ch_cluster`` crosses every layer and spends its wall time in the
  polled network/Raft simulator;
* ``point_frontdoor`` makes each statement so cheap that session,
  admission, plan cache, parser and optimizer carry the time;
* ``olap_suite`` is executor- and column-scan-bound, on three engines;
* ``oltp_sync`` drives the write side of the same storage and the
  merges, so a scan-side gain paid for by appends shows as a loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.bench import CH_QUERIES, PREPARED_STATEMENTS, TpccLoader, TpccScale, TpccWorkload
from repro.common.rng import make_rng
from repro.engines import make_engine
from repro.query.access import AccessPath
from repro.scheduler.workload_driven import WorkloadDrivenScheduler
from repro.session import AdmissionDecision, AdmissionPolicy, FrontDoor, FrontDoorConfig

from harness import Recorder

class Deck:
    """Draws from a shuffled deck, reshuffled when it runs out — how
    TPC-C (clause 5.2.4.2) holds a mix exactly instead of on average.
    The order still comes from the seed; what goes is the run-to-run
    wobble in *how many* NewOrders a few hundred draws contain, which
    would otherwise dominate ``sim_tpmc`` across seeds."""

    def __init__(self, cards: list, rng: Any):
        self._cards = cards
        self._rng = rng
        self._hand: list = []

    def draw(self) -> Any:
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


#: One card per percent of TpccWorkload.MIX.
TXN_CARDS = [name for name, share in TpccWorkload.MIX for _ in range(round(share * 100))]

#: Weight-expanded parameterized statements, one card per weight unit.
STATEMENT_CARDS = [
    (sql, make_params)
    for _name, weight, sql, make_params in PREPARED_STATEMENTS
    for _ in range(weight)
]

#: The cheap analytical statement ``oltp_sync`` issues before each sync:
#: the undelivered-order backlog.  It is the workload's freshness sample.
BACKLOG_PROBE = "SELECT COUNT(*) AS backlog FROM new_order"

_TOTALS = "SELECT COUNT(*) AS n, SUM(ol_amount) AS amount FROM order_line"


def _final_sync(engine: Any) -> None:
    engine.read_fresh = True
    if hasattr(engine, "force_sync"):
        engine.force_sync()
    else:
        engine.sync()


def check_engine(rec: Recorder, engine: Any, label: str) -> None:
    """TPC-C consistency on the row path, then column scan == row scan
    after a final sync."""
    _final_sync(engine)
    row = AccessPath.ROW_SCAN

    def rows(sql: str, path: AccessPath = row) -> list[tuple]:
        return engine.query(sql, force_path=path).rows

    next_o_id = {(w, d): n for w, d, n in rows("SELECT d_w_id, d_id, d_next_o_id FROM district")}
    orders = rows(
        "SELECT o_w_id, o_d_id, MAX(o_id) AS top, SUM(o_ol_cnt) AS lines "
        "FROM orders GROUP BY o_w_id, o_d_id"
    )
    lines = {
        (w, d): n
        for w, d, n in rows(
            "SELECT ol_w_id, ol_d_id, COUNT(*) AS n FROM order_line GROUP BY ol_w_id, ol_d_id"
        )
    }
    rec.expect(len(orders) == len(next_o_id), f"{label}: a district has no orders")
    for w, d, top, ol_cnt in orders:
        rec.expect(
            next_o_id.get((w, d)) == top + 1,
            f"{label}: district ({w},{d}) d_next_o_id {next_o_id.get((w, d))} "
            f"!= max(o_id)+1 {top + 1}",
        )
        rec.expect(
            lines.get((w, d)) == ol_cnt,
            f"{label}: district ({w},{d}) sum(o_ol_cnt) {ol_cnt} "
            f"!= order lines {lines.get((w, d))}",
        )
    (n_row, sum_row), = rows(_TOTALS)
    (n_col, sum_col), = rows(_TOTALS, AccessPath.COLUMN_SCAN)
    rec.expect(
        n_row == n_col and math.isclose(sum_row, sum_col, rel_tol=1e-9),
        f"{label}: column scan ({n_col}, {sum_col}) != row scan ({n_row}, {sum_row})",
    )


def _scale(sizes: dict) -> TpccScale:
    return TpccScale(**sizes["scale"])


def _load(engine: Any, scale: TpccScale, seed: int) -> None:
    TpccLoader(scale, seed=seed).load(engine)
    engine.sync()


def _order_count(engine: Any) -> int:
    counted = engine.query("SELECT COUNT(*) AS n FROM orders", force_path=AccessPath.ROW_SCAN)
    return counted.rows[0][0]


# ------------------------------------------------------------ front door


@dataclass
class _FrontDoorState:
    engine: Any
    frontdoor: FrontDoor
    tpcc: TpccWorkload
    oltp: list
    olap: list
    orders_before: int
    #: Per round: the transaction name of each OLTP session, then per
    #: OLAP session a CH query or a (statement, parameters) pair.
    schedule: list[tuple[list[str], list]]


class _FrontDoorWorkload:
    """Open loop on the simulated clock: every session submits one
    operation per scheduling round whatever the backlog."""

    name: str
    #: Share of OLAP submissions that are full CH queries (round-robin),
    #: in twentieths.
    ch_share = 0.0

    def make_engine(self, sizes: dict, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, rec: Recorder, seed: int, sizes: dict) -> _FrontDoorState:
        scale = _scale(sizes)
        engine = self.make_engine(sizes, seed)
        rec.use_engine(engine)
        _load(engine, scale, seed)
        frontdoor = FrontDoor(
            engine,
            WorkloadDrivenScheduler(
                total_slots=sizes["total_slots"], min_slots=sizes["min_slots"]
            ),
            FrontDoorConfig(
                round_slot_us=sizes["round_slot_us"],
                policy=AdmissionPolicy(
                    delay_depth_per_slot=sizes["delay_depth_per_slot"],
                    shed_depth_per_slot=sizes["shed_depth_per_slot"],
                ),
            ),
        )
        sessions = [
            frontdoor.open_session("oltp" if i % sizes["oltp_every"] == 0 else "olap")
            for i in range(sizes["sessions"])
        ]
        oltp = [s for s in sessions if s.workload_class == "oltp"]
        olap = [s for s in sessions if s.workload_class == "olap"]
        return _FrontDoorState(
            engine=engine,
            frontdoor=frontdoor,
            tpcc=TpccWorkload(engine, scale, seed=seed),
            oltp=oltp,
            olap=olap,
            orders_before=_order_count(engine),
            schedule=self._schedule(seed, sizes["rounds"], len(oltp), len(olap), scale),
        )

    def _schedule(self, seed: int, rounds: int, n_oltp: int, n_olap: int, scale: TpccScale):
        """Every input of the run, drawn from the seed before the
        measured region starts."""
        rng = make_rng(seed ^ 0x5E55)
        txns = Deck(TXN_CARDS, rng)
        statements = Deck(STATEMENT_CARDS, rng)
        ch_cards = round(self.ch_share * 20)
        kinds = Deck(["ch"] * ch_cards + ["prepared"] * (20 - ch_cards), rng)
        next_ch = 0
        schedule = []
        for _round in range(rounds):
            reads: list = []
            for _session in range(n_olap):
                if kinds.draw() == "ch":
                    reads.append(CH_QUERIES[next_ch % len(CH_QUERIES)])
                    next_ch += 1
                else:
                    sql, make_params = statements.draw()
                    reads.append((sql, make_params(rng, scale)))
            schedule.append(([txns.draw() for _ in range(n_oltp)], reads))
        return schedule

    def run(self, rec: Recorder, st: _FrontDoorState) -> None:
        engine = st.engine
        start_us = engine.cost.now_us()
        for txn_names, reads in st.schedule:
            for session, name in zip(st.oltp, txn_names):
                self._submit(rec, session, rec.op("txn", st.tpcc.run_named, name), "oltp")
            for session, read in zip(st.olap, reads):
                if isinstance(read, tuple):
                    sql, params = read
                    op = rec.op("query", session.prepare(sql).execute, params)
                else:
                    op = rec.op("query", engine.query, read.sql, query_id=read.query_id)
                self._submit(rec, session, op, "olap")
            st.frontdoor.run_round()
            rec.pulse()
        st.frontdoor.drain_all()
        rec.sim_span_us = engine.cost.now_us() - start_us
        rec.new_orders = st.tpcc.counters.new_order
        rec.aborted = st.tpcc.counters.aborts

    @staticmethod
    def _submit(rec: Recorder, session, op, kind: str) -> None:
        if session.submit(op, kind) is AdmissionDecision.SHED:
            rec.shed += 1

    def check(self, rec: Recorder, st: _FrontDoorState) -> None:
        rec.expect(
            not any(st.frontdoor.queues.values()), f"{self.name}: queues not drained"
        )
        check_engine(rec, st.engine, self.name)
        # Exactly-once: every committed NewOrder is one new orders row.
        grown = _order_count(st.engine) - st.orders_before
        rec.expect(
            grown == st.tpcc.counters.new_order,
            f"{self.name}: {st.tpcc.counters.new_order} NewOrders committed, "
            f"{grown} new orders rows",
        )


class ChCluster(_FrontDoorWorkload):
    name = "ch_cluster"
    ch_share = 0.15

    def make_engine(self, sizes: dict, seed: int) -> Any:
        engine = make_engine(
            "b",
            n_storage_nodes=sizes["storage_nodes"],
            replication=sizes["replication"],
            n_analytic_nodes=sizes["analytic_nodes"],
            # The cluster's own seed (Raft election jitter) is part of
            # the system, not of the workload's inputs.
            seed=sizes["cluster_seed"],
        )
        # The co-location the repo's own cluster bench declares.
        engine.declare_placement("customer", "cust", 3)
        engine.declare_placement("history", "cust", 3)
        engine.declare_placement("orders", "order", 3)
        engine.declare_placement("order_line", "order", 3)
        return engine


class PointFrontDoor(_FrontDoorWorkload):
    name = "point_frontdoor"

    def make_engine(self, sizes: dict, seed: int) -> Any:
        return make_engine("a")


# -------------------------------------------------- single-node, closed loop


@dataclass
class _EngineState:
    label: str
    engine: Any
    tpcc: TpccWorkload
    txns: Deck



def _build_engines(rec: Recorder, seed: int, sizes: dict, warm_queries: bool) -> list[_EngineState]:
    scale = _scale(sizes)
    states = []
    for category in sizes["engines"]:
        engine = make_engine(category)
        rec.use_engine(engine)
        _load(engine, scale, seed)
        if warm_queries:
            # Optimizer statistics are set-up cost, as a long-running
            # server would have gathered them before the first query.
            for ch in CH_QUERIES:
                engine.explain(ch.sql)
        states.append(
            _EngineState(
                category,
                engine,
                TpccWorkload(engine, scale, seed=seed),
                Deck(TXN_CARDS, make_rng(seed ^ 0xDECC)),
            )
        )
    return states


def _finish(rec: Recorder, states: list[_EngineState]) -> None:
    rec.new_orders = sum(s.tpcc.counters.new_order for s in states)
    rec.aborted = sum(s.tpcc.counters.aborts for s in states)


def _check_all(rec: Recorder, states: list[_EngineState], name: str) -> None:
    for st in states:
        check_engine(rec, st.engine, f"{name}/{st.label}")


class OlapSuite:
    name = "olap_suite"

    def setup(self, rec: Recorder, seed: int, sizes: dict) -> list[_EngineState]:
        self.sizes = sizes
        return _build_engines(rec, seed, sizes, warm_queries=True)

    def run(self, rec: Recorder, states: list[_EngineState]) -> None:
        sizes = self.sizes
        for st in states:
            engine = st.engine
            rec.use_engine(engine)
            start_us = engine.cost.now_us()
            for n_pass in range(sizes["passes"]):
                # The burst invalidates the scan cache as live HTAP
                # traffic would, so fresh reads patch the delta.
                for _ in range(sizes["burst_txns"]):
                    rec.op("txn", st.tpcc.run_named, st.txns.draw())()
                for ch in CH_QUERIES:
                    rec.op("query", engine.query, ch.sql, query_id=ch.query_id)()
                    rec.pulse()
                if n_pass % 2 == 1:
                    rec.sync(engine)
            rec.sim_span_us += engine.cost.now_us() - start_us
        _finish(rec, states)

    def check(self, rec: Recorder, states: list[_EngineState]) -> None:
        _check_all(rec, states, self.name)


class OltpSync:
    name = "oltp_sync"

    def setup(self, rec: Recorder, seed: int, sizes: dict) -> list[_EngineState]:
        self.sizes = sizes
        return _build_engines(rec, seed, sizes, warm_queries=False)

    def run(self, rec: Recorder, states: list[_EngineState]) -> None:
        sizes = self.sizes
        for st in states:
            engine = st.engine
            rec.use_engine(engine)
            start_us = engine.cost.now_us()
            for done in range(1, sizes["txns"] + 1):
                rec.op("txn", st.tpcc.run_named, st.txns.draw())()
                if done % sizes["sync_every"] == 0:
                    rec.op("query", engine.query, BACKLOG_PROBE)()
                    rec.sync(engine)
                    rec.pulse()
            rec.sim_span_us += engine.cost.now_us() - start_us
        _finish(rec, states)

    def check(self, rec: Recorder, states: list[_EngineState]) -> None:
        _check_all(rec, states, self.name)


WORKLOADS = {w.name: w for w in (ChCluster, PointFrontDoor, OlapSuite, OltpSync)}
