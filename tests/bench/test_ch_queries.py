"""CH-benCHmark queries validated against brute-force Python evaluation.

Each CH query result on engine (a) is recomputed directly from the raw
row data; the two must agree exactly.  This is the end-to-end proof
that parser + planner + executor + engine adapters compose correctly.
"""

import collections

import pytest

from repro.bench import CH_QUERIES, ChBenchmarkDriver, TpccLoader, TpccScale, TpccWorkload, get_query
from repro.engines import make_engine

SCALE = TpccScale(
    warehouses=1, districts=2, customers=15, items=40, initial_orders=10, suppliers=8
)


@pytest.fixture(scope="module")
def env():
    engine = make_engine("a")
    TpccLoader(scale=SCALE, seed=5).load(engine)
    # Add churn so delta paths are exercised, then read raw truth.
    TpccWorkload(engine, SCALE, seed=4).run_many(60)
    ts = engine.clock.now()
    raw = {t: engine.store(t).snapshot_rows(ts) for t in engine.catalog}
    return engine, raw


def rows_by_key(raw, table, key_fn):
    return {key_fn(r): r for r in raw[table]}


class TestChCorrectness:
    def test_q1_pricing_summary(self, env):
        engine, raw = env
        result = ChBenchmarkDriver(engine).run_query("Q1")
        brute = collections.defaultdict(lambda: [0, 0.0, 0])
        for ol in raw["order_line"]:
            if ol[6] is not None and ol[6] > 5:
                b = brute[ol[3]]
                b[0] += ol[7]
                b[1] += ol[8]
                b[2] += 1
        assert len(result.rows) == len(brute)
        for ol_number, sum_qty, sum_amount, _aq, _aa, n in result.rows:
            assert brute[ol_number][0] == sum_qty
            assert brute[ol_number][1] == pytest.approx(sum_amount)
            assert brute[ol_number][2] == n

    def test_q6_revenue(self, env):
        engine, raw = env
        result = ChBenchmarkDriver(engine).run_query("Q6")
        expect = sum(
            ol[8]
            for ol in raw["order_line"]
            if ol[6] is not None and ol[6] >= 5 and 1 <= ol[7] <= 5
        )
        got = result.scalar()
        if expect == 0:
            assert got in (None, 0)
        else:
            assert got == pytest.approx(expect)

    def test_q5_nation_revenue(self, env):
        engine, raw = env
        result = ChBenchmarkDriver(engine).run_query("Q5")
        customers = rows_by_key(raw, "customer", lambda r: (r[0], r[1], r[2]))
        stocks = rows_by_key(raw, "stock", lambda r: (r[0], r[1]))
        suppliers = rows_by_key(raw, "supplier", lambda r: r[0])
        nations = rows_by_key(raw, "nation", lambda r: r[0])
        regions = rows_by_key(raw, "region", lambda r: r[0])
        orders = rows_by_key(raw, "orders", lambda r: (r[0], r[1], r[2]))
        brute = collections.defaultdict(float)
        for ol in raw["order_line"]:
            order = orders.get((ol[0], ol[1], ol[2]))
            if order is None:
                continue
            customer = customers.get((order[0], order[1], order[3]))
            stock = stocks.get((ol[5], ol[4]))
            if customer is None or stock is None:
                continue
            supplier = suppliers[stock[6]]
            nation = nations[supplier[2]]
            region = regions[nation[2]]
            if region[1] != "region0":
                continue
            brute[nation[1]] += ol[8]
        got = {r[0]: r[1] for r in result.rows}
        assert set(got) == set(brute)
        for name, revenue in brute.items():
            assert got[name] == pytest.approx(revenue)

    def test_q12_delivered_orders(self, env):
        engine, raw = env
        result = ChBenchmarkDriver(engine).run_query("Q12")
        orders = rows_by_key(raw, "orders", lambda r: (r[0], r[1], r[2]))
        brute = collections.defaultdict(int)
        for ol in raw["order_line"]:
            order = orders.get((ol[0], ol[1], ol[2]))
            if order is None or order[5] is None or order[5] < 1:
                continue
            if ol[6] is not None and ol[6] >= 5:
                brute[order[6]] += 1
        got = dict(result.rows)
        assert got == dict(brute)

    def test_q14_promo_ratio(self, env):
        engine, raw = env
        driver = ChBenchmarkDriver(engine)
        run = driver.run_suite(["Q14a", "Q14b"])
        items = rows_by_key(raw, "item", lambda r: r[0])
        promo = sum(
            ol[8]
            for ol in raw["order_line"]
            if ol[8] > 0 and items[ol[4]][4] == "PROMO"
        )
        total = sum(ol[8] for ol in raw["order_line"] if ol[8] > 0)
        expect = 100.0 * promo / total
        assert run.promo_ratio() == pytest.approx(expect)

    def test_q18_big_spenders(self, env):
        engine, raw = env
        result = ChBenchmarkDriver(engine).run_query("Q18")
        orders = rows_by_key(raw, "orders", lambda r: (r[0], r[1], r[2]))
        brute = collections.defaultdict(float)
        for ol in raw["order_line"]:
            order = orders.get((ol[0], ol[1], ol[2]))
            if order is None:
                continue
            brute[(order[0], order[1], order[3])] += ol[8]
        qualifying = [v for v in brute.values() if v > 100.0]  # Q18's HAVING
        expect = sorted(qualifying, reverse=True)[:10]
        got = [r[3] for r in result.rows]
        assert got == pytest.approx(expect)

    def test_q22_balance_distribution(self, env):
        engine, raw = env
        result = ChBenchmarkDriver(engine).run_query("Q22")
        brute = collections.defaultdict(lambda: [0, 0.0])
        for c in raw["customer"]:
            if c[7] > 0:
                brute[c[4]][0] += 1
                brute[c[4]][1] += c[7]
        assert [r[0] for r in result.rows] == sorted(brute)
        for state, n, total in result.rows:
            assert brute[state][0] == n
            assert brute[state][1] == pytest.approx(total)

    def test_suite_runs_every_query(self, env):
        engine, _raw = env
        run = ChBenchmarkDriver(engine).run_suite()
        assert run.queries_run == len(CH_QUERIES)
        assert run.latency.count == len(CH_QUERIES)
        assert run.latency.mean() > 0

    def test_results_identical_across_fresh_engines(self):
        """Engines (a) and (d) must give identical CH answers on the
        same loaded + mutated data (cross-engine consistency)."""
        answers = {}
        for cat in ("a", "d"):
            engine = make_engine(cat)
            TpccLoader(scale=SCALE, seed=5).load(engine)
            TpccWorkload(engine, SCALE, seed=4).run_many(40)
            driver = ChBenchmarkDriver(engine)
            answers[cat] = {
                qid: driver.run_query(qid).rows for qid in ("Q1", "Q6", "Q22")
            }
        for qid in answers["a"]:
            rows_a, rows_d = answers["a"][qid], answers["d"][qid]
            assert len(rows_a) == len(rows_d), qid
            for row_a, row_d in zip(rows_a, rows_d):
                for cell_a, cell_d in zip(row_a, row_d):
                    if isinstance(cell_a, float):
                        assert cell_a == pytest.approx(cell_d), qid
                    else:
                        assert cell_a == cell_d, qid

    def test_get_query_unknown(self):
        with pytest.raises(KeyError):
            get_query("Q99")
