"""TPC-C loader invariants and transaction semantics."""

import pytest

from repro.bench import TpccLoader, TpccScale, TpccWorkload, tpcc_schemas
from repro.engines import make_engine


SCALE = TpccScale(
    warehouses=2, districts=2, customers=12, items=30, initial_orders=8, suppliers=6
)


@pytest.fixture(scope="module")
def loaded_engine():
    engine = make_engine("a")
    TpccLoader(scale=SCALE, seed=5).load(engine)
    return engine


def count(engine, table):
    return engine.query(f"SELECT COUNT(*) FROM {table}").scalar()


class TestSchemas:
    def test_twelve_tables(self):
        schemas = tpcc_schemas()
        assert len(schemas) == 12
        names = {s.table_name for s in schemas}
        assert "order_line" in names and "supplier" in names

    def test_composite_keys(self):
        by_name = {s.table_name: s for s in tpcc_schemas()}
        assert by_name["order_line"].primary_key == (
            "ol_w_id", "ol_d_id", "ol_o_id", "ol_number",
        )
        assert by_name["customer"].primary_key == ("c_w_id", "c_d_id", "c_id")


class TestLoader:
    def test_cardinalities(self, loaded_engine):
        s = SCALE
        assert count(loaded_engine, "warehouse") == s.warehouses
        assert count(loaded_engine, "district") == s.warehouses * s.districts
        assert count(loaded_engine, "customer") == s.warehouses * s.districts * s.customers
        assert count(loaded_engine, "item") == s.items
        assert count(loaded_engine, "stock") == s.warehouses * s.items
        assert count(loaded_engine, "orders") == s.warehouses * s.districts * s.initial_orders
        assert count(loaded_engine, "supplier") == s.suppliers
        assert count(loaded_engine, "nation") == s.nations
        assert count(loaded_engine, "region") == s.regions

    def test_seventy_percent_delivered(self, loaded_engine):
        undelivered = count(loaded_engine, "new_order")
        total = count(loaded_engine, "orders")
        assert undelivered == pytest.approx(total * 0.3, abs=total * 0.1)

    def test_order_lines_match_counts(self, loaded_engine):
        result = loaded_engine.query(
            "SELECT SUM(o_ol_cnt) FROM orders"
        )
        assert count(loaded_engine, "order_line") == result.scalar()

    def test_district_next_o_id_consistent(self, loaded_engine):
        result = loaded_engine.query("SELECT MIN(d_next_o_id) FROM district")
        assert result.scalar() == SCALE.initial_orders + 1

    def test_deterministic(self):
        a = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(a)
        b = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(b)
        rows_a = sorted(a.query("SELECT i_id, i_price FROM item").rows)
        rows_b = sorted(b.query("SELECT i_id, i_price FROM item").rows)
        assert rows_a == rows_b


class TestTransactions:
    @pytest.fixture()
    def workload(self):
        engine = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(engine)
        return engine, TpccWorkload(engine, SCALE, seed=9)

    def test_new_order_creates_rows(self, workload):
        engine, wl = workload
        orders_before = count(engine, "orders")
        lines_before = count(engine, "order_line")
        wl.run_named("new_order")
        assert wl.counters.new_order + wl.counters.rollbacks == 1
        if wl.counters.new_order:
            assert count(engine, "orders") == orders_before + 1
            assert count(engine, "order_line") > lines_before

    def test_new_order_advances_district_counter(self, workload):
        engine, wl = workload
        before = engine.query("SELECT SUM(d_next_o_id) FROM district").scalar()
        for _ in range(5):
            wl.run_named("new_order")
        after = engine.query("SELECT SUM(d_next_o_id) FROM district").scalar()
        assert after == before + wl.counters.new_order + wl.counters.rollbacks

    def test_payment_moves_money(self, workload):
        engine, wl = workload
        ytd_before = engine.query("SELECT SUM(w_ytd) FROM warehouse").scalar()
        bal_before = engine.query("SELECT SUM(c_balance) FROM customer").scalar()
        wl.run_named("payment")
        ytd_after = engine.query("SELECT SUM(w_ytd) FROM warehouse").scalar()
        bal_after = engine.query("SELECT SUM(c_balance) FROM customer").scalar()
        paid = ytd_after - ytd_before
        assert paid > 0
        assert bal_after == pytest.approx(bal_before - paid)
        assert count(engine, "history") == 1

    def test_delivery_clears_new_orders(self, workload):
        engine, wl = workload
        pending_before = count(engine, "new_order")
        wl.run_named("delivery")
        pending_after = count(engine, "new_order")
        assert pending_after < pending_before

    def test_read_only_txns_leave_no_trace(self, workload):
        engine, wl = workload
        wal_len = len(engine.wal)
        wl.run_named("order_status")
        wl.run_named("stock_level")
        # Only BEGIN/ABORT records, no data records.
        new_records = engine.wal.records[wal_len:]
        assert all(r.kind.value in ("abort",) for r in new_records)

    def test_mix_roughly_standard(self):
        engine = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(engine)
        wl = TpccWorkload(engine, SCALE, seed=1)
        wl.run_many(300)
        c = wl.counters
        assert c.new_order + c.rollbacks == pytest.approx(300 * 0.45, abs=25)
        assert c.payment == pytest.approx(300 * 0.43, abs=25)
        assert c.order_status > 0 and c.delivery > 0 and c.stock_level > 0

    def test_balance_invariant_under_mix(self):
        """Money conservation: warehouse ytd growth equals customer
        ytd_payment growth (payments are the only flow)."""
        engine = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(engine)
        w0 = engine.query("SELECT SUM(w_ytd) FROM warehouse").scalar()
        p0 = engine.query("SELECT SUM(c_ytd_payment) FROM customer").scalar()
        wl = TpccWorkload(engine, SCALE, seed=2)
        wl.run_many(120)
        w1 = engine.query("SELECT SUM(w_ytd) FROM warehouse").scalar()
        p1 = engine.query("SELECT SUM(c_ytd_payment) FROM customer").scalar()
        assert (w1 - w0) == pytest.approx(p1 - p0)


class TestBenchmarkSuiteExtensions:
    def test_hybrid_transactions_run_and_count(self):
        engine = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(engine)
        wl = TpccWorkload(engine, SCALE, seed=3, hybrid_fraction=0.5)
        wl.run_many(60)
        assert wl.counters.credit_check > 10
        assert wl.counters.total == 60

    def test_hybrid_fraction_zero_means_standard_mix(self):
        engine = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(engine)
        wl = TpccWorkload(engine, SCALE, seed=3)
        wl.run_many(40)
        assert wl.counters.credit_check == 0

    def test_credit_check_downgrades_heavy_spender(self):
        engine = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(engine)
        wl = TpccWorkload(engine, SCALE, seed=3)
        # Give customer (1,1,1) an enormous order history.
        with engine.session() as s:
            district = s.read("district", (1, 1))
            o_id = district[5]
            s.update("district", district[:5] + (o_id + 1,))
            s.insert("orders", (1, 1, o_id, 1, 1, None, 1, 1))
            s.insert("order_line", (1, 1, o_id, 1, 1, 1, None, 1, 99_999.0))
        wl._pick_wd = lambda: (1, 1)
        wl._pick_customer = lambda: 1
        wl.run_named("credit_check")
        with engine.session() as s:
            assert s.read("customer", (1, 1, 1))[5] == "BC"
            s.abort()

    def test_item_skew_changes_distribution(self):
        engine = make_engine("a")
        TpccLoader(scale=SCALE, seed=5).load(engine)
        uniform = TpccWorkload(engine, SCALE, seed=3)
        skewed = TpccWorkload(engine, SCALE, seed=3, item_skew=1.5)
        uniform_picks = [uniform._pick_item() for _ in range(300)]
        skewed_picks = [skewed._pick_item() for _ in range(300)]
        assert all(1 <= i <= SCALE.items for i in skewed_picks)
        top_share = sum(1 for i in skewed_picks if i <= 3) / 300
        uniform_share = sum(1 for i in uniform_picks if i <= 3) / 300
        assert top_share > 2 * max(uniform_share, 0.03)


def ytd_gaps(engine) -> dict[int, float]:
    """Warehouse -> ``W_YTD`` less the sum of its districts' ``D_YTD``,
    read on the row path."""
    with engine.session() as s:
        gaps = {w[0]: w[4] for w in s.scan("warehouse")}
        for d in s.scan("district"):
            gaps[d[0]] -= d[4]
    return gaps


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
def test_warehouse_ytd_is_the_sum_of_its_districts(cat):
    """TPC-C consistency condition 1, ``W_YTD`` = sum(``D_YTD``) per
    warehouse: after the load, and after 200 serial transactions of the
    standard mix and a ``force_sync``."""
    engine = make_engine(cat, **({"seed": 5} if cat == "b" else {}))
    TpccLoader(scale=SCALE, seed=5).load(engine)
    assert ytd_gaps(engine) == {1: 0.0, 2: 0.0}
    workload = TpccWorkload(engine, SCALE, seed=3)
    workload.run_many(200)
    assert workload.counters.payment > 0
    engine.force_sync()
    assert ytd_gaps(engine) == pytest.approx({1: 0.0, 2: 0.0}, abs=1e-6)
