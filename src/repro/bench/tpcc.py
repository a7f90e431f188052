"""TPC-C workload: CH-benCHmark schema, data generator, five transactions.

A faithful-in-shape, scaled-down TPC-C implemented against the uniform
engine-session API, extended with the three relations CH-benCHmark adds
(supplier, nation, region) so the analytical queries have their join
targets.  Scale knobs replace the spec's fixed cardinalities
(10 districts/warehouse, 3000 customers/district, 100k items) so the
same generator drives unit tests and benches.

Deviation from the spec kept deliberately and documented: customer
last-name selection by NURand last-name is replaced by NURand c_id
(no last-name index needed), and stock's s_dist_xx strings are folded
into one s_dist column.  CH's supplier assignment (a derived mod join)
is made explicit with an s_suppkey column on stock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from ..common.errors import TransactionAborted
from ..common.rng import ZipfGenerator, make_rng, nurand, random_string
from ..common.types import Column, DataType, Schema
from ..engines.base import HTAPEngine

# --------------------------------------------------------------------- scale

#: Lines per order: TPC-C draws ``ol_cnt`` uniformly from 5..15.
MAX_OL_CNT = 15


@dataclass(frozen=True)
class TpccScale:
    """Cardinality knobs (spec values in comments)."""

    warehouses: int = 1          # W
    districts: int = 4           # 10 per warehouse
    customers: int = 30          # 3000 per district
    items: int = 100             # 100_000
    initial_orders: int = 20     # 3000 per district
    suppliers: int = 10          # CH: 10_000
    nations: int = 5             # CH: 62
    regions: int = 3             # CH: 5


# --------------------------------------------------------------------- schema

def tpcc_schemas() -> list[Schema]:
    """The nine TPC-C tables plus CH-benCHmark's three additions."""
    I = DataType.INT64
    F = DataType.FLOAT64
    S = DataType.STRING
    return [
        Schema("warehouse", [
            Column("w_id", I), Column("w_name", S), Column("w_state", S),
            Column("w_tax", F), Column("w_ytd", F),
        ], ["w_id"]),
        Schema("district", [
            Column("d_w_id", I), Column("d_id", I), Column("d_name", S),
            Column("d_tax", F), Column("d_ytd", F), Column("d_next_o_id", I),
        ], ["d_w_id", "d_id"]),
        Schema("customer", [
            Column("c_w_id", I), Column("c_d_id", I), Column("c_id", I),
            Column("c_name", S), Column("c_state", S), Column("c_credit", S),
            Column("c_discount", F), Column("c_balance", F),
            Column("c_ytd_payment", F), Column("c_payment_cnt", I),
            Column("c_delivery_cnt", I), Column("c_nationkey", I),
        ], ["c_w_id", "c_d_id", "c_id"]),
        # History has no spec-mandated PK; keying by (customer, h_id)
        # lets placement-aware engines co-locate a customer's history
        # with the customer row (h_id alone stays unique).
        Schema("history", [
            Column("h_id", I), Column("h_c_w_id", I), Column("h_c_d_id", I),
            Column("h_c_id", I), Column("h_date", I), Column("h_amount", F),
        ], ["h_c_w_id", "h_c_d_id", "h_c_id", "h_id"]),
        Schema("orders", [
            Column("o_w_id", I), Column("o_d_id", I), Column("o_id", I),
            Column("o_c_id", I), Column("o_entry_d", I),
            Column("o_carrier_id", I, nullable=True), Column("o_ol_cnt", I),
            Column("o_all_local", I),
        ], ["o_w_id", "o_d_id", "o_id"]),
        Schema("new_order", [
            Column("no_w_id", I), Column("no_d_id", I), Column("no_o_id", I),
        ], ["no_w_id", "no_d_id", "no_o_id"]),
        Schema("order_line", [
            Column("ol_w_id", I), Column("ol_d_id", I), Column("ol_o_id", I),
            Column("ol_number", I), Column("ol_i_id", I),
            Column("ol_supply_w_id", I), Column("ol_delivery_d", I, nullable=True),
            Column("ol_quantity", I), Column("ol_amount", F),
        ], ["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"]),
        Schema("item", [
            Column("i_id", I), Column("i_im_id", I), Column("i_name", S),
            Column("i_price", F), Column("i_data", S),
        ], ["i_id"]),
        Schema("stock", [
            Column("s_w_id", I), Column("s_i_id", I), Column("s_quantity", I),
            Column("s_ytd", F), Column("s_order_cnt", I),
            Column("s_remote_cnt", I), Column("s_suppkey", I),
            Column("s_dist", S),
        ], ["s_w_id", "s_i_id"]),
        # CH-benCHmark additions:
        Schema("supplier", [
            Column("su_suppkey", I), Column("su_name", S),
            Column("su_nationkey", I), Column("su_acctbal", F),
        ], ["su_suppkey"]),
        Schema("nation", [
            Column("n_nationkey", I), Column("n_name", S),
            Column("n_regionkey", I),
        ], ["n_nationkey"]),
        Schema("region", [
            Column("r_regionkey", I), Column("r_name", S),
        ], ["r_regionkey"]),
    ]


# --------------------------------------------------------------------- loader


@dataclass
class TpccLoader:
    """Deterministic initial population per TPC-C §4.3 (scaled)."""

    scale: TpccScale = field(default_factory=TpccScale)
    seed: int = 42

    def load(self, engine: HTAPEngine, create_tables: bool = True) -> None:
        rng = make_rng(self.seed)
        s = self.scale
        if create_tables:
            for schema in tpcc_schemas():
                engine.create_table(schema)
        engine.bulk_load("region", [
            (r, f"region{r}") for r in range(s.regions)
        ])
        engine.bulk_load("nation", [
            (n, f"nation{n}", n % s.regions) for n in range(s.nations)
        ])
        engine.bulk_load("supplier", [
            (su, f"supplier{su}", su % s.nations, round(rng.uniform(-999, 9999), 2))
            for su in range(s.suppliers)
        ])
        engine.bulk_load("item", [
            (
                i,
                rng.randrange(1, 10_000),
                random_string(rng, 6, 14),
                round(rng.uniform(1.0, 100.0), 2),
                "PROMO" if rng.random() < 0.1 else random_string(rng, 6, 10),
            )
            for i in range(1, s.items + 1)
        ])
        for w in range(1, s.warehouses + 1):
            engine.bulk_load("warehouse", [(
                w, f"wh{w}", random_string(rng, 2, 2).upper(),
                round(rng.uniform(0.0, 0.2), 4), s.districts * 30_000.0,
            )])
            engine.bulk_load("stock", [
                (
                    w, i, rng.randrange(10, 101), 0.0, 0, 0,
                    ((w * i) % s.suppliers),
                    random_string(rng, 12, 24),
                )
                for i in range(1, s.items + 1)
            ])
            for d in range(1, s.districts + 1):
                engine.bulk_load("district", [(
                    w, d, f"dist{d}", round(rng.uniform(0.0, 0.2), 4),
                    30_000.0, s.initial_orders + 1,
                )])
                engine.bulk_load("customer", [
                    (
                        w, d, c,
                        f"cust{w}_{d}_{c}",
                        random_string(rng, 2, 2).upper(),
                        "BC" if rng.random() < 0.1 else "GC",
                        round(rng.uniform(0.0, 0.5), 4),
                        -10.0, 10.0, 1, 0,
                        rng.randrange(s.nations),
                    )
                    for c in range(1, s.customers + 1)
                ])
                self._load_initial_orders(engine, rng, w, d)

    def _load_initial_orders(self, engine, rng, w: int, d: int) -> None:
        s = self.scale
        orders = []
        new_orders = []
        lines = []
        day = 1
        for o in range(1, s.initial_orders + 1):
            c = rng.randrange(1, s.customers + 1)
            ol_cnt = rng.randrange(5, MAX_OL_CNT + 1)
            delivered = o <= int(s.initial_orders * 0.7)
            orders.append((
                w, d, o, c, day, rng.randrange(1, 11) if delivered else None,
                ol_cnt, 1,
            ))
            if not delivered:
                new_orders.append((w, d, o))
            for n in range(1, ol_cnt + 1):
                i_id = rng.randrange(1, s.items + 1)
                lines.append((
                    w, d, o, n, i_id, w,
                    day if delivered else None,
                    rng.randrange(1, 11),
                    0.0 if delivered else round(rng.uniform(0.01, 9999.99), 2),
                ))
            day += 1
        engine.bulk_load("orders", orders)
        engine.bulk_load("new_order", new_orders)
        engine.bulk_load("order_line", lines)


# --------------------------------------------------------------------- txns


@dataclass
class TxnCounters:
    new_order: int = 0
    payment: int = 0
    order_status: int = 0
    delivery: int = 0
    stock_level: int = 0
    credit_check: int = 0
    rollbacks: int = 0
    aborts: int = 0

    @property
    def total(self) -> int:
        return (
            self.new_order + self.payment + self.order_status
            + self.delivery + self.stock_level + self.credit_check
        )


class TpccWorkload:
    """Drives the five TPC-C transactions against any engine session.

    The standard mix: 45% NewOrder, 43% Payment, 4% each for
    OrderStatus, Delivery, StockLevel.
    """

    MIX = (
        ("new_order", 0.45),
        ("payment", 0.43),
        ("order_status", 0.04),
        ("delivery", 0.04),
        ("stock_level", 0.04),
    )

    def __init__(
        self,
        engine: HTAPEngine,
        scale: TpccScale,
        seed: int = 7,
        item_skew: float | None = None,
        hybrid_fraction: float = 0.0,
    ):
        """Standard TPC-C, plus the §2.4 benchmark-suite extensions:

        ``item_skew``: Zipf theta for item popularity — addresses the
        paper's critique that TPC-H-style uniformity "poses little
        challenge"; hot items concentrate contention and heat.

        ``hybrid_fraction``: probability of drawing a *hybrid
        transaction* (CreditCheck) that runs an analytical aggregation
        inside an OLTP transaction — the Gartner "HTAP transaction
        could contain analytical operations" feature the paper notes
        no existing benchmark covers.
        """
        self.engine = engine
        self.scale = scale
        self.rng = make_rng(seed)
        self.counters = TxnCounters()
        self.hybrid_fraction = hybrid_fraction
        self._zipf = (
            ZipfGenerator(scale.items, item_skew, seed=seed ^ 0xA5)
            if item_skew is not None
            else None
        )
        # The history-id allocator is engine-scoped so several workload
        # instances driving one engine never collide on history keys.
        self._day = 1_000

    def _take_history_id(self) -> int:
        next_id = getattr(self.engine, "_tpcc_next_history_id", None)
        if next_id is None:
            # Cold allocator (fresh or *recovered* engine): resume past
            # whatever the table already holds, like real id recovery.
            top = self.engine.query("SELECT MAX(h_id) FROM history").rows[0][0]
            next_id = 1_000_000 if top is None else int(top) + 1
        self.engine._tpcc_next_history_id = next_id + 1
        return next_id

    # --------------------------------------------------------------- mix

    def run_one(self) -> str:
        """Execute one transaction drawn from the (possibly extended) mix."""
        if self.hybrid_fraction and self.rng.random() < self.hybrid_fraction:
            self.run_named("credit_check")
            return "credit_check"
        u = self.rng.random()
        acc = 0.0
        for name, weight in self.MIX:
            acc += weight
            if u < acc:
                self.run_named(name)
                return name
        self.run_named("stock_level")
        return "stock_level"

    def run_named(self, name: str) -> None:
        fn = getattr(self, f"txn_{name}")
        try:
            fn()
        except TransactionAborted:
            self.counters.aborts += 1

    def run_many(self, n: int) -> TxnCounters:
        for _i in range(n):
            self.run_one()
        return self.counters

    # --------------------------------------------------------------- helpers

    def _pick_wd(self) -> tuple[int, int]:
        w = self.rng.randrange(1, self.scale.warehouses + 1)
        d = self.rng.randrange(1, self.scale.districts + 1)
        return w, d

    def _pick_customer(self) -> int:
        return nurand(self.rng, 1023, 1, self.scale.customers)

    def _pick_item(self) -> int:
        if self._zipf is not None:
            return 1 + self._zipf.draw()
        return nurand(self.rng, 8191, 1, self.scale.items)

    # --------------------------------------------------------------- NewOrder

    def txn_new_order(self) -> None:
        w, d = self._pick_wd()
        c = self._pick_customer()
        ol_cnt = self.rng.randrange(5, MAX_OL_CNT + 1)
        rollback = self.rng.random() < 0.01  # spec: 1% unused item aborts
        # The lines are drawn up front, in the order the loop below
        # consumes them: item, then quantity; the rolled-back last line
        # draws no quantity.
        lines = []
        for number in range(1, ol_cnt + 1):
            i_id = self._pick_item()
            last_rolls_back = rollback and number == ol_cnt
            lines.append((i_id, None if last_rolls_back else self.rng.randrange(1, 11)))
        with self.engine.session() as s:
            s.prefetch(chain(
                [("district", (w, d))],
                (("item", i_id) for i_id, _qty in lines),
                (("stock", (w, i_id)) for i_id, qty in lines if qty is not None),
            ))
            district = s.read("district", (w, d))
            assert district is not None
            next_o_id = district[5]
            s.update("district", (*district[:5], next_o_id + 1))
            self._day += 1
            s.insert("orders", (w, d, next_o_id, c, self._day, None, ol_cnt, 1))
            s.insert("new_order", (w, d, next_o_id))
            total = 0.0
            for number, (i_id, qty) in enumerate(lines, 1):
                item = s.read("item", i_id)
                if item is None or qty is None:
                    self.counters.rollbacks += 1
                    s.abort()
                    return
                stock = s.read("stock", (w, i_id))
                s_quantity = stock[2] - qty
                if s_quantity < 10:
                    s_quantity += 91
                s.update("stock", (
                    stock[0], stock[1], s_quantity, stock[3] + qty,
                    stock[4] + 1, stock[5], stock[6], stock[7],
                ))
                amount = round(qty * item[3], 2)
                total += amount
                s.insert("order_line", (
                    w, d, next_o_id, number, i_id, w, None, qty, amount,
                ))
        self.counters.new_order += 1

    # --------------------------------------------------------------- Payment

    def txn_payment(self) -> None:
        w, d = self._pick_wd()
        c = self._pick_customer()
        amount = round(self.rng.uniform(1.0, 5000.0), 2)
        with self.engine.session() as s:
            s.prefetch([("warehouse", w), ("district", (w, d)), ("customer", (w, d, c))])
            warehouse = s.read("warehouse", w)
            s.update("warehouse", (*warehouse[:4], warehouse[4] + amount))
            district = s.read("district", (w, d))
            s.update("district", (*district[:4], district[4] + amount, *district[5:]))
            customer = s.read("customer", (w, d, c))
            s.update("customer", (
                *customer[:7],
                customer[7] - amount,
                customer[8] + amount,
                customer[9] + 1,
                *customer[10:],
            ))
            self._day += 1
            s.insert("history", (
                self._take_history_id(), w, d, c, self._day, amount,
            ))
        self.counters.payment += 1

    # --------------------------------------------------------------- OrderStatus

    def txn_order_status(self) -> None:
        w, d = self._pick_wd()
        c = self._pick_customer()
        with self.engine.session() as s:
            s.prefetch([("customer", (w, d, c)), ("district", (w, d))])
            customer = s.read("customer", (w, d, c))
            assert customer is not None
            district = s.read("district", (w, d))
            # Walk back from the newest order id to this customer's last.
            window = range(district[5] - 1, max(0, district[5] - 40), -1)
            s.prefetch(("orders", (w, d, o_id)) for o_id in window)
            for o_id in window:
                order = s.read("orders", (w, d, o_id))
                if order is not None and order[3] == c:
                    s.prefetch(
                        ("order_line", (w, d, o_id, n)) for n in range(1, order[6] + 1)
                    )
                    for number in range(1, order[6] + 1):
                        s.read("order_line", (w, d, o_id, number))
                    break
            s.abort()  # read-only
        self.counters.order_status += 1

    # --------------------------------------------------------------- Delivery

    def txn_delivery(self) -> None:
        """One BatchGet per dependency level: the districts, their order
        windows, then the lines and customers of the oldest new orders."""
        w = self.rng.randrange(1, self.scale.warehouses + 1)
        carrier = self.rng.randrange(1, 11)
        districts = range(1, self.scale.districts + 1)
        with self.engine.session() as s:
            s.prefetch(("district", (w, d)) for d in districts)
            windows = {d: range(1, s.read("district", (w, d))[5]) for d in districts}
            s.prefetch(
                (table, (w, d, o_id))
                for d, window in windows.items()
                for o_id in window
                for table in ("new_order", "orders")
            )
            oldest = {
                d: next((o for o in window if s.read("new_order", (w, d, o))), None)
                for d, window in windows.items()
            }
            orders = [s.read("orders", (w, d, o)) for d, o in oldest.items() if o is not None]
            s.prefetch(
                pair
                for order in orders
                for pair in (
                    *(("order_line", (*order[:3], n)) for n in range(1, order[6] + 1)),
                    ("customer", (w, order[1], order[3])),
                )
            )
            for order in orders:
                _w, d, o_id = order[:3]
                s.delete("new_order", (w, d, o_id))
                s.update("orders", (*order[:5], carrier, *order[6:]))
                self._day += 1
                total = 0.0
                for number in range(1, order[6] + 1):
                    line = s.read("order_line", (w, d, o_id, number))
                    if line is None:
                        continue
                    total += line[8]
                    s.update("order_line", (*line[:6], self._day, *line[7:]))
                customer = s.read("customer", (w, d, order[3]))
                s.update("customer", (
                    *customer[:7],
                    customer[7] + total,
                    *customer[8:10],
                    customer[10] + 1,
                    *customer[11:],
                ))
        self.counters.delivery += 1

    # --------------------------------------------------------------- StockLevel

    def txn_stock_level(self) -> None:
        w, d = self._pick_wd()
        threshold = self.rng.randrange(10, 21)
        with self.engine.session() as s:
            district = s.read("district", (w, d))
            next_o_id = district[5]
            recent = range(max(1, next_o_id - 20), next_o_id)
            # An order has at most MAX_OL_CNT lines: fetch every line
            # key it could have with the orders themselves.
            s.prefetch(chain(
                (("orders", (w, d, o_id)) for o_id in recent),
                (
                    ("order_line", (w, d, o_id, n))
                    for o_id in recent
                    for n in range(1, MAX_OL_CNT + 1)
                ),
            ))
            seen: set[int] = set()
            for o_id in recent:
                order = s.read("orders", (w, d, o_id))
                if order is None:
                    continue
                for number in range(1, order[6] + 1):
                    line = s.read("order_line", (w, d, o_id, number))
                    if line is not None:
                        seen.add(line[4])
            s.prefetch(("stock", (w, i_id)) for i_id in sorted(seen))
            low = 0
            for i_id in sorted(seen):
                stock = s.read("stock", (w, i_id))
                if stock is not None and stock[2] < threshold:
                    low += 1
            s.abort()  # read-only
        self.counters.stock_level += 1

    # ------------------------------------------------------- CreditCheck (hybrid)

    def txn_credit_check(self) -> None:
        """A *hybrid transaction*: analytical aggregation inside OLTP.

        Reads the customer's recent order history, aggregates spend
        (the analytical operation), and — in the same transaction —
        downgrades the customer's credit if spend exceeds a limit.
        This is the §2.4 "insert analytical operations to TPC-C"
        extension the paper calls for.
        """
        w, d = self._pick_wd()
        c = self._pick_customer()
        limit = 40_000.0
        with self.engine.session() as s:
            district = s.read("district", (w, d))
            spend = 0.0
            orders_seen = 0
            for o_id in range(district[5] - 1, 0, -1):
                order = s.read("orders", (w, d, o_id))
                if order is None or order[3] != c:
                    continue
                orders_seen += 1
                for number in range(1, order[6] + 1):
                    line = s.read("order_line", (w, d, o_id, number))
                    if line is not None:
                        spend += line[8]
                if orders_seen >= 10:
                    break
            customer = s.read("customer", (w, d, c))
            new_credit = "BC" if spend > limit else customer[5]
            if new_credit != customer[5]:
                s.update(
                    "customer",
                    (*customer[:5], new_credit, *customer[6:]),
                )
        self.counters.credit_check += 1
