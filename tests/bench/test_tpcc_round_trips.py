"""TPC-C's round trips on the cluster, counted per transaction type.

On engine (b) every ``network_rtt_us`` charge is one round trip: a
BatchGet (``session.prefetch`` or a point read), a commit's validation
round, a router's shard-map refresh.  A seeded run of the standard mix
counts them per transaction and holds each type to its budget: a
NewOrder is one BatchGet and the commit; a Payment the same; a Delivery
one BatchGet per dependency level (the districts, then every district's
``new_order`` and ``orders`` window, then the lines and customers of the
orders found) and the commit; a StockLevel three BatchGets; an
OrderStatus at most three.  A rolled-back NewOrder ends before its
commit and is not counted.
"""

from collections import Counter, defaultdict

import pytest

from repro.bench import TpccLoader, TpccScale, TpccWorkload
from repro.common import CostModel
from repro.engines import make_engine

#: A round trip's cost, chosen so that no other charge equals it.
RTT_US = 433.0
SCALE = TpccScale(warehouses=1, districts=4, customers=30, items=100, initial_orders=20)
#: type -> round trips of each committed transaction of that type.
BUDGET = {"new_order": 2, "payment": 2, "delivery": 4, "stock_level": 3}


@pytest.fixture(scope="module")
def round_trips() -> dict[str, Counter]:
    """type -> Counter of round trips per transaction, over 150
    transactions of the standard mix."""
    cost = CostModel(network_rtt_us=RTT_US)
    engine = make_engine("b", cost=cost, seed=5)
    TpccLoader(SCALE).load(engine)
    workload = TpccWorkload(engine, SCALE, seed=3)
    trips = [0]
    charge = cost.charge

    def counting_charge(micros: float) -> None:
        if micros == RTT_US:
            trips[0] += 1
        charge(micros)

    cost.charge = counting_charge
    seen: dict[str, Counter] = defaultdict(Counter)
    for _ in range(150):
        trips[0] = 0
        rollbacks = workload.counters.rollbacks
        name = workload.run_one()
        if workload.counters.rollbacks == rollbacks:
            seen[name][trips[0]] += 1
    assert workload.counters.aborts == 0
    return seen


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_round_trips_per_transaction(round_trips, name):
    assert round_trips[name] and set(round_trips[name]) == {BUDGET[name]}, dict(
        round_trips[name]
    )


def test_order_status_takes_at_most_three_round_trips(round_trips):
    assert round_trips["order_status"] and max(round_trips["order_status"]) <= 3
