"""TPC-C's Delivery: the client's body against the district-by-district
reference (``tests/oracle/delivery.py``).

Two engines of one architecture load the same data and run the same
seeded schedule, one with the client's Delivery and one with the
reference.  A quarter of the schedule is Delivery, so districts run out
of undelivered orders and the empty-district path runs too.  Both must
end with the same rows in every table and, on the engines with a redo
log, the same WAL records, record for record: the same writes, in the
same order, under the same commit timestamps.
"""

import pytest

from repro.bench import TpccLoader, TpccScale, TpccWorkload, tpcc_schemas
from repro.engines import make_engine

from ..oracle.delivery import reference_delivery

SCALE = TpccScale(warehouses=1, districts=4, customers=12, items=30, initial_orders=10)
#: Ends in two Deliveries: the first empties every district, the second
#: finds them empty.
SCHEDULE = ("new_order", "payment", "delivery", "new_order") * 30 + ("delivery",) * 2


class ReferenceWorkload(TpccWorkload):
    txn_delivery = reference_delivery


def run(cat, workload_cls):
    engine = make_engine(cat, **({"seed": 5} if cat == "b" else {}))
    TpccLoader(SCALE, seed=3).load(engine)
    workload = workload_cls(engine, SCALE, seed=11)
    for name in SCHEDULE:
        workload.run_named(name)
    with engine.session() as s:
        tables = {t.table_name: sorted(s.scan(t.table_name)) for t in tpcc_schemas()}
    return engine, workload.counters, tables


@pytest.mark.parametrize("cat", ["a", "b", "c", "d"])
def test_delivery_matches_the_district_by_district_reference(cat):
    engine, counters, tables = run(cat, TpccWorkload)
    ref_engine, ref_counters, ref_tables = run(cat, ReferenceWorkload)
    assert counters == ref_counters
    assert counters.delivery == SCHEDULE.count("delivery")
    assert tables == ref_tables
    assert not tables["new_order"]
    if cat != "b":
        assert engine.wal.records == ref_engine.wal.records
