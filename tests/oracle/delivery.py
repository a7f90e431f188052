"""TPC-C's Delivery read district by district: the reference for the
client's batched body.

This is the body ``TpccWorkload.txn_delivery`` had before it read in
one BatchGet per dependency level.  For each district in turn it reads
the district, prefetches that district's ``new_order`` and ``orders``
window, finds the oldest undelivered order, and then prefetches that
order's lines and customer — two round trips per district on (b).  Its
writes, their order and its random draws are what the batched body
must reproduce.
"""

from __future__ import annotations

from itertools import chain


def reference_delivery(workload) -> None:
    """One Delivery on ``workload`` (a ``TpccWorkload``), district by
    district."""
    w = workload.rng.randrange(1, workload.scale.warehouses + 1)
    carrier = workload.rng.randrange(1, 11)
    districts = range(1, workload.scale.districts + 1)
    with workload.engine.session() as s:
        s.prefetch(("district", (w, d)) for d in districts)
        for d in districts:
            district = s.read("district", (w, d))
            window = range(1, district[5])
            s.prefetch(
                (table, (w, d, o_id)) for o_id in window for table in ("new_order", "orders")
            )
            oldest = None
            for o_id in window:
                if s.read("new_order", (w, d, o_id)) is not None:
                    oldest = o_id
                    break
            if oldest is None:
                continue
            s.delete("new_order", (w, d, oldest))
            order = s.read("orders", (w, d, oldest))
            s.prefetch(chain(
                (("order_line", (w, d, oldest, n)) for n in range(1, order[6] + 1)),
                [("customer", (w, d, order[3]))],
            ))
            s.update("orders", (*order[:5], carrier, *order[6:]))
            workload._day += 1
            total = 0.0
            for number in range(1, order[6] + 1):
                line = s.read("order_line", (w, d, oldest, number))
                if line is None:
                    continue
                total += line[8]
                s.update("order_line", (*line[:6], workload._day, *line[7:]))
            customer = s.read("customer", (w, d, order[3]))
            s.update("customer", (
                *customer[:7],
                customer[7] + total,
                *customer[8:10],
                customer[10] + 1,
                *customer[11:],
            ))
    workload.counters.delivery += 1
