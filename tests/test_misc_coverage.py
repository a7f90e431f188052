"""Coverage for small public surfaces not exercised elsewhere."""

import pytest

from repro.common import Column, CostModel, DataType, QueryError, Schema
from repro.distributed import BusyLedger, SimNetwork
from repro.query.ast import (
    AggFunc,
    Aggregate,
    Arith,
    ColumnRef,
    HavingCondition,
    Literal,
    QueryResult,
)

from .distributed import run_until_quiet


class TestBusyLedger:
    def test_charge_and_makespan(self):
        ledger = BusyLedger()
        ledger.charge("n0", 10.0)
        ledger.charge("n1", 30.0)
        ledger.charge("n0", 5.0)
        assert ledger.busy("n0") == 15.0
        assert ledger.makespan_us() == 30.0
        assert ledger.makespan_us(["n0"]) == 15.0
        assert ledger.total_us() == 45.0
        assert ledger.nodes() == ["n0", "n1"]

    def test_reset_and_snapshot(self):
        ledger = BusyLedger()
        ledger.charge("x", 1.0)
        snap = ledger.snapshot()
        ledger.reset()
        assert snap == {"x": 1.0}
        assert ledger.makespan_us() == 0.0

    def test_empty_makespan(self):
        assert BusyLedger().makespan_us() == 0.0
        assert BusyLedger().makespan_us(["missing"]) == 0.0


class TestNetworkQuiet:
    def test_run_until_quiet_drains(self):
        cost = CostModel()
        net = SimNetwork(cost)
        seen = []
        net.register("a", lambda s, m: None)
        net.register("b", lambda s, m: seen.append(m))
        for i in range(3):
            net.send("a", "b", i)
        run_until_quiet(net)
        assert seen == [0, 1, 2]
        assert net.pending() == 0


class TestQueryResult:
    def test_column_accessor(self):
        result = QueryResult(columns=["a", "b"], rows=[(1, "x"), (2, "y")])
        assert result.column("b") == ["x", "y"]
        assert len(result) == 2

    def test_scalar_requires_1x1(self):
        result = QueryResult(columns=["a"], rows=[(1,), (2,)])
        with pytest.raises(QueryError):
            result.scalar()


class TestAstExtras:
    def test_having_ops(self):
        having = HavingCondition(Aggregate(AggFunc.COUNT, None), ">=", 2)
        assert having.test(2)
        assert not having.test(1)
        assert not having.test(None)

    def test_having_rejects_bad_op(self):
        with pytest.raises(QueryError):
            HavingCondition(ColumnRef("x"), "~", 1)

    def test_arith_rejects_bad_op(self):
        with pytest.raises(QueryError):
            Arith("%", ColumnRef("a"), Literal(1))

    def test_aggregate_requires_arg_except_count(self):
        with pytest.raises(QueryError):
            Aggregate(AggFunc.SUM, None)

    def test_display_strings(self):
        expr = Arith("*", ColumnRef("a"), Literal(2))
        assert expr.display() == "(a * 2)"
        agg = Aggregate(AggFunc.SUM, ColumnRef("b"))
        assert agg.display() == "sum(b)"

    def test_aggregate_compute_reducers(self):
        import numpy as np

        values = np.array([1.0, 3.0, 2.0])
        assert Aggregate(AggFunc.SUM, ColumnRef("x")).compute(values, 3) == 6.0
        assert Aggregate(AggFunc.AVG, ColumnRef("x")).compute(values, 3) == 2.0
        assert Aggregate(AggFunc.MIN, ColumnRef("x")).compute(values, 3) == 1.0
        assert Aggregate(AggFunc.MAX, ColumnRef("x")).compute(values, 3) == 3.0
        assert Aggregate(AggFunc.COUNT, None).compute(None, 3) == 3
        assert Aggregate(AggFunc.SUM, ColumnRef("x")).compute(np.array([]), 0) is None


class TestSchemaEdge:
    def test_project_validates(self):
        schema = Schema("t", [Column("a", DataType.INT64)], ["a"])
        assert schema.project(["a"]) == [0]
        from repro.common import SchemaError

        with pytest.raises(SchemaError):
            schema.project(["zz"])

    def test_has_column(self):
        schema = Schema("t", [Column("a", DataType.INT64)], ["a"])
        assert schema.has_column("a")
        assert not schema.has_column("b")
