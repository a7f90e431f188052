"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.common import Column, CostModel, DataType, Schema
from repro.engines import RowIMCSEngine


def simple_schema(name: str = "t") -> Schema:
    return Schema(
        name,
        [
            Column("id", DataType.INT64),
            Column("value", DataType.FLOAT64),
            Column("tag", DataType.STRING),
        ],
        ["id"],
    )


@pytest.fixture
def schema() -> Schema:
    return simple_schema()


@pytest.fixture
def cost() -> CostModel:
    return CostModel()


@pytest.fixture
def mvcc_engine(schema) -> RowIMCSEngine:
    """Engine (a), the MVCC one, with ``simple_schema`` created."""
    engine = RowIMCSEngine()
    engine.create_table(schema)
    return engine


def populate(engine: RowIMCSEngine, table: str, n: int) -> None:
    with engine.session() as txn:
        for i in range(n):
            txn.insert(table, (i, float(i) * 2.0, f"tag{i % 5}"))
