"""Data synchronization (DS) techniques from Table 2 of the survey."""

from .delta_merge import InMemoryDeltaMerger, MergeStats
from .log_merge import LogDeltaMerger, LogMergeStats
from .rebuild import ColumnStoreRebuilder, RebuildStats

__all__ = [
    "ColumnStoreRebuilder",
    "InMemoryDeltaMerger",
    "LogDeltaMerger",
    "LogMergeStats",
    "MergeStats",
    "RebuildStats",
]
