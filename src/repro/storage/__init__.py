"""Storage substrates: row stores, column store, delta stores, B+-tree."""

from .btree import BPlusTree
from .column_store import (
    ColumnScanResult,
    ColumnStore,
    Segment,
    ZoneMap,
    build_zone_map,
)
from .compression import (
    BitPackedEncoding,
    DictionaryEncoding,
    Encoding,
    PlainEncoding,
    RunLengthEncoding,
    choose_encoding,
    encoding_for_name,
)
from .delta_batch import CollapseResult, DeltaBatch, collapse_batch, encode_keys
from .delta_log import DeltaLogFile, LogDeltaManager
from .delta_store import DeltaEntry, DeltaKind, InMemoryDeltaStore, collapse_entries
from .disk_row_store import DiskRowStore
from .imcu import InMemoryColumnUnit, SnapshotMetadataUnit
from .mv_index import MultiVersionIndex
from .pages import PAGE_CAPACITY, BufferPool, Page
from .row_store import MVCCRowStore, RowVersion

__all__ = [
    "BPlusTree",
    "BitPackedEncoding",
    "BufferPool",
    "CollapseResult",
    "ColumnScanResult",
    "ColumnStore",
    "DeltaBatch",
    "DeltaEntry",
    "DeltaKind",
    "DeltaLogFile",
    "DictionaryEncoding",
    "DiskRowStore",
    "Encoding",
    "InMemoryColumnUnit",
    "InMemoryDeltaStore",
    "LogDeltaManager",
    "MVCCRowStore",
    "MultiVersionIndex",
    "PAGE_CAPACITY",
    "Page",
    "PlainEncoding",
    "RowVersion",
    "RunLengthEncoding",
    "Segment",
    "SnapshotMetadataUnit",
    "ZoneMap",
    "build_zone_map",
    "choose_encoding",
    "collapse_batch",
    "collapse_entries",
    "encode_keys",
    "encoding_for_name",
]
