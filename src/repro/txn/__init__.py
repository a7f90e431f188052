"""Transactions: MVCC snapshot isolation, WAL, recovery."""

from .recovery import recover, verify_recovery
from .transaction import (
    CommitListener,
    Transaction,
    TransactionManager,
    TxnStatus,
)
from .wal import WalKind, WalRecord, WriteAheadLog

__all__ = [
    "CommitListener",
    "Transaction",
    "TransactionManager",
    "TxnStatus",
    "WalKind",
    "WalRecord",
    "WriteAheadLog",
    "recover",
    "verify_recovery",
]
