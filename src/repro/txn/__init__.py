"""Transactions: the write-set commit rules and the write-ahead log.

Every engine's session is :class:`repro.engines.base.WriteSetSession`;
(a), (c) and (d) commit and recover through
:class:`repro.engines.base.LoggedEngine` over :class:`WriteAheadLog`.
"""

from .transaction import coalesce_writes, first_committer_wins
from .wal import WalKind, WalRecord, WriteAheadLog

__all__ = [
    "WalKind",
    "WalRecord",
    "WriteAheadLog",
    "coalesce_writes",
    "first_committer_wins",
]
