"""Distributed substrate: simulated network, Raft, one-round 2PC, shards, cluster."""

from .cluster import (
    BusyLedger,
    DistributedCluster,
    RegionStateMachine,
    WriteKind,
    WriteOp,
)
from .metadata import (
    RING_SIZE,
    MetadataService,
    PlacementKey,
    PlacementPolicy,
    Shard,
    ShardMap,
    ShardMapDelta,
    hash_point,
)
from .network import SimNetwork
from .partitioner import placement_point
from .raft import (
    AppendEntries,
    AppendEntriesReply,
    LogEntry,
    RaftGroup,
    RaftNode,
    RequestVote,
    RequestVoteReply,
    Role,
)
from .replica import ColumnarReplica
from .resharding import (
    MigrationTap,
    ReshardOperation,
    ReshardPhase,
    ShardMerge,
    ShardMigrate,
    ShardSplit,
)
from .router import Router
from .two_phase_commit import (
    PiggybackCoordinator,
    TwoPhaseResult,
    TxnOutcome,
    Vote,
)

__all__ = [
    "AppendEntries",
    "AppendEntriesReply",
    "BusyLedger",
    "ColumnarReplica",
    "DistributedCluster",
    "LogEntry",
    "MetadataService",
    "MigrationTap",
    "PiggybackCoordinator",
    "PlacementKey",
    "PlacementPolicy",
    "RING_SIZE",
    "RaftGroup",
    "RaftNode",
    "RegionStateMachine",
    "RequestVote",
    "RequestVoteReply",
    "ReshardOperation",
    "ReshardPhase",
    "Role",
    "Router",
    "Shard",
    "ShardMap",
    "ShardMapDelta",
    "ShardMerge",
    "ShardMigrate",
    "ShardSplit",
    "SimNetwork",
    "TwoPhaseResult",
    "TxnOutcome",
    "Vote",
    "WriteKind",
    "WriteOp",
    "hash_point",
    "placement_point",
]
