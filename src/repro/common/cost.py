"""The calibrated cost model that accounts simulated time.

Every storage/network/compute primitive has a cost in simulated
microseconds.  The constants are not meant to match any specific
hardware; they preserve the *ratios* that drive the paper's qualitative
claims:

* scanning one value in a columnar segment is much cheaper than touching
  one row in a row store (vectorization + cache locality, the premise of
  every HTAP design in the survey);
* a disk page read dwarfs any in-memory operation (why Heatwave-style
  systems bolt an in-memory column store onto a disk RDBMS);
* a network round trip dwarfs local work (why 2PC+Raft commits are slow
  but scale out, Table 2's TP row);
* a GPU scans values faster than a CPU but pays a fixed launch cost and
  a per-value transfer cost (Table 2's CPU/GPU row).

All engines share one :class:`CostModel` instance wired to one
:class:`~repro.common.clock.SimClock`, so time composes across
subsystems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .clock import SimClock


@dataclass
class CostModel:
    """Cost constants (simulated microseconds) plus the clock they feed."""

    clock: SimClock = field(default_factory=SimClock)

    # --- in-memory row store -------------------------------------------------
    row_point_read_us: float = 1.0      # hash-index probe + version walk
    row_point_write_us: float = 1.5     # install a new version
    row_scan_per_row_us: float = 0.5    # full scan, per visible row
    index_lookup_us: float = 1.2        # B+-tree descent
    index_scan_per_row_us: float = 0.4  # leaf-chain walk, per row

    # --- columnar store ------------------------------------------------------
    column_scan_per_value_us: float = 0.02   # vectorized scan, per value
    column_materialize_per_row_us: float = 0.15  # stitch row from columns
    delta_scan_per_row_us: float = 0.6       # unsorted in-memory delta probe
    segment_seal_per_row_us: float = 0.3     # encode one row into a segment
    zone_map_check_us: float = 0.05          # min/max probe, per segment
    code_filter_per_value_us: float = 0.004  # predicate on dictionary codes / runs
    code_gather_per_value_us: float = 0.006  # hand a dictionary code downstream
    code_remap_per_value_us: float = 0.003   # rewrite a code into a merged dictionary

    # --- logging / disk --------------------------------------------------------
    wal_append_us: float = 2.0
    wal_fsync_us: float = 25.0
    page_read_us: float = 120.0          # buffer-pool miss
    page_write_us: float = 150.0
    buffer_hit_us: float = 0.8

    # --- delta merge / sync ----------------------------------------------------
    merge_per_row_us: float = 0.8        # move one delta row into the main store
    dict_rebuild_per_value_us: float = 0.12
    rebuild_per_row_us: float = 0.5      # full rebuild from the row store

    # --- network (simulated cluster) --------------------------------------------
    network_rtt_us: float = 500.0        # intra-DC round trip
    network_oneway_us: float = 250.0
    network_per_kb_us: float = 8.0

    # --- heterogeneous hardware --------------------------------------------------
    gpu_kernel_launch_us: float = 15.0
    gpu_scan_per_value_us: float = 0.002
    gpu_transfer_per_value_us: float = 0.008  # PCIe, per resident value
    cpu_dispatch_us: float = 0.3

    # --- generic compute ---------------------------------------------------------
    hash_build_per_row_us: float = 0.25
    hash_probe_per_row_us: float = 0.15
    sort_per_row_us: float = 0.35
    agg_per_value_us: float = 0.01
    distinct_per_row_us: float = 0.12        # dedup hashing, per input row
    residual_filter_per_row_us: float = 0.05  # post-join equality filter, per row
    cache_probe_us: float = 0.5              # snapshot-scan cache hit

    # --- accounting: the clock's own bound methods -----------------------------
    # ``charge(micros)`` accrues ``micros`` of simulated time and
    # ``now_us()`` reads the clock.  They are the clock's ``advance`` and
    # ``now_us`` themselves, bound in ``__post_init__``, so a charge is
    # one Python call, not two (an OLTP run makes ~10^5 of each).  The
    # clock still sees every advance.  A clock given at construction
    # (``fork_detached``, ``dataclasses.replace``) is bound there;
    # nothing reassigns ``clock`` afterwards.
    charge: Callable[[float], None] = field(init=False, repr=False, compare=False)
    now_us: Callable[[], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.charge = self.clock.advance
        self.now_us = self.clock.now_us

    # -- accounting helpers -------------------------------------------------------

    def charge_rows(self, per_row_us: float, n_rows: int) -> None:
        self.clock.advance(per_row_us * n_rows)

    def fork_detached(self) -> "CostModel":
        """A copy with the same constants but a fresh, independent clock.

        Used when a subsystem needs private accounting (e.g. measuring
        just the merge cost) without advancing the shared timeline.
        """
        return replace(self, clock=SimClock())


DEFAULT_COST_MODEL = CostModel()
