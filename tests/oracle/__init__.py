"""The one brute-force reference every differential test compares against.

* :mod:`.table` — a dict table: ``(kind, key, row, ts)`` applied in
  commit order, last writer wins.  What any sync / replay / compact
  path must leave in a column image.
* :mod:`.query` — a row-at-a-time evaluator of the ``Query`` AST over
  lists of tuples, and the dict join over two key columns.  What any
  executor path must return.
* :mod:`.scan` — a full-decode scan of a column store's segments.  What
  any pruned / code-space scan must return.
* :mod:`.charges` — a simulated clock that logs its advances.  What a
  refactored call must still charge, call by call.
* :mod:`.hashing` — the recursive ring hash.  What every placement
  point must equal, whatever the fast paths.
* :mod:`.two_phase` — classic two-round 2PC over a cluster's Raft
  regions.  What the one-round commit paths must agree with, and the
  cost they are measured against.
* :mod:`.history` — an Adya-style search over a client-observed
  transaction history (G0, G1a/b/c, lost update).  What any interleaving
  of sessions must be free of.

The first two are plain Python and share only schema/AST definitions and
the row-mode ``Predicate.matches`` with the code under test; the scan
reference adds the codecs' public ``decode()`` and ``Predicate.mask``.
"""

from .charges import ChargeLog, logged_cost
from .query import assert_matches, dict_join_positions, evaluate, filter_rows
from .scan import reference_scan
from .table import TableModel, store_state

__all__ = [
    "ChargeLog",
    "TableModel",
    "assert_matches",
    "dict_join_positions",
    "evaluate",
    "filter_rows",
    "logged_cost",
    "reference_scan",
    "store_state",
]
