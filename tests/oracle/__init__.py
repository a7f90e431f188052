"""The one brute-force reference every differential test compares against.

* :mod:`.table` — a dict table: ``(kind, key, row, ts)`` applied in
  commit order, last writer wins.  What any sync / replay / compact
  path must leave in a column image.
* :mod:`.query` — a row-at-a-time evaluator of the ``Query`` AST over
  lists of tuples.  What any executor path must return.

Plain Python throughout; shares only schema/AST definitions and the
row-mode ``Predicate.matches`` with the code under test.
"""

from .query import assert_matches, evaluate, filter_rows
from .table import TableModel, store_state

__all__ = ["TableModel", "assert_matches", "evaluate", "filter_rows", "store_state"]
