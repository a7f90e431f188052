"""htaplint rules — importing this package registers every rule.

Each module calls :func:`repro.analysis.core.register` at import time;
the driver imports this package lazily so adding a rule means adding a
module here, nothing else.  HTL001, HTL002, HTL004 and HTL005 are
module-local (name-based callgraph); HTL006–HTL009 are whole-program (project index + CFG
dominance, see :mod:`repro.analysis.project` /
:mod:`repro.analysis.dataflow`).
"""

from . import (
    buffer_escape,
    determinism,
    epoch_guard,
    error_swallow,
    invalidation,
    metric_names,
    nondet_iter,
    retry_discipline,
)

__all__ = [
    "buffer_escape",
    "determinism",
    "epoch_guard",
    "error_swallow",
    "invalidation",
    "metric_names",
    "nondet_iter",
    "retry_discipline",
]
