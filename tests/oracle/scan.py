"""Reference column scan: decode everything, then filter."""

from __future__ import annotations

import numpy as np

from repro.common.predicate import ALWAYS_TRUE


def reference_scan(store, columns=None, predicate=ALWAYS_TRUE, with_keys=True):
    """``(arrays, keys)`` of a full-decode scan of ``store``: per segment
    decode every needed column, ``predicate.mask`` the decoded arrays,
    drop deleted rows, concatenate in segment order.  What a pruned,
    code-space, late-materializing scan must equal byte for byte;
    ``keys`` is None without ``with_keys``."""
    schema = store.schema
    wanted = list(columns) if columns is not None else schema.column_names
    needed = set(wanted) | predicate.referenced_columns()
    parts = {name: [] for name in wanted}
    keys = [] if with_keys else None
    for segment in store.segments:
        decoded = {name: segment.encodings[name].decode() for name in needed}
        mask = np.asarray(predicate.mask(decoded), dtype=bool) & ~segment.delete_mask
        if not mask.any():
            continue
        for name in wanted:
            parts[name].append(decoded[name][mask])
        if with_keys:
            keys.extend(k for k, hit in zip(segment.keys, mask) if hit)
    arrays = {
        name: np.concatenate(pieces)
        if pieces
        else np.array([], dtype=schema.column(name).dtype.numpy_dtype)
        for name, pieces in parts.items()
    }
    return arrays, keys
