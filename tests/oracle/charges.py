"""Per-call charge pins: what one call advanced the simulated clock by."""

from __future__ import annotations

from repro.common import CostModel, SimClock


class ChargeLog(SimClock):
    """A clock that keeps every advance made on it.

    :meth:`call` runs one call and returns ``[advances, microseconds]``:
    how many separate charges the call made and their sum taken in
    charge order from zero.  Both are exact — the sum does not depend on
    what the clock had already accumulated — so a pin recorded at one
    commit repeats to the last bit at any commit that charges the same
    amounts in the same order, and a refactor that merges, splits,
    reorders or drops a charge shows in the call that did it.
    """

    def __init__(self) -> None:
        super().__init__()
        self._advances: list[float] = []

    def advance(self, delta_us: float) -> None:
        self._advances.append(delta_us)
        super().advance(delta_us)

    def call(self, fn, *args, **kwargs):
        """``(fn's result, [advances, microseconds])``."""
        self._advances = []
        result = fn(*args, **kwargs)
        return result, [len(self._advances), sum(self._advances, 0.0)]


def logged_cost() -> tuple[CostModel, ChargeLog]:
    log = ChargeLog()
    return CostModel(clock=log), log
