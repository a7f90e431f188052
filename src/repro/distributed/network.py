"""A deterministic, event-driven simulated network.

Message passing and timers for the distributed substrate (architecture
(b)): every send is enqueued with a delivery time = now + one-way
latency, every Raft heartbeat or election deadline is a timer in a
second heap.  Simulated time advances hop by hop to each delivery
instant; what is due is delivered, then the due timers fire, so an
instant at which nothing is due costs O(1) however many groups exist.
Partitions drop messages in either direction.  Everything is seeded and
single-threaded, so Raft elections and 2PC outcomes are reproducible
bit-for-bit.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable

from ..common.cost import CostModel
from ..obs import Histogram, get_registry

Handler = Callable[[str, Any], None]
"""(source node id, message) -> None."""

#: The clock moving further than this between two timer passes means
#: the *whole world* was suspended (a long local computation advanced
#: the cost clock), not that a leader went silent — timer owners re-arm
#: instead of firing, like clock-jump guards in real systems.
_SUSPEND_GUARD_US = 1_000.0
_NEVER = float("inf")


class SimNetwork:
    """Message bus and timer heap over the shared simulated clock.

    A timer *owner* is any object with ``tick()`` (its timer came due),
    ``rearm()`` (the world was suspended, or a fault woke it) and a
    ``timer_due_us`` attribute the network keeps: the owner's one live
    deadline, ``None`` while parked.  Arming again supersedes it; a
    superseded heap entry is skipped when it surfaces.
    """

    def __init__(self, cost: CostModel | None = None):
        self._cost = cost or CostModel()
        self._clock = self._cost.clock
        self._handlers: dict[str, Handler] = {}
        # Heap entries are plain tuples compared in C; ``seq`` is unique,
        # so a comparison never reaches the payload.
        self._queue: list[tuple] = []   # (deliver_at, seq, src, dst, message, sent_at)
        self._timers: list[tuple] = []  # (due_us, seq, owner)
        self._seq = itertools.count()
        # owner -> rank: timers due at one instant fire in first-armed order.
        self._owners: dict[Any, int] = {}
        self._last_pass_us = self._clock.now_us()
        self._cut: set[frozenset[str]] = set()
        self._down: set[str] = set()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        registry = get_registry()
        self._m_sent = registry.counter("network.sent")
        self._m_delivered = registry.counter("network.delivered")
        self._m_dropped = registry.counter("network.dropped")
        self._link_hists: dict[tuple[str, str], Histogram] = {}

    # ------------------------------------------------------------- timers

    def arm(self, owner: Any, due_us: float) -> None:
        """``owner.tick()`` runs at the first timer pass at or after
        ``due_us``, unless the timer is re-armed first."""
        if owner not in self._owners:
            self._owners[owner] = next(self._seq)
        owner.timer_due_us = due_us
        heappush(self._timers, (due_us, next(self._seq), owner))

    def disarm(self, owner: Any) -> None:
        """Park ``owner``'s timer until it arms again (hibernation)."""
        owner.timer_due_us = None

    def cancel(self, owner: Any) -> None:
        """Forget ``owner`` and its timer (a retired Raft replica)."""
        owner.timer_due_us = None
        self._owners.pop(owner, None)

    def _rearm(self, parked: bool) -> None:
        """``rearm()`` the armed owners (the world was suspended) or the
        parked ones (a fault was injected: a hibernating follower has no
        election timer to notice a dead or unreachable leader with, so
        the fault itself has to be the wake signal)."""
        for owner in [o for o in self._owners if (o.timer_due_us is None) == parked]:
            owner.rearm()

    def _run_timers(self) -> None:
        """One timer pass: fire every due timer, in rank order — or, if
        the world was suspended since the last pass, re-arm instead
        (parked owners stay parked)."""
        now = self._clock.now_us()
        since, self._last_pass_us = self._last_pass_us, now
        if now - since > _SUSPEND_GUARD_US:
            self._rearm(parked=False)
            return
        timers = self._timers
        if not timers or timers[0][0] > now:
            return  # the common pass: nothing due
        due = {}
        while timers and timers[0][0] <= now:
            due_us, _seq, owner = heappop(timers)
            if owner.timer_due_us == due_us:
                due[owner] = self._owners[owner]
        for owner in sorted(due, key=due.__getitem__):
            owner.tick()

    # ------------------------------------------------------------- topology

    def register(self, node_id: str, handler: Handler) -> None:
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} already registered")
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        """Remove a node entirely (a merged-away shard's replicas).
        In-flight messages to it are dropped at delivery time."""
        self._handlers.pop(node_id, None)
        self._down.discard(node_id)

    def node_ids(self) -> list[str]:
        return list(self._handlers)

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self._cut.add(frozenset((a, b)))
        self._rearm(parked=True)

    def heal(self, a: str, b: str) -> None:
        self._cut.discard(frozenset((a, b)))
        self._rearm(parked=True)

    def heal_all(self) -> None:
        """Restore every cut link; crashed nodes stay down (:meth:`restart_all`)."""
        self._cut.clear()
        self._rearm(parked=True)

    def crash(self, node_id: str) -> None:
        """Silence a node: nothing is delivered to or from it."""
        self._down.add(node_id)
        self._rearm(parked=True)

    def restart(self, node_id: str) -> None:
        self._down.discard(node_id)
        self._rearm(parked=True)

    def restart_all(self) -> None:
        """Bring every crashed node back up (links are untouched)."""
        self._down.clear()
        self._rearm(parked=True)

    def is_up(self, node_id: str) -> bool:
        """The node has not crashed (or has restarted since)."""
        return node_id not in self._down

    def _link_ok(self, src: str, dst: str) -> bool:
        if src in self._down or dst in self._down:
            return False
        return frozenset((src, dst)) not in self._cut

    # ------------------------------------------------------------- transport

    def send(self, src: str, dst: str, message: Any) -> None:
        """Queue a message; latency/drops are decided at delivery time."""
        self.sent += 1
        self._m_sent.inc()
        now = self._clock.now_us()
        heappush(
            self._queue,
            (now + self._cost.network_oneway_us, next(self._seq), src, dst, message, now),
        )

    # ------------------------------------------------------------- simulation

    def pending(self) -> int:
        return len(self._queue)

    def advance(self, delta_us: float) -> int:
        """Advance simulated time by ``delta_us``, delivering en route.

        Time moves in hops to each delivery instant so that handlers
        observing ``now_us()`` see causally consistent clocks; a timer
        pass follows each hop's deliveries and the final stretch.  Links
        are checked only while a node is down or a link is cut.
        """
        clock = self._clock
        now_us = clock.now_us
        queue = self._queue
        handlers = self._handlers
        down, cut = self._down, self._cut
        hists = self._link_hists
        target = now_us() + delta_us
        delivered = dropped = 0
        try:
            while queue and queue[0][0] <= target:
                clock.advance(max(0.0, queue[0][0] - now_us()))
                now = now_us()
                while queue and queue[0][0] <= now:  # everything due at this instant
                    _at, _seq, src, dst, message, sent_at_us = heappop(queue)
                    handler = handlers.get(dst)
                    if handler is None or ((down or cut) and not self._link_ok(src, dst)):
                        dropped += 1
                        continue
                    handler(src, message)
                    delivered += 1
                    hist = hists.get((src, dst))
                    if hist is None:
                        hist = hists[(src, dst)] = get_registry().histogram(
                            "network.latency_us", link=f"{src}->{dst}"
                        )
                    hist.observe(now_us() - sent_at_us)
                self._run_timers()
        finally:
            # Counted once per call; no handler reads them mid-advance.
            self.delivered += delivered
            self.dropped += dropped
            self._m_delivered.inc(delivered)
            self._m_dropped.inc(dropped)
        remaining = target - now_us()
        if remaining > 0:
            clock.advance(remaining)
        self._run_timers()
        return delivered

    def run_until(
        self, predicate: Callable[[], bool], step_us: float, max_us: float
    ) -> float:
        """The one wait loop: advance in ``step_us`` steps, polling
        ``predicate()`` between them, until it holds.  Returns the time
        spent stepping; ``>= max_us`` means the budget ran out first.

        ``predicate`` must depend on simulated state only: steps that
        deliver nothing and fire no timer move nothing but the clock, so
        a run of them is taken in one jump without polling (the clock
        still accumulates step by step, so floats match a stepped run).
        """
        clock = self._clock
        spent = 0.0
        while spent < max_us and not predicate():
            horizon = min(
                self._queue[0][0] if self._queue else _NEVER,
                self._timers[0][0] if self._timers else _NEVER,
            )
            while spent < max_us:
                now = clock.now_us()
                target = now + step_us
                landing = now + (target - now)  # where advance() would stop
                busy = max(target, landing) >= horizon
                if busy or landing - self._last_pass_us > _SUSPEND_GUARD_US:
                    self.advance(step_us)
                    spent += step_us
                    break
                clock.advance(target - now)
                self._last_pass_us = landing
                spent += step_us
        return spent
