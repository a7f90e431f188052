"""Distributed-substrate tests, and the wait they share."""


def run_until_quiet(net, max_us: float = 10_000_000.0) -> None:
    """Advance ``net`` until no message is in flight (bounded by ``max_us``)."""
    net.run_until(lambda: not net.pending(), net._cost.network_oneway_us, max_us)
