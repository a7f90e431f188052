"""Distributed-substrate tests, and the wait they share."""


def run_until_quiet(net, max_us: float = 10_000_000.0) -> None:
    """Advance ``net`` until no message is in flight (bounded by ``max_us``)."""
    net.run_until(lambda: not net.pending(), net._cost.network_oneway_us, max_us)


def depose_leader(cluster, sid: int):
    """Cut shard ``sid``'s leader off from its fellow voters until the
    group elects a successor at a higher term; returns the deposed
    leader, which still believes it leads.  What it proposed and had
    not replicated sits in its log alone."""
    group = cluster._groups[sid]
    deposed = group.leader()
    for node_id in group.nodes:
        if node_id != deposed.node_id and not node_id.endswith(".learner"):
            cluster.network.partition(deposed.node_id, node_id)
    cluster.advance(30_000)
    assert group.leader() is not deposed
    return deposed
