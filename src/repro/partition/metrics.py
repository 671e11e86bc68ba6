"""Partition quality metrics and invariant verification.

:func:`compute_metrics` reports the quantities §5.2 discusses — replication
factor, per-host edge balance, mirror counts — and
:func:`verify_partition` checks that a built partition actually satisfies
both the generic proxy invariants of §2.2 and the structural invariants its
strategy declares (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.partition.base import PartitionedGraph
from repro.partition.strategy import (
    MIRROR_MAY_HAVE_BOTH_DIRECTIONS,
    MIRROR_MAY_HAVE_IN_EDGES,
    MIRROR_MAY_HAVE_OUT_EDGES,
)


@dataclass(frozen=True)
class PartitionMetrics:
    """Quality summary of one partitioned graph."""

    policy: str
    num_hosts: int
    replication_factor: float
    total_masters: int
    total_mirrors: int
    max_edges_per_host: int
    mean_edges_per_host: float
    edge_imbalance: float  # max / mean

    def as_row(self) -> dict:
        """Return the metrics as a plain dict row."""
        return {
            "policy": self.policy,
            "hosts": self.num_hosts,
            "replication": round(self.replication_factor, 3),
            "mirrors": self.total_mirrors,
            "edge imbalance": round(self.edge_imbalance, 3),
        }


def compute_metrics(partitioned: PartitionedGraph) -> PartitionMetrics:
    """Compute :class:`PartitionMetrics` for a partitioned graph."""
    edges_per_host = np.array(
        [p.graph.num_edges for p in partitioned.partitions], dtype=np.float64
    )
    mean_edges = float(edges_per_host.mean()) if len(edges_per_host) else 0.0
    max_edges = float(edges_per_host.max()) if len(edges_per_host) else 0.0
    return PartitionMetrics(
        policy=partitioned.policy_name,
        num_hosts=partitioned.num_hosts,
        replication_factor=partitioned.replication_factor(),
        total_masters=sum(p.num_masters for p in partitioned.partitions),
        total_mirrors=sum(p.num_mirrors for p in partitioned.partitions),
        max_edges_per_host=int(max_edges),
        mean_edges_per_host=mean_edges,
        edge_imbalance=(max_edges / mean_edges) if mean_edges else 0.0,
    )


def verify_partition(partitioned: PartitionedGraph) -> List[str]:
    """Verify a partition; returns a list of violation descriptions.

    An empty list means the partition is sound.  Checks:

    1. Every global node has exactly one master proxy, on its owner host.
    2. Edge conservation: local edge counts sum to the global edge count.
    3. Mirror bookkeeping: recorded master hosts match ``master_host``.
    4. The strategy's structural invariants on mirror edge directions.
    """
    violations: List[str] = []
    master_count = np.zeros(partitioned.num_global_nodes, dtype=np.int64)
    total_edges = 0
    strategy = partitioned.strategy
    may_out = MIRROR_MAY_HAVE_OUT_EDGES[strategy]
    may_in = MIRROR_MAY_HAVE_IN_EDGES[strategy]
    may_both = MIRROR_MAY_HAVE_BOTH_DIRECTIONS[strategy]
    for part in partitioned.partitions:
        total_edges += part.graph.num_edges
        master_gids = part.local_to_global[: part.num_masters]
        master_count[master_gids] += 1
        owner = partitioned.master_host[master_gids]
        if np.any(owner != part.host):
            violations.append(
                f"host {part.host}: holds masters owned by another host"
            )
        mirror_gids = part.local_to_global[part.num_masters :]
        recorded = part.mirror_master_host
        actual = partitioned.master_host[mirror_gids]
        if np.any(recorded != actual):
            violations.append(
                f"host {part.host}: mirror_master_host out of date"
            )
        if np.any(actual == part.host):
            violations.append(
                f"host {part.host}: holds a mirror of a node it owns"
            )
        out_deg = part.graph.out_degree()
        has_in = part.graph.has_in_edges()
        mirror_slice = slice(part.num_masters, part.num_nodes)
        mirror_out = out_deg[mirror_slice]
        mirror_in = has_in[mirror_slice]
        if not may_out and np.any(mirror_out > 0):
            violations.append(
                f"host {part.host}: {strategy.value} mirror with out-edges"
            )
        if not may_in and np.any(mirror_in):
            violations.append(
                f"host {part.host}: {strategy.value} mirror with in-edges"
            )
        if not may_both and np.any((mirror_out > 0) & mirror_in):
            violations.append(
                f"host {part.host}: {strategy.value} mirror with both edge "
                "directions"
            )
        if not partitioned.has_edgeless_mirrors and np.any(
            (mirror_out == 0) & ~mirror_in
        ):
            violations.append(
                f"host {part.host}: mirror proxy with no incident edges"
            )
    if np.any(master_count != 1):
        bad = int(np.flatnonzero(master_count != 1)[0])
        violations.append(
            f"global node {bad} has {int(master_count[bad])} masters "
            "(expected exactly 1)"
        )
    if total_edges != partitioned.num_global_edges:
        violations.append(
            f"edge conservation broken: {total_edges} local vs "
            f"{partitioned.num_global_edges} global"
        )
    return violations


def assert_partition_valid(partitioned: PartitionedGraph) -> None:
    """Raise :class:`PartitionError` if :func:`verify_partition` finds issues."""
    violations = verify_partition(partitioned)
    if violations:
        raise PartitionError("; ".join(violations))
