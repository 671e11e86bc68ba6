"""Host construction pinned to its reference definition (hypothesis).

``build_local_partition`` marks incident nodes in a boolean array and
translates global IDs by a sorted search.  These properties restate the
definition the vectorized passes must reproduce exactly: local IDs are
the owned nodes, then the incident nodes owned elsewhere, each sorted,
with the incident set taken by ``np.unique`` over the host's edge
endpoints (plus any extra proxies).  Lookups must agree with a plain
dict built from that table, and miss on every other ID.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.gemini import GeminiPartitioner
from repro.graph.edgelist import EdgeList
from repro.partition import PARTITIONER_BY_NAME, make_partitioner

POLICIES = sorted(PARTITIONER_BY_NAME) + ["gemini-push", "gemini-pull"]


def _partitioner(policy):
    if policy.startswith("gemini-"):
        return GeminiPartitioner(policy.split("-", 1)[1])
    return make_partitioner(policy)


@st.composite
def graphs_with_isolated_nodes(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=50))
    # Endpoints come from a prefix, so the tail nodes are isolated.
    span = draw(st.integers(min_value=1, max_value=num_nodes))
    num_edges = draw(st.integers(min_value=0, max_value=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(0, span, size=num_edges, dtype=np.uint32)
    dst = rng.integers(0, span, size=num_edges, dtype=np.uint32)
    return EdgeList(num_nodes, src, dst)


@given(
    edges=graphs_with_isolated_nodes(),
    num_hosts=st.integers(min_value=1, max_value=9),
    policy=st.sampled_from(POLICIES),
)
@settings(max_examples=150, deadline=None)
def test_construction_matches_reference_definition(edges, num_hosts, policy):
    partitioner = _partitioner(policy)
    assignment = partitioner.assign(edges, num_hosts)
    partitioned = partitioner.partition(edges, num_hosts)
    n = edges.num_nodes
    for host, part in enumerate(partitioned.partitions):
        mask = assignment.edge_host == host
        endpoints = [edges.src[mask], edges.dst[mask]]
        if assignment.extra_proxies is not None:
            endpoints.append(
                np.asarray(assignment.extra_proxies[host], dtype=np.uint32)
            )
        incident = np.unique(np.concatenate(endpoints)).astype(np.int64)
        owned = np.flatnonzero(assignment.master_host == host)
        mirrors = incident[assignment.master_host[incident] != host]
        assert np.array_equal(
            part.local_to_global, np.concatenate([owned, mirrors])
        )
        assert part.num_masters == len(owned)
        assert np.array_equal(
            part.mirror_master_host, assignment.master_host[mirrors]
        )

        table = {int(g): lid for lid, g in enumerate(part.local_to_global)}
        probes = list(range(-2, n + 2)) + [2**32 + g for g in range(n)]
        for gid in probes:
            assert part.has_proxy(gid) == (gid in table), gid
            if gid in table:
                assert part.to_local(gid) == table[gid]
            else:
                with pytest.raises(KeyError):
                    part.to_local(gid)
