"""Dense pull kernels report the graph's cached in-edge mask as written.

Every proxy with a local in-edge is written by a topology-driven pull
step, every round, so the kernels return ``part.graph.has_in_edges()``
instead of rebuilding the same mask from their edge arrays each call.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.partition.cartesian import CartesianVertexCut
from repro.systems import prepare_input

#: ``make_state`` keys per app.  The mask lives on the graph, not in the
#: state: every node-length state array migrates and is checkpointed, so
#: a new key here would change what repartitioning and recovery move.
STATE_KEYS = {
    "pr": {"acc", "contrib", "damping", "edge_dst", "edge_src",
           "out_degree", "rank", "residual"},
    "featprop": {"acc", "compression", "edge_dst", "edge_src", "feat",
                 "residual"},
    "labelprop": {"acc", "compression", "edge_dst", "edge_src", "feat",
                  "label", "residual"},
}
STATE_KEYS["pr@compiled"] = STATE_KEYS["pr"]
STATE_KEYS["featprop@compiled"] = STATE_KEYS["featprop"]


@pytest.mark.parametrize("app_name", sorted(STATE_KEYS))
def test_step_returns_the_cached_in_edge_mask(small_rmat, app_name):
    prepared = prepare_input(app_name, small_rmat)
    partitioned = CartesianVertexCut().partition(prepared.edges, 4)
    app = make_app(app_name)
    for part in partitioned.partitions:
        state = app.make_state(part, prepared.ctx)
        assert set(state) == STATE_KEYS[app_name]
        frontier = app.initial_frontier(part, state, prepared.ctx)
        first = app.step(part, state, frontier, "pull").updated
        second = app.step(part, state, frontier, "pull").updated
        assert first is second is part.graph.has_in_edges()
        assert not first.flags.writeable
        expected = np.zeros(part.num_nodes, dtype=bool)
        expected[state["edge_dst"]] = True
        assert np.array_equal(first, expected)
