"""Vectorized global->local translation (LocalPartition.to_local_array).

The bulk path backs every GLOBAL_IDS decode and the memoization
exchange, so it must agree with the scalar ``to_local`` on every proxy
and reject unknown IDs the same way.
"""

import numpy as np
import pytest

from repro.graph.edgelist import EdgeList
from repro.graph.generators import rmat
from repro.partition.edge_cut import OutgoingEdgeCut


@pytest.fixture(scope="module")
def partitions():
    edges = rmat(scale=7, edge_factor=6, seed=21)
    return OutgoingEdgeCut().partition(edges, 3).partitions


class TestToLocalArray:
    def test_matches_scalar_on_every_proxy(self, partitions):
        for part in partitions:
            gids = part.local_to_global.copy()
            lids = part.to_local_array(gids)
            assert lids.dtype == np.uint32
            assert np.array_equal(lids, np.arange(part.num_nodes))
            expected = np.array(
                [part.to_local(int(g)) for g in gids], dtype=np.uint32
            )
            assert np.array_equal(lids, expected)

    def test_shuffled_and_repeated_ids(self, partitions):
        part = partitions[0]
        rng = np.random.default_rng(4)
        gids = rng.choice(part.local_to_global, size=200, replace=True)
        lids = part.to_local_array(gids)
        assert np.array_equal(part.local_to_global[lids], gids)

    def test_empty_input(self, partitions):
        part = partitions[0]
        out = part.to_local_array(np.empty(0, dtype=np.uint32))
        assert out.dtype == np.uint32
        assert len(out) == 0

    def test_unknown_gid_raises_keyerror_naming_first_miss(
        self, partitions
    ):
        part = partitions[0]
        held = set(int(g) for g in part.local_to_global)
        missing = next(g for g in range(10_000_000) if g not in held)
        gids = np.array(
            [int(part.local_to_global[0]), missing], dtype=np.uint32
        )
        with pytest.raises(KeyError) as excinfo:
            part.to_local_array(gids)
        assert excinfo.value.args[0] == missing

    def test_accepts_non_uint32_input(self, partitions):
        part = partitions[0]
        gids = part.local_to_global[:5].astype(np.int64)
        assert np.array_equal(
            part.to_local_array(gids), np.arange(5, dtype=np.uint32)
        )


class TestMisses:
    def test_host_without_proxies_raises_keyerror(self):
        edges = EdgeList(
            num_nodes=2,
            src=np.array([0], dtype=np.uint32),
            dst=np.array([1], dtype=np.uint32),
        )
        empty = OutgoingEdgeCut().partition(edges, 2).partitions[0]
        assert empty.num_nodes == 0
        with pytest.raises(KeyError) as excinfo:
            empty.to_local_array(np.array([0]))
        assert excinfo.value.args[0] == 0
        assert not empty.has_proxy(0)

    def test_ids_past_uint32_do_not_wrap(self, partitions):
        part = partitions[0]
        gid = int(part.local_to_global[0])
        with pytest.raises(KeyError) as excinfo:
            part.to_local_array(np.array([gid, 2**32 + gid]))
        assert excinfo.value.args[0] == 2**32 + gid
        assert not part.has_proxy(2**32 + gid)

    def test_negative_ids_miss_by_their_own_value(self, partitions):
        part = partitions[0]
        with pytest.raises(KeyError) as excinfo:
            part.to_local_array(np.array([-1]))
        assert excinfo.value.args[0] == -1
        assert not part.has_proxy(-1)
        with pytest.raises(KeyError):
            part.to_local(-1)
