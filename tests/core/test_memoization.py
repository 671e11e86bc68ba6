"""Unit tests for memoized address translation (§4.1)."""

import numpy as np
import pytest

from repro.core.memoization import (
    _decode_exchange,
    _encode_exchange,
    exchange_address_books,
)
from repro.errors import SerializationError, SyncError
from repro.network.transport import InProcessTransport
from repro.partition import make_partitioner
from repro.partition.cartesian import CartesianVertexCut
from repro.partition.edge_cut import IncomingEdgeCut, OutgoingEdgeCut


def exchange(partitioned):
    transport = InProcessTransport(partitioned.num_hosts)
    books = exchange_address_books(partitioned, transport)
    return books, transport


class TestExchangeMessage:
    def test_roundtrip(self):
        gids = np.array([4, 9, 2], dtype=np.uint32)
        has_in = np.array([True, False, True])
        has_out = np.array([False, False, True])
        payload = _encode_exchange(gids, has_in, has_out)
        back_gids, back_in, back_out = _decode_exchange(payload)
        assert np.array_equal(back_gids, gids)
        assert np.array_equal(back_in, has_in)
        assert np.array_equal(back_out, has_out)

    def test_truncated_rejected(self):
        payload = _encode_exchange(
            np.array([1], dtype=np.uint32),
            np.array([True]),
            np.array([False]),
        )
        with pytest.raises(SerializationError):
            _decode_exchange(payload[:-1])
        with pytest.raises(SerializationError):
            _decode_exchange(b"\x01")


class TestAddressBooks:
    def test_figure6_structure(self, tiny_edges):
        """Figure 6: mirrors/masters arrays for the Figure 2 OEC partition."""
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 2)
        books, _ = exchange(partitioned)
        for host, peer in ((0, 1), (1, 0)):
            mirrors = books[host].mirrors_all[peer]
            masters = books[peer].masters_all[host]
            assert len(mirrors) == len(masters)
            # Aligned entries refer to the same global node.
            part_m = partitioned.partitions[host]
            part_o = partitioned.partitions[peer]
            assert np.array_equal(
                part_m.local_to_global[mirrors],
                part_o.local_to_global[masters],
            )

    def test_mirror_arrays_cover_all_mirrors(self, small_rmat):
        partitioned = CartesianVertexCut().partition(small_rmat, 4)
        books, _ = exchange(partitioned)
        for part in partitioned.partitions:
            book = books[part.host]
            total = sum(len(a) for a in book.mirrors_all.values())
            assert total == part.num_mirrors

    def test_master_arrays_hold_only_masters(self, small_rmat):
        partitioned = CartesianVertexCut().partition(small_rmat, 4)
        books, _ = exchange(partitioned)
        for part in partitioned.partitions:
            book = books[part.host]
            for arr in book.masters_all.values():
                if len(arr):
                    assert arr.max() < part.num_masters

    def test_structural_subsets_match_degrees(self, small_rmat):
        partitioned = CartesianVertexCut().partition(small_rmat, 4)
        books, _ = exchange(partitioned)
        for part in partitioned.partitions:
            book = books[part.host]
            in_deg = part.graph.in_degree()
            out_deg = part.graph.out_degree()
            for peer, mirrors in book.mirrors_all.items():
                expect_reduce = mirrors[in_deg[mirrors] > 0]
                expect_bcast = mirrors[out_deg[mirrors] > 0]
                assert np.array_equal(
                    book.mirrors_reduce[peer], expect_reduce
                )
                assert np.array_equal(
                    book.mirrors_broadcast[peer], expect_bcast
                )

    @pytest.mark.parametrize("num_hosts", [2, 4])
    @pytest.mark.parametrize(
        "policy", ["oec", "iec", "cvc", "hvc", "jagged", "random"]
    )
    def test_in_edge_subsets_match_in_degree(
        self, small_rmat, policy, num_hosts
    ):
        """The reduce/any subsets on both sides equal their in-degree
        definition, on every policy."""
        partitioned = make_partitioner(policy).partition(
            small_rmat, num_hosts
        )
        books, _ = exchange(partitioned)
        for part in partitioned.partitions:
            book = books[part.host]
            has_in = part.graph.in_degree() > 0
            has_out = part.graph.out_degree() > 0
            for peer, mirrors in book.mirrors_all.items():
                assert np.array_equal(
                    book.mirrors_reduce[peer], mirrors[has_in[mirrors]]
                )
                assert np.array_equal(
                    book.mirrors_any[peer],
                    mirrors[has_in[mirrors] | has_out[mirrors]],
                )
                masters = books[peer].masters_all[part.host]
                assert np.array_equal(
                    books[peer].masters_reduce[part.host],
                    masters[has_in[mirrors]],
                )
                assert np.array_equal(
                    books[peer].masters_any[part.host],
                    masters[has_in[mirrors] | has_out[mirrors]],
                )

    def test_oec_has_empty_broadcast_subsets(self, small_rmat):
        """OEC mirrors have no out-edges -> broadcast subsets are empty."""
        partitioned = OutgoingEdgeCut().partition(small_rmat, 4)
        books, _ = exchange(partitioned)
        for book in books:
            assert all(
                len(a) == 0 for a in book.mirrors_broadcast.values()
            )
            assert all(len(a) == 0 for a in book.masters_broadcast.values())

    def test_iec_has_empty_reduce_subsets(self, small_rmat):
        """IEC mirrors have no in-edges -> reduce subsets are empty."""
        partitioned = IncomingEdgeCut().partition(small_rmat, 4)
        books, _ = exchange(partitioned)
        for book in books:
            assert all(len(a) == 0 for a in book.mirrors_reduce.values())
            assert all(len(a) == 0 for a in book.masters_reduce.values())

    def test_subset_alignment_across_hosts(self, small_rmat):
        """Restricted mirror/master arrays stay element-aligned (the
        property the whole memoized wire format depends on)."""
        partitioned = CartesianVertexCut().partition(small_rmat, 6)
        books, _ = exchange(partitioned)
        for host in range(6):
            for peer in range(6):
                if host == peer:
                    continue
                mirrors = books[host].mirrors_reduce[peer]
                masters = books[peer].masters_reduce[host]
                assert np.array_equal(
                    partitioned.partitions[host].local_to_global[mirrors],
                    partitioned.partitions[peer].local_to_global[masters],
                )

    def test_exchange_traffic_is_counted(self, small_rmat):
        partitioned = CartesianVertexCut().partition(small_rmat, 4)
        _, transport = exchange(partitioned)
        assert transport.stats.total_bytes > 0

    def test_single_host_exchange_is_silent(self, small_rmat):
        partitioned = OutgoingEdgeCut().partition(small_rmat, 1)
        books, transport = exchange(partitioned)
        assert transport.stats.total_bytes == 0
        assert books[0].peers_with_my_mirrors() == []

    def test_transport_size_mismatch_rejected(self, small_rmat):
        partitioned = OutgoingEdgeCut().partition(small_rmat, 2)
        with pytest.raises(SyncError):
            exchange_address_books(partitioned, InProcessTransport(3))

    def test_peer_listing(self, tiny_edges):
        partitioned = OutgoingEdgeCut().partition(tiny_edges, 2)
        books, _ = exchange(partitioned)
        assert books[0].peers_with_my_mirrors() == [1]
        assert books[1].peers_with_my_masters() == [0]
