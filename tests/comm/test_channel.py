"""Channel layer: staging, flushing, drain checks, and the comm plane."""

import pytest

from repro.comm.channel import Channel, CommPlane
from repro.comm.frame import decode_frame, frame_overhead
from repro.errors import SyncError, TransportError
from repro.network.transport import InProcessTransport
from repro.observability.metrics import MetricsRegistry


class TestChannel:
    def test_stage_then_take_frame(self):
        chan = Channel(0, 1)
        chan.stage(2, b"second")
        chan.stage(0, b"first")
        assert chan.staged_fields == 2
        frame = chan.take_frame(3)
        assert decode_frame(frame) == [b"first", None, b"second"]
        assert chan.staged_fields == 0

    def test_idle_channel_takes_no_frame(self):
        assert Channel(0, 1).take_frame(4) is None

    def test_duplicate_stage_rejected(self):
        chan = Channel(0, 1)
        chan.stage(1, b"x")
        with pytest.raises(SyncError, match="already staged"):
            chan.stage(1, b"y")

    def test_negative_field_index_rejected(self):
        with pytest.raises(SyncError, match=">= 0"):
            Channel(0, 1).stage(-1, b"x")

    def test_staged_index_outside_frame_rejected(self):
        chan = Channel(0, 1)
        chan.stage(5, b"x")
        with pytest.raises(SyncError, match="outside the 3-field frame"):
            chan.take_frame(3)

    def test_assert_drained_passes_when_empty(self):
        chan = Channel(0, 1)
        chan.stage(0, b"x")
        chan.take_frame(1)
        chan.assert_drained()

    def test_assert_drained_names_the_channel_and_fields(self):
        chan = Channel(2, 5)
        chan.stage(1, b"x")
        chan.stage(3, b"y")
        with pytest.raises(
            TransportError, match=r"channel 2->5 holds 2 staged"
        ) as excinfo:
            chan.assert_drained()
        assert "[1, 3]" in str(excinfo.value)


class TestCommPlane:
    def test_no_self_channel(self):
        plane = CommPlane(1, InProcessTransport(2))
        with pytest.raises(SyncError, match="no channel to itself"):
            plane.channel(1)

    def test_aggregate_buffers_until_flush(self):
        transport = InProcessTransport(3)
        plane = CommPlane(0, transport, aggregate=True)
        plane.stage(1, 0, b"aa")
        plane.stage(2, 1, b"bb")
        assert transport.receive_all(1) == []
        flushed = plane.flush(2, peer_order=[1, 2])
        assert [peer for peer, _ in flushed] == [1, 2]
        (sender, frame), = transport.receive_all(1)
        assert sender == 0
        assert decode_frame(frame) == [b"aa", None]
        (sender, frame), = transport.receive_all(2)
        assert decode_frame(frame) == [None, b"bb"]

    def test_flush_reports_frame_bytes(self):
        transport = InProcessTransport(2)
        plane = CommPlane(0, transport, aggregate=True)
        plane.stage(1, 0, b"abc")
        ((peer, nbytes),) = plane.flush(2, peer_order=[1])
        assert peer == 1
        assert nbytes == frame_overhead(2) + 3
        transport.receive_all(1)

    def test_pass_through_sends_immediately(self):
        transport = InProcessTransport(2)
        plane = CommPlane(0, transport, aggregate=False)
        plane.stage(1, 0, b"raw")
        assert transport.receive_all(1) == [(0, b"raw")]
        assert plane.flush(1, peer_order=[1]) == []
        plane.assert_drained()  # nothing ever buffers in pass-through

    def test_pass_through_receives_one_slot_frames(self):
        transport = InProcessTransport(3)
        for src in (1, 2):
            CommPlane(src, transport, aggregate=False).stage(
                0, 0, b"raw%d" % src
            )
        plane = CommPlane(0, transport, aggregate=False)
        assert plane.receive_frames() == [(1, [b"raw1"]), (2, [b"raw2"])]

    def test_flush_clears_and_plane_drains(self):
        transport = InProcessTransport(2)
        plane = CommPlane(0, transport, aggregate=True)
        plane.stage(1, 0, b"x")
        plane.flush(1, peer_order=[1])
        plane.assert_drained()
        transport.receive_all(1)

    def test_unflushed_plane_fails_drain_check(self):
        plane = CommPlane(0, InProcessTransport(2), aggregate=True)
        plane.stage(1, 0, b"x")
        with pytest.raises(TransportError, match="un-flushed channel"):
            plane.assert_drained()

    def test_receive_frames_decodes_per_sender(self):
        transport = InProcessTransport(3)
        for src in (1, 2):
            peer_plane = CommPlane(src, transport, aggregate=True)
            peer_plane.stage(0, 0, b"from%d" % src)
            peer_plane.flush(1, peer_order=[0])
        plane = CommPlane(0, transport, aggregate=True)
        frames = plane.receive_frames()
        assert [(sender, subs) for sender, subs in frames] == [
            (1, [b"from1"]),
            (2, [b"from2"]),
        ]

    def test_flush_metrics(self):
        metrics = MetricsRegistry()
        transport = InProcessTransport(3)
        plane = CommPlane(0, transport, aggregate=True, metrics=metrics)
        plane.stage(1, 0, b"a")
        plane.stage(1, 1, b"b")
        plane.stage(2, 0, b"c")
        plane.flush(2, peer_order=[1, 2])
        assert metrics.counter_total("channel_flushes_total") == 2
        histogram = metrics.histogram("channel_fields_per_flush")
        assert histogram.count == 2
        assert histogram.total == 3  # two fields to peer 1, one to peer 2
        transport.receive_all(1)
        transport.receive_all(2)
