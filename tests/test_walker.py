"""Walker unit tests: phase transitions, tracking mode, and property
tests on arbitrary packetization (using the toy L5P)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import HwContext, Phase
from repro.core.types import Direction, MsgTransform, ProtocolError
from repro.core.walker import replay, walk
from repro.net.packet import FlowKey
from toy_l5p import ToyAdapter, encode_message, plain_message

FLOW = FlowKey("a", 1, "b", 2)


def tx_ctx():
    return HwContext(1, FLOW, Direction.TX, ToyAdapter(), None, tcpsn=0)


def rx_ctx():
    return HwContext(2, FLOW, Direction.RX, ToyAdapter(), None, tcpsn=0)


class TestPhases:
    def test_walks_header_body_trailer(self):
        ctx = tx_ctx()
        wire = plain_message(b"abcdef")
        result = walk(ctx, wire)
        assert result.completed == 1
        assert ctx.phase == Phase.HEADER
        assert result.out == encode_message(b"abcdef", 0)

    def test_zero_body_message(self):
        ctx = tx_ctx()
        result = walk(ctx, plain_message(b""))
        assert result.completed == 1
        assert result.out == encode_message(b"", 0)

    def test_msg_index_advances_per_message(self):
        ctx = tx_ctx()
        walk(ctx, plain_message(b"a") + plain_message(b"b"))
        assert ctx.msg_index == 2

    def test_byte_at_a_time(self):
        ctx = tx_ctx()
        wire = plain_message(b"hello walker")
        out = b"".join(walk(ctx, wire[i : i + 1]).out for i in range(len(wire)))
        assert out == encode_message(b"hello walker", 0)

    def test_desync_on_bad_header(self):
        ctx = rx_ctx()
        result = walk(ctx, b"\xff" * 20)
        assert result.desynced
        assert result.out == b"\xff" * 20  # passes through unmodified

    def test_next_boundary_accounting(self):
        ctx = tx_ctx()
        wire = plain_message(b"x" * 100)
        ctx.expected_seq = 0
        walk(ctx, wire[:30])
        ctx.expected_seq = 30
        # header(4) + body(100) + trailer(4) = 108 total.
        assert ctx.next_boundary_seq() == 108

    def test_boundary_unknown_mid_header(self):
        ctx = tx_ctx()
        walk(ctx, plain_message(b"y" * 10)[:2])  # half a header
        ctx.expected_seq = 2
        assert ctx.next_boundary_seq() is None


class TestTrackingMode:
    def test_tracking_emits_original_but_advances_state(self):
        ctx = rx_ctx()
        wire = encode_message(b"secret" * 10, 0)
        cut = 20
        tracked = walk(ctx, wire[:cut], emit=False)
        assert tracked.out == wire[:cut]  # bytes unmodified
        # Continue in offload mode: decryption state must be consistent.
        rest = walk(ctx, wire[cut:], emit=True)
        assert rest.all_ok  # trailer verified despite the mode switch
        plain = plain_msg_bytes(b"secret" * 10)
        assert rest.out == plain[cut:]


class _PassThroughTransform(MsgTransform):
    """A digest-style transform: reads the bytes, returns what it got."""

    def __init__(self):
        self.seen = []

    def process(self, data):
        self.seen.append(data)
        return data

    def verify_rx(self, wire_trailer):
        return True


class _PassThroughAdapter(ToyAdapter):
    def begin_message(self, direction, static_state, desc, msg_index, rr_state=None):
        return _PassThroughTransform()


class TestNoCopies:
    """The walker copies nothing a transform did not write."""

    def test_tracking_walk_returns_its_input(self):
        wire = encode_message(b"secret" * 10, 0) + encode_message(b"next", 1)[:3]
        for data in (wire, memoryview(wire), memoryview(b"." + wire)[1:]):
            assert walk(rx_ctx(), data, emit=False).out is data

    def test_run_inside_one_body_is_the_transforms_own_output(self):
        ctx = HwContext(4, FLOW, Direction.RX, _PassThroughAdapter(), None, tcpsn=0)
        wire = encode_message(b"x" * 100, 0)
        walk(ctx, wire[:10])  # header + 6 body bytes
        packet = memoryview(wire)[10:80]  # entirely inside the body
        out = walk(ctx, packet).out
        assert out is ctx.transform.seen[-1]  # not a joined copy of it
        assert out.obj is wire and out == packet  # ... and what the transform saw is a view of the packet

    def test_pieces_handed_to_transforms_are_views_of_the_input(self):
        ctx = HwContext(5, FLOW, Direction.RX, _PassThroughAdapter(), None, tcpsn=0)
        wire = encode_message(b"a" * 20, 0) + encode_message(b"b" * 20, 1)
        transforms = []
        original = ctx.start_message
        ctx.start_message = lambda desc: (original(desc), transforms.append(ctx.transform))
        assert walk(ctx, wire).out == wire  # crossing a boundary joins: one copy, of the output
        assert [t.seen[0].obj is wire for t in transforms] == [True, True]


def plain_msg_bytes(body):
    wire = encode_message(body, 0)
    return wire[:4] + body + wire[4 + len(body) :]


class TestReplay:
    def test_replay_restores_mid_message_state(self):
        body = bytes(range(200))
        plain = plain_message(body)
        full_ctx = tx_ctx()
        expected = walk(full_ctx, plain).out

        ctx = tx_ctx()
        offset = 77
        replay(ctx, plain[:offset])
        rest = walk(ctx, plain[offset:])
        assert rest.out == expected[offset:]

    def test_replay_into_trailer(self):
        body = b"q" * 50
        plain = plain_message(body)
        offset = 4 + 50 + 2  # inside the trailer
        full = walk(tx_ctx(), plain).out
        ctx = tx_ctx()
        replay(ctx, plain[:offset])
        assert walk(ctx, plain[offset:]).out == full[offset:]

    def test_replay_of_garbage_raises(self):
        with pytest.raises(ProtocolError):
            replay(tx_ctx(), b"\xff" * 10)


class _ShrinkingTransform(MsgTransform):
    def process(self, data):
        return data[:-1] if data else data

    def finalize_tx(self):
        return b"\x00" * 4


class _ShrinkingAdapter(ToyAdapter):
    def begin_message(self, direction, static_state, desc, msg_index, rr_state=None):
        return _ShrinkingTransform()


class TestSizePreservation:
    def test_non_size_preserving_transform_rejected(self):
        ctx = HwContext(3, FLOW, Direction.TX, _ShrinkingAdapter(), None, tcpsn=0)
        with pytest.raises(ProtocolError):
            walk(ctx, plain_message(b"data!"))


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        bodies=st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=6),
        chop=st.integers(min_value=1, max_value=97),
    )
    def test_tx_any_packetization_bit_exact(self, bodies, chop):
        stream = b"".join(plain_message(b) for b in bodies)
        expected = b"".join(encode_message(b, i) for i, b in enumerate(bodies))
        ctx = tx_ctx()
        out = b"".join(walk(ctx, stream[i : i + chop]).out for i in range(0, len(stream), chop))
        assert out == expected

    @settings(max_examples=30, deadline=None)
    @given(
        bodies=st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=6),
        chop=st.integers(min_value=1, max_value=97),
    )
    def test_rx_any_packetization_verifies(self, bodies, chop):
        stream = b"".join(encode_message(b, i) for i, b in enumerate(bodies))
        ctx = rx_ctx()
        ok = True
        completed = 0
        out = b""
        for i in range(0, len(stream), chop):
            res = walk(ctx, stream[i : i + chop])
            ok &= res.all_ok
            completed += res.completed
            out += res.out
        assert ok
        assert completed == len(bodies)
        expected = b"".join(plain_msg_bytes(b) for b in bodies)
        # plain_msg_bytes uses msg_index 0 for all; rebuild properly:
        expected = b""
        for i, b in enumerate(bodies):
            wire = encode_message(b, i)
            expected += wire[:4] + b + wire[4 + len(b) :]
        assert out == expected
