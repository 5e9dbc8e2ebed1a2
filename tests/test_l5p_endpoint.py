"""The shared endpoint core (``repro.l5p.base.StreamEndpoint``), driven
with the toy protocol against a scripted connection and a recording
driver, so every branch of the Listing-2 lifecycle is pinned on its own:
resync answers, the TX log, context (re-)installation, backpressure and
error routing — each also across the 2^32 sequence wrap."""

import pytest

from repro.core.context import HwContext
from repro.core.types import Direction
from repro.core.walker import replay, walk
from repro.l5p.base import TxLog
from repro.net.packet import FlowKey, SkbMeta
from repro.tcp import seq as sq
from repro.tcp.buffer import SendBuffer, Skb
from toy_l5p import HEADER_LEN, TRAILER_LEN, ToyAdapter, ToyEndpoint, encode_message, plain_message

NEAR_WRAP = sq.MOD - 40  # the second 28-byte toy frame from here straddles 2^32


class ScriptedConn:
    """A TcpConnection's L5P-facing surface with every number settable."""

    flow = FlowKey("a", 1, "b", 2)

    def __init__(self, isn=0, limit=4096, rcv_nxt=0):
        self.state = "established"
        self.send_buffer = SendBuffer(isn, limit=limit)
        self.snd_una = isn
        self.rcv_nxt = rcv_nxt
        self.on_data = self.on_writable = self.on_established = None
        self.sends: list[bytes] = []

    @property
    def send_space(self):
        return self.send_buffer.space

    def send(self, data):
        accepted = self.send_buffer.append(data)
        self.sends.append(data[:accepted])
        return accepted

    def ack(self, seq):
        self.send_buffer.ack_to(seq)
        self.snd_una = seq
        self.on_writable()

    def deliver(self, seq, data):
        self.rcv_nxt = sq.add(seq, len(data))
        self.on_data(Skb(seq, data, SkbMeta()))


class RecordingDriver:
    def __init__(self):
        self.created = []  # (direction, tcpsn, msg_index)
        self.responses = []  # (tcpsn, result, msg_index)

    def l5o_create(self, conn, adapter, static_state, tcpsn, direction, l5p_ops, msg_index=0):
        self.created.append((direction, tcpsn, msg_index))
        return object()

    def l5o_resync_rx_resp(self, ctx, tcpsn, result, msg_index=0):
        self.responses.append((tcpsn, result, msg_index))


class ScriptedHost:
    model = None

    def __init__(self):
        self.nic = type("Nic", (), {"driver": RecordingDriver()})()

    def core_for_flow(self, flow):
        return None


def endpoint(conn, **offloads):
    host = ScriptedHost()
    return ToyEndpoint(host, conn, **offloads), host.nic.driver


def frame(n):
    return encode_message(bytes([n]) * 20, n)


FRAME_LEN = HEADER_LEN + 20 + TRAILER_LEN


class TestResyncAnswers:
    @pytest.mark.parametrize("start", [1000, NEAR_WRAP], ids=["mid-space", "across-wrap"])
    def test_confirm_deny_keep(self, start):
        conn = ScriptedConn(rcv_nxt=start)
        ep, driver = endpoint(conn, rx_offload=True)
        second = sq.add(start, FRAME_LEN)
        third = sq.add(start, 2 * FRAME_LEN)
        inside_second = sq.add(second, 5)
        for req in (second, inside_second, third):
            ep.l5o_resync_rx_req(req)

        conn.deliver(start, frame(0))
        # Message 0 ends exactly where `second` points: nothing is
        # decidable yet — all three are still ahead of the stream.
        assert driver.responses == []
        assert ep._pending_resync == [second, inside_second, third]

        conn.deliver(second, frame(1))
        # Message 1 starts at `second` (confirmed, with its index), runs
        # past `inside_second` (denied); `third` is its end — kept.
        assert driver.responses == [(second, True, 1), (inside_second, False, 0)]
        assert ep._pending_resync == [third]

        conn.deliver(third, frame(2))
        assert driver.responses[-1] == (third, True, 2)
        assert ep._pending_resync == []
        if start == NEAR_WRAP:
            assert third < start  # the sequence space really wrapped under us

    def test_request_behind_the_stream_is_denied_at_the_next_message(self):
        conn = ScriptedConn(rcv_nxt=NEAR_WRAP)
        ep, driver = endpoint(conn, rx_offload=True)
        conn.deliver(NEAR_WRAP, frame(0) + frame(1) + frame(2) + frame(3) + frame(4))
        ep.l5o_resync_rx_req(sq.add(NEAR_WRAP, 3))  # numerically huge, logically long gone
        conn.deliver(sq.add(NEAR_WRAP, 5 * FRAME_LEN), frame(5))
        assert driver.responses == [(sq.add(NEAR_WRAP, 3), False, 0)]

    def test_no_rx_context_means_no_answer(self):
        conn = ScriptedConn(rcv_nxt=0)
        ep, driver = endpoint(conn)  # software only
        ep.l5o_resync_rx_req(0)
        conn.deliver(0, frame(0))
        assert driver.responses == [] and ep._pending_resync == [0]


class TestTxLog:
    @pytest.mark.parametrize("start", [0, NEAR_WRAP], ids=["mid-space", "across-wrap"])
    def test_lookup_and_prune_with_partially_acked_head(self, start):
        log = TxLog()
        log.track(start, b"a" * 80)  # straddles 2^32 when start is NEAR_WRAP
        log.track(sq.add(start, 80), b"b" * 80)
        log.track(sq.add(start, 160), b"c" * 40, info={"k": 1})

        state = log.lookup(sq.add(start, 100))
        assert (state.start_seq, state.msg_index, state.wire_bytes) == (sq.add(start, 80), 1, b"b" * 80)
        assert log.lookup(sq.add(start, 79)).msg_index == 0
        assert log.lookup(sq.add(start, 160)).info == {"k": 1}
        assert log.lookup(sq.add(start, 200)) is None  # one past the end
        assert log.lookup(sq.add(start, -1)) is None

        log.prune(sq.add(start, 100))  # message 0 acked, message 1 only partly
        assert log.lookup(sq.add(start, 40)) is None
        assert log.head()[:2] == (sq.add(start, 80), 1)
        log.prune(sq.add(start, 160))  # exactly the end of message 1
        assert log.head()[1] == 2
        log.prune(sq.add(start, 200))
        assert log.head() is None and log.sent == 3

    def test_gather_list_record_replays_as_its_concatenation(self):
        # An offloaded frame is logged as the pieces TCP's send buffer
        # holds — (header, view of the caller's body, dummy trailer) —
        # and joined only to answer l5o_get_tx_msgstate.
        body = bytes(range(251)) * 2
        plain = plain_message(body)
        pieces = (plain[:HEADER_LEN], memoryview(b"<" + body + b">")[1:-1], plain[-TRAILER_LEN:])
        log = TxLog()
        log.track(sq.add(NEAR_WRAP, -50), b"p" * 50)
        log.track(NEAR_WRAP, pieces)  # 510 B from 40 below the wrap
        assert log.head()[:2] == (sq.add(NEAR_WRAP, -50), 0)
        log.prune(NEAR_WRAP)
        assert log.head()[2] is pieces  # kept, not copied
        assert log.lookup(sq.add(NEAR_WRAP, len(plain))) is None  # one past its end

        wire = encode_message(body, 1)
        for offset in (0, 2, HEADER_LEN, 39, 40, 41, 300, len(plain) - 2, len(plain) - 1):
            state = log.lookup(sq.add(NEAR_WRAP, offset))
            assert (state.start_seq, state.msg_index) == (NEAR_WRAP, 1)
            assert type(state.wire_bytes) is bytes and state.wire_bytes == plain
            # Replaying the prefix repositions a context exactly as the
            # concatenated record would: the rest transforms identically.
            ctx = HwContext(1, ScriptedConn.flow, Direction.TX, ToyAdapter(), None, tcpsn=NEAR_WRAP, msg_index=1)
            replay(ctx, state.wire_bytes[:offset])
            assert walk(ctx, plain[offset:]).out == wire[offset:]

        log.prune(sq.add(NEAR_WRAP, len(plain) - 1))
        assert log.head()[1] == 1
        log.prune(sq.add(NEAR_WRAP, len(plain)))
        assert log.head() is None

    def test_endpoint_hands_log_and_send_buffer_the_same_pieces(self):
        conn = ScriptedConn(isn=NEAR_WRAP)
        ep, _ = endpoint(conn, tx_offload=True)
        body = bytes(range(200))
        plain = plain_message(body)
        pieces = (plain[:HEADER_LEN], body, plain[-TRAILER_LEN:])
        ep._queue(pieces)
        assert conn.sends == [pieces] and ep._tx.head()[2] is pieces
        assert conn.send_buffer.peek(sq.add(NEAR_WRAP, HEADER_LEN + 10), 50).obj is body
        assert ep.l5o_get_tx_msgstate(sq.add(NEAR_WRAP, 100)).wire_bytes == plain
        ep._queue((b"x" * 2000, b"y" * 2000))  # sized by its total: 4000 B do not fit behind 208
        assert len(conn.sends) == 1
        conn.ack(sq.add(NEAR_WRAP, len(plain)))
        assert len(conn.sends) == 2 and ep._tx.head()[4] == 4000

    def test_uncovered_messages_are_counted_not_kept(self):
        log = TxLog()
        log.track(0, b"x" * 10, keep=False)
        log.track(10, b"y" * 10)
        assert log.lookup(5) is None
        assert log.lookup(15).msg_index == 1

    def test_endpoint_logs_only_under_a_tx_context_and_prunes_on_ack(self):
        conn = ScriptedConn(isn=NEAR_WRAP)
        ep, _ = endpoint(conn, tx_offload=True)
        for n in range(6):  # 6 * 28 B crosses the wrap
            ep.send(bytes([n]) * 20)
        assert ep.l5o_get_tx_msgstate(sq.add(NEAR_WRAP, 4 * FRAME_LEN + 3)).msg_index == 4
        assert ep.l5o_get_tx_msgstate(NEAR_WRAP).wire_bytes == plain_message(b"\x00" * 20)
        conn.ack(sq.add(NEAR_WRAP, 4 * FRAME_LEN + 3))
        assert ep.l5o_get_tx_msgstate(sq.add(NEAR_WRAP, 3 * FRAME_LEN)) is None
        assert ep.l5o_get_tx_msgstate(sq.add(NEAR_WRAP, 4 * FRAME_LEN)).msg_index == 4

        software, _ = endpoint(ScriptedConn())
        software.send(b"q" * 20)
        assert software.l5o_get_tx_msgstate(0) is None and software._tx.sent == 1


class TestInstallAndReattach:
    def test_tx_restarts_at_log_head_else_at_end_seq(self):
        conn = ScriptedConn(isn=NEAR_WRAP)
        ep, driver = endpoint(conn, tx_offload=True)
        assert driver.created == [(Direction.TX, NEAR_WRAP, 0)]
        for n in range(5):
            ep.send(bytes([n]) * 20)
        conn.ack(sq.add(NEAR_WRAP, 2 * FRAME_LEN + 9))  # inside message 2

        ep.l5o_nic_reattach("tx")
        assert driver.created[-1] == (Direction.TX, sq.add(NEAR_WRAP, 2 * FRAME_LEN), 2)

        conn.ack(sq.add(NEAR_WRAP, 5 * FRAME_LEN))  # everything acked: the log is empty
        ep.l5o_nic_reattach("tx")
        assert driver.created[-1] == (Direction.TX, conn.send_buffer.end_seq, 5)
        assert conn.send_buffer.end_seq == sq.add(NEAR_WRAP, 5 * FRAME_LEN)

    def test_rx_restarts_at_the_next_boundary_with_its_index(self):
        conn = ScriptedConn(rcv_nxt=NEAR_WRAP)
        ep, driver = endpoint(conn, rx_offload=True)
        assert driver.created == [(Direction.RX, NEAR_WRAP, 0)]
        stream = b"".join(frame(n) for n in range(4))
        conn.deliver(NEAR_WRAP, stream[: 3 * FRAME_LEN + 7])  # 3 messages and a torn 4th
        assert ep.received == [bytes([n]) * 20 for n in range(3)]

        ctx = ep.l5o_nic_reattach("rx")
        # Not rcv_nxt (7 bytes into message 3) but that message's start.
        assert driver.created[-1] == (Direction.RX, sq.add(NEAR_WRAP, 3 * FRAME_LEN), 3)
        assert ctx is ep._rx_ctx

    def test_not_offloaded_or_closed_is_not_reinstalled(self):
        conn = ScriptedConn()
        ep, driver = endpoint(conn, tx_offload=True)
        assert ep.l5o_nic_reattach("rx") is None  # never offloaded that direction
        conn.state = "closed"
        assert ep.l5o_nic_reattach("tx") is None
        assert len(driver.created) == 1

    def test_offload_without_a_driver_fails_loudly(self):
        host = ScriptedHost()
        host.nic = object()  # a plain NIC: no driver
        with pytest.raises(RuntimeError, match="toy offload requires an OffloadNic"):
            ToyEndpoint(host, ScriptedConn(), tx_offload=True)

    def test_degradation_is_counted(self):
        ep, _ = endpoint(ScriptedConn(), rx_offload=True)
        ep.l5o_offload_degraded("rx", "resync-failures")
        assert ep.offload_degraded == 1


class TestOutQueue:
    def test_frames_are_never_split_across_the_send_buffer_boundary(self):
        conn = ScriptedConn(limit=2 * FRAME_LEN + 10)  # room for two frames and a bit
        ep, _ = endpoint(conn)
        for n in range(5):
            ep.send(bytes([n]) * 20)
        assert conn.sends == [frame(0), frame(1)]  # the third would not fit whole
        conn.ack(FRAME_LEN)  # one frame's worth of room: still exactly one more frame
        assert conn.sends == [frame(0), frame(1), frame(2)]
        conn.ack(3 * FRAME_LEN)
        assert conn.sends == [frame(n) for n in range(5)]
        assert all(len(chunk) == FRAME_LEN for chunk in conn.sends)

    def test_nothing_leaves_before_the_connection_is_established(self):
        conn = ScriptedConn()
        conn.state = "syn-sent"
        ep, _ = endpoint(conn)
        ep.send(b"z" * 20)
        assert conn.sends == []
        conn.state = "established"
        conn.on_established()
        assert conn.sends == [encode_message(b"z" * 20, 0)]

    def test_a_transport_that_takes_half_a_frame_is_an_error(self):
        class LyingConn(ScriptedConn):
            send_space = 1 << 20  # whatever its buffer really holds

        ep, _ = endpoint(LyingConn(limit=10))
        with pytest.raises(RuntimeError, match="toy: frame split"):
            ep.send(b"w" * 20)


class TestFramingErrors:
    def test_reported_through_on_error_when_set(self):
        conn = ScriptedConn(rcv_nxt=500)
        ep, _ = endpoint(conn)
        errors = []
        ep.on_error = errors.append
        conn.deliver(500, frame(0) + b"\x00" * 8)
        assert len(errors) == 1 and "framing error at seq 528" in errors[0]

    def test_raised_naming_protocol_and_position_otherwise(self):
        conn = ScriptedConn(rcv_nxt=500)
        ep, _ = endpoint(conn)
        with pytest.raises(RuntimeError, match=r"toy: stream framing error at seq 500"):
            conn.deliver(500, b"\xff" * 8)
