"""Transmit-engine unit tests: in-sequence offload, retransmission
recovery via l5o_get_tx_msgstate, walker correctness across packets."""

import pytest

from repro.core.types import Direction, ProtocolError
from repro.net.host import Host
from repro.net.packet import FlowKey, Packet
from repro.nic import OffloadNic
from repro.sim import Simulator
from toy_l5p import ToyAdapter, ToyL5pOps, encode_message

FLOW = FlowKey("client", 1000, "server", 2000)


class _FakeConn:
    def __init__(self, flow):
        self.flow = flow
        self.tx_ctx_id = None
        self.snd_una = 0  # nothing acknowledged in these unit tests


class TxHarness:
    """An OffloadNic wired to a sink instead of a link."""

    def __init__(self, start_seq=0):
        self.sim = Simulator()
        self.nic = OffloadNic()
        self.host = Host(self.sim, "client", nic=self.nic)
        self.wire = []
        self.nic.output = self.wire.append  # bypass the link
        self.conn = _FakeConn(FLOW)
        self.ops = ToyL5pOps(start_seq=start_seq)
        self.ctx = self.nic.driver.l5o_create(
            self.conn, ToyAdapter(), None, tcpsn=start_seq, direction=Direction.TX, l5p_ops=self.ops
        )

    def send_packet(self, seq, payload):
        pkt = Packet(FLOW, seq=seq, payload=payload)
        pkt.tx_ctx_id = self.conn.tx_ctx_id
        self.nic.transmit(self.conn, pkt)
        return self.wire[-1]

    def wire_bytes(self):
        return b"".join(p.payload for p in self.wire)


def segments(data, size):
    return [(i, data[i : i + size]) for i in range(0, len(data), size)]


class TestInSequenceTx:
    def test_single_message_one_packet(self):
        h = TxHarness()
        body = b"hello offload world"
        plain = h.ops.stage(body)
        out = h.send_packet(0, plain)
        assert out.payload == encode_message(body, 0)
        assert out.meta.offloaded

    def test_message_split_across_packets(self):
        h = TxHarness()
        body = bytes(range(200)) * 10
        plain = h.ops.stage(body)
        for seg_seq, chunk in segments(plain, 137):
            h.send_packet(seg_seq, chunk)
        assert h.wire_bytes() == encode_message(body, 0)

    def test_multiple_messages_multiple_packets(self):
        h = TxHarness()
        bodies = [b"a" * 50, b"b" * 500, b"", b"c" * 33]
        plain = b"".join(h.ops.stage(b) for b in bodies)
        for seg_seq, chunk in segments(plain, 100):
            h.send_packet(seg_seq, chunk)
        expect = b"".join(encode_message(b, i) for i, b in enumerate(bodies))
        assert h.wire_bytes() == expect

    def test_header_split_across_packets(self):
        h = TxHarness()
        bodies = [b"x" * 10, b"y" * 10]
        plain = b"".join(h.ops.stage(b) for b in bodies)
        # Cut inside the second message's 4-byte header.
        cut = 10 + 4 + 4 + 2
        h.send_packet(0, plain[:cut])
        h.send_packet(cut, plain[cut:])
        expect = encode_message(bodies[0], 0) + encode_message(bodies[1], 1)
        assert h.wire_bytes() == expect

    def test_trailer_split_across_packets(self):
        h = TxHarness()
        body = b"q" * 20
        plain = h.ops.stage(body)
        cut = 4 + 20 + 2  # inside the 4-byte trailer
        h.send_packet(0, plain[:cut])
        h.send_packet(cut, plain[cut:])
        assert h.wire_bytes() == encode_message(body, 0)

    def test_empty_payload_packets_ignored(self):
        h = TxHarness()
        plain = h.ops.stage(b"data")
        h.send_packet(0, b"")  # pure ACK
        out = h.send_packet(0, plain)
        assert out.payload == encode_message(b"data", 0)


class TestTxRecovery:
    def test_retransmission_reproduces_identical_bytes(self):
        h = TxHarness()
        body = bytes(range(256)) * 4
        plain = h.ops.stage(body)
        firsts = {}
        for seg_seq, chunk in segments(plain, 100):
            firsts[seg_seq] = h.send_packet(seg_seq, chunk).payload
        # Retransmit a middle segment: must produce the same wire bytes.
        again = h.send_packet(300, plain[300:400])
        assert again.payload == firsts[300]
        assert h.ctx.tx_recoveries == 1
        assert h.ctx.tx_recovery_bytes == 300

    def test_retransmit_then_new_data_recovers_twice(self):
        h = TxHarness()
        bodies = [b"m" * 300, b"n" * 300]
        plain = b"".join(h.ops.stage(b) for b in bodies)
        outs = {}
        for seg_seq, chunk in segments(plain, 100):
            outs[seg_seq] = h.send_packet(seg_seq, chunk).payload
        h.send_packet(100, plain[100:200])  # retransmit
        new = h.send_packet(600, plain[600:])  # jump forward again
        assert new.payload == outs[600]
        assert h.ctx.tx_recoveries == 2

    def test_recovery_into_second_message(self):
        h = TxHarness()
        bodies = [b"A" * 100, b"B" * 100]
        plain = b"".join(h.ops.stage(b) for b in bodies)
        for seg_seq, chunk in segments(plain, 72):
            h.send_packet(seg_seq, chunk)
        # Retransmit a slice that lies wholly inside message 2's body.
        start = 108 + 20
        out = h.send_packet(start, plain[start : start + 50])
        expect = (encode_message(bodies[0], 0) + encode_message(bodies[1], 1))[start : start + 50]
        assert out.payload == expect

    def test_recovery_at_exact_message_start_needs_no_replay(self):
        h = TxHarness()
        h.ops.stage(b"1" * 50)
        plain2_start = 58
        plain = h.ops.stage(b"2" * 50)
        h.send_packet(0, h.ops.messages[0][2])
        h.send_packet(plain2_start, plain)
        out = h.send_packet(plain2_start, plain)  # retransmit whole msg 2
        assert out.payload == encode_message(b"2" * 50, 1)
        assert h.ctx.tx_recovery_bytes == 0

    def test_recovery_counts_pcie_bytes(self):
        h = TxHarness()
        plain = h.ops.stage(b"z" * 500)
        for seg_seq, chunk in segments(plain, 100):
            h.send_packet(seg_seq, chunk)
        h.send_packet(400, plain[400:500])
        assert h.nic.pcie.bytes_by_category["recovery"] == 400

    def test_missing_msgstate_raises(self):
        h = TxHarness()
        plain = h.ops.stage(b"w" * 100)
        h.send_packet(0, plain)
        h.ops.messages.clear()  # L5P released state too early
        with pytest.raises(ProtocolError):
            h.send_packet(50, plain[50:60])


class TestStaleRetransmission:
    """A retransmission queued before an ACK reaches the NIC after the
    L5P pruned the acknowledged messages."""

    def _acked_past_boundary(self):
        h = TxHarness()
        bodies = [b"A" * 100, b"B" * 100]
        plain = b"".join(h.ops.stage(b) for b in bodies)
        for seg_seq, chunk in segments(plain, 72):
            h.send_packet(seg_seq, chunk)
        boundary = len(plain) // 2
        h.conn.snd_una = boundary + 10  # the ACK passed message 0 and 10 bytes of message 1
        del h.ops.messages[0]  # ... so the L5P released message 0
        return h, plain, boundary

    @pytest.mark.parametrize("software", [False, True], ids=["nic", "host-shadow"])
    def test_segment_spanning_a_pruned_boundary_recovers_from_snd_una(self, software):
        h, plain, boundary = self._acked_past_boundary()
        seq, end = boundary - 30, boundary + 40
        correct = h.wire_bytes()
        pkt = Packet(FLOW, seq=seq, payload=plain[seq:end])
        if software:
            h.nic.tx_engine.process_software(h.ctx, h.conn, pkt)
        else:
            pkt = h.send_packet(seq, plain[seq:end])  # through the sanitizer's SAN-TX-SIZE check
        stale = h.conn.snd_una - seq
        assert len(pkt.payload) == end - seq
        assert pkt.payload[:stale] == b"\x00" * stale  # the receiver trims these
        assert pkt.payload[stale:] == correct[h.conn.snd_una : end]
        assert h.ctx.expected_seq == end

    def test_fully_acked_segment_is_zero_filled(self):
        h, plain, boundary = self._acked_past_boundary()
        out = h.send_packet(boundary - 50, plain[boundary - 50 : boundary + 10])
        assert out.payload == b"\x00" * 60
        assert not out.meta.offloaded

    def test_unacked_bytes_without_state_still_raise(self):
        h, plain, boundary = self._acked_past_boundary()
        h.conn.snd_una = boundary - 10  # message 0 was released while still unacknowledged
        with pytest.raises(ProtocolError):
            h.send_packet(boundary - 30, plain[boundary - 30 : boundary + 40])


class TestViewPayloads:
    """Segments reach the NIC as read-only views of the send buffer; the
    engine cuts the raw head off them and puts it back without assuming
    ``bytes`` (``view + bytes`` is a TypeError)."""

    START = 50  # created_seq: the 20 bytes before it predate the offload
    RAW = b"r" * 20

    def _transmit(self, h, software, seq, payload):
        pkt = Packet(FLOW, seq=seq, payload=memoryview(payload))
        pkt.tx_ctx_id = h.conn.tx_ctx_id
        if software:
            h.nic.tx_engine.process_software(h.ctx, h.conn, pkt)
        else:
            h.nic.transmit(h.conn, pkt)  # through the sanitizer's SAN-TX-SIZE check
        return pkt

    @pytest.mark.parametrize("software", [False, True], ids=["nic", "host-shadow"])
    def test_retransmission_straddling_created_seq(self, software):
        h = TxHarness(start_seq=self.START)
        body = b"v" * 100
        plain = h.ops.stage(body)
        pkt = self._transmit(h, software, self.START - 20, self.RAW + plain[:60])
        assert pkt.payload == self.RAW + encode_message(body, 0)[:60]
        assert h.ctx.expected_seq == self.START + 60

    @pytest.mark.parametrize("software", [False, True], ids=["nic", "host-shadow"])
    def test_stale_head_joins_the_raw_head(self, software):
        h = TxHarness(start_seq=self.START)
        bodies = [b"A" * 100, b"B" * 100]
        plain = b"".join(h.ops.stage(b) for b in bodies)
        for seg_seq, chunk in segments(plain, 72):
            h.send_packet(self.START + seg_seq, chunk)
        correct = h.wire_bytes()
        boundary = len(plain) // 2
        acked = boundary + 10
        h.conn.snd_una = self.START + acked  # the ACK passed message 0 ...
        del h.ops.messages[0]  # ... so the L5P released it
        pkt = self._transmit(h, software, self.START - 20, self.RAW + plain[: boundary + 40])
        assert pkt.payload[:20] == self.RAW
        assert pkt.payload[20 : 20 + acked] == bytes(acked)  # the receiver trims these
        assert pkt.payload[20 + acked :] == correct[acked : boundary + 40]


class TestTxValidation:
    def test_unparseable_stream_raises(self):
        h = TxHarness()
        with pytest.raises(ProtocolError):
            h.send_packet(0, b"\xff" * 64)  # not a toy message

    def test_flows_without_context_pass_through(self):
        h = TxHarness()
        other = _FakeConn(FlowKey("client", 1, "server", 2))
        pkt = Packet(other.flow, seq=0, payload=b"\xff" * 64)
        h.nic.transmit(other, pkt)
        assert h.wire[-1].payload == b"\xff" * 64
        assert not h.wire[-1].meta.offloaded

    def test_sequence_wraparound_tx(self):
        start = (1 << 32) - 50
        h = TxHarness(start_seq=start)
        body = b"wrap" * 30
        plain = h.ops.stage(body)  # ToyL5pOps.next_seq handles ints fine
        first, second = plain[:50], plain[50:]
        h.send_packet(start, first)
        h.send_packet((start + 50) % (1 << 32), second)
        assert h.wire_bytes() == encode_message(body, 0)
