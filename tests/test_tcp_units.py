"""Unit tests for TCP building blocks: seq math, buffers, congestion."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.net.packet import SkbMeta
from repro.tcp import seq as sq
from repro.tcp.buffer import ReassemblyQueue, SendBuffer
from repro.tcp.cc import RenoCc, RttEstimator

MOD = 1 << 32


class TestSeqArithmetic:
    def test_basic_ordering(self):
        assert sq.lt(1, 2)
        assert sq.le(2, 2)
        assert sq.gt(3, 2)
        assert sq.ge(2, 2)

    def test_wraparound_ordering(self):
        near_top = MOD - 10
        assert sq.lt(near_top, 5)  # 5 is "after" the wrap
        assert sq.gt(5, near_top)
        assert sq.sub(5, near_top) == 15

    def test_add_wraps(self):
        assert sq.add(MOD - 1, 2) == 1
        assert sq.add(0, -1) == MOD - 1

    def test_between(self):
        assert sq.between(10, 10, 20)
        assert sq.between(10, 19, 20)
        assert not sq.between(10, 20, 20)
        assert sq.between(MOD - 5, 2, 10)

    @given(a=st.integers(0, MOD - 1), d=st.integers(-(1 << 30), 1 << 30))
    def test_sub_inverts_add(self, a, d):
        assert sq.sub(sq.add(a, d), a) == d


class TestSendBuffer:
    def test_append_peek_ack(self):
        buf = SendBuffer(base_seq=1000, limit=100)
        assert buf.append(b"hello world") == 11
        assert buf.peek(1000, 5) == b"hello"
        assert buf.peek(1006, 5) == b"world"
        assert buf.ack_to(1006) == 6
        assert buf.peek(1006, 5) == b"world"
        assert len(buf) == 5

    def test_space_limit(self):
        buf = SendBuffer(0, limit=10)
        assert buf.append(b"x" * 20) == 10
        assert buf.space == 0
        buf.ack_to(4)
        assert buf.space == 4

    def test_peek_outside_range_raises(self):
        buf = SendBuffer(100, limit=100)
        buf.append(b"abc")
        with pytest.raises(IndexError):
            buf.peek(99, 1)
        with pytest.raises(IndexError):
            buf.peek(102, 5)

    def test_ack_beyond_data_raises(self):
        buf = SendBuffer(0, limit=100)
        buf.append(b"abc")
        with pytest.raises(ValueError):
            buf.ack_to(10)

    def test_old_ack_is_noop(self):
        buf = SendBuffer(100, limit=100)
        buf.append(b"abcdef")
        buf.ack_to(104)
        assert buf.ack_to(102) == 0
        assert buf.base_seq == 104

    def test_wraparound_sequence_space(self):
        base = MOD - 3
        buf = SendBuffer(base, limit=100)
        buf.append(b"abcdef")
        assert buf.peek(sq.add(base, 4), 2) == b"ef"
        buf.ack_to(2)  # wrapped past 0
        assert buf.base_seq == 2
        assert len(buf) == 1

    def test_compaction_preserves_content(self):
        buf = SendBuffer(0, limit=2 * 1024 * 1024)
        data = bytes(range(256)) * 4096  # 1 MiB
        buf.append(data)
        buf.ack_to(600 * 1024)  # deep into the one 1 MiB chunk (the flat model compacted here)
        assert buf.peek(600 * 1024, 100) == data[600 * 1024 : 600 * 1024 + 100]


class _FlatSendBuffer:
    """The reference model: the flat ``bytearray`` SendBuffer this repo
    shipped before the reference-holding one, with its compaction
    threshold lowered from 256 KiB to 256 B so small cases reach it."""

    def __init__(self, base_seq, limit):
        self.base_seq = base_seq
        self.limit = limit
        self._data = bytearray()
        self._head = 0

    def __len__(self):
        return len(self._data) - self._head

    @property
    def space(self):
        return max(0, self.limit - len(self))

    @property
    def end_seq(self):
        return sq.add(self.base_seq, len(self))

    def append(self, data):
        accepted = min(len(data), self.space)
        if accepted:
            self._data += data[:accepted]
        return accepted

    def peek(self, seq, length):
        offset = sq.sub(seq, self.base_seq)
        if offset < 0 or offset + length > len(self):
            raise IndexError(seq, length)
        start = self._head + offset
        return bytes(memoryview(self._data)[start : start + length])

    def ack_to(self, seq):
        advance = sq.sub(seq, self.base_seq)
        if advance < 0:
            return 0
        if advance > len(self):
            raise ValueError(seq)
        self._head += advance
        self.base_seq = seq
        if self._head > 256 and self._head > len(self._data) // 2:
            del self._data[: self._head]
            self._head = 0
        return advance


def _as_kind(data: bytes, kind: str):
    """``data`` the way a caller might own it, plus the ``bytearray`` to
    scribble on afterwards (None when the caller cannot write to it)."""
    if kind == "bytes":
        return data, None
    if kind == "view-of-bytes":
        return memoryview(b"<<" + data + b">>")[2 : 2 + len(data)], None
    source = bytearray(data)
    return (memoryview(source) if kind == "writable-view" else source), source


_KINDS = st.sampled_from(["bytes", "view-of-bytes", "bytearray", "writable-view"])


class SendBufferMachine(RuleBasedStateMachine):
    """Random append / peek / ack_to against the flat model, starting
    within 64 KiB of the 2^32 wrap, with a limit small enough that
    appends are regularly cut short and peeks span several chunks.
    Appends are single buffers or gather lists of every kind a caller
    may own; whatever it can still write to is overwritten right after
    the call, and no later peek may see that."""

    @initialize(below_wrap=st.integers(1, 64 * 1024), limit=st.integers(1, 6000))
    def setup(self, below_wrap, limit):
        self.real = SendBuffer(MOD - below_wrap, limit=limit)
        self.model = _FlatSendBuffer(MOD - below_wrap, limit)
        self.written = 0  # stream position just past the last accepted byte
        self.kept = []  # (start, end, object) of immutable pieces the buffer should reference

    def _append(self, pieces, gather=None):
        """Append ``[(data, kind), ...]`` as one ``gather`` (list or
        tuple) write, or, with one piece and no ``gather``, as a buffer."""
        owned = [_as_kind(data, kind) for data, kind in pieces]
        handed = [piece for piece, _ in owned]
        flat = b"".join(data for data, _ in pieces)
        accepted = self.real.append(gather(handed) if gather else handed[0])
        assert accepted == self.model.append(flat)
        pos = self.written
        self.written += accepted
        for (piece, source), (data, _) in zip(owned, pieces):
            end = min(pos + len(data), self.written)
            if source is None and end > pos:
                self.kept.append((pos, end, piece.obj if isinstance(piece, memoryview) else piece))
            pos += len(data)
            if source is not None:  # the caller reuses its buffer: the wire must not see it
                source[:] = bytes(b ^ 0xFF for b in source)

    @rule(data=st.binary(max_size=2500), kind=_KINDS)
    def append(self, data, kind):
        self._append([(data, kind)])

    @rule(
        pieces=st.lists(st.tuples(st.binary(max_size=900), _KINDS), max_size=5),
        gather=st.sampled_from([list, tuple]),
    )
    def append_gather(self, pieces, gather):
        self._append(pieces, gather)

    @precondition(lambda self: len(self.model))
    @rule(where=st.floats(0, 1), span=st.floats(0, 1))
    def peek(self, where, span):
        offset = int(where * len(self.model))
        length = int(span * (len(self.model) - offset))
        seq = sq.add(self.model.base_seq, offset)
        got = self.real.peek(seq, length)
        assert got == self.model.peek(seq, length)
        # A range inside one referenced piece is a view of that very
        # object; nothing handed out is ever writable.
        start = self.written - len(self.model) + offset
        for lo, hi, obj in self.kept:
            if length and lo <= start and start + length <= hi:
                assert isinstance(got, memoryview) and got.obj is obj
        assert isinstance(got, bytes) or got.readonly

    @rule(before=st.integers(1, 100), beyond=st.integers(1, 100))
    def peek_outside_raises(self, before, beyond):
        with pytest.raises(IndexError):
            self.real.peek(sq.add(self.model.base_seq, -before), 1)
        with pytest.raises(IndexError):
            self.real.peek(self.model.base_seq, len(self.model) + beyond)

    @rule(share=st.floats(0, 1))
    def ack(self, share):
        seq = sq.add(self.model.base_seq, int(share * len(self.model)))
        assert self.real.ack_to(seq) == self.model.ack_to(seq)

    @rule(behind=st.integers(1, 5000))
    def old_ack_is_noop(self, behind):
        assert self.real.ack_to(sq.add(self.model.base_seq, -behind)) == 0

    @rule(beyond=st.integers(1, 5000))
    def ack_beyond_data_raises(self, beyond):
        with pytest.raises(ValueError):
            self.real.ack_to(sq.add(self.model.end_seq, beyond))

    @invariant()
    def same_observable_state(self):
        real, model = self.real, self.model
        assert (real.base_seq, real.end_seq, len(real), real.space) == (
            model.base_seq,
            model.end_seq,
            len(model),
            model.space,
        )
        assert real.peek(real.base_seq, len(real)) == model.peek(model.base_seq, len(model))


TestSendBufferAgainstFlatModel = SendBufferMachine.TestCase
TestSendBufferAgainstFlatModel.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


def test_send_buffer_holds_references_not_copies():
    """Filling a 4 MiB buffer with one 64 KiB object (what iperf does)
    must cost list slots, not 4 MiB of payload copies."""
    message = bytes(64 * 1024)
    buf = SendBuffer(0, limit=4 * 1024 * 1024)
    tracemalloc.start()
    try:
        while buf.space >= len(message):
            assert buf.append(message) == len(message)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf) == 4 * 1024 * 1024
    assert allocated < 256 * 1024


def meta():
    return SkbMeta()


class TestReassembly:
    def test_in_order_delivery(self):
        q = ReassemblyQueue(rcv_nxt=0)
        out = q.insert(0, b"abc", meta())
        assert [s.data for s in out] == [b"abc"]
        assert q.rcv_nxt == 3

    def test_out_of_order_holds_then_releases(self):
        q = ReassemblyQueue(rcv_nxt=0)
        assert q.insert(3, b"def", meta()) == []
        assert q.has_gap_data
        out = q.insert(0, b"abc", meta())
        assert b"".join(s.data for s in out) == b"abcdef"
        assert not q.has_gap_data

    def test_duplicate_segment_dropped(self):
        q = ReassemblyQueue(rcv_nxt=0)
        q.insert(0, b"abc", meta())
        assert q.insert(0, b"abc", meta()) == []
        assert q.rcv_nxt == 3

    def test_partial_overlap_trimmed(self):
        q = ReassemblyQueue(rcv_nxt=0)
        q.insert(0, b"abcd", meta())
        out = q.insert(2, b"cdEF", meta())
        assert b"".join(s.data for s in out) == b"EF"
        assert q.rcv_nxt == 6

    def test_overlap_with_parked_segment(self):
        q = ReassemblyQueue(rcv_nxt=0)
        q.insert(4, b"efgh", meta())
        out = q.insert(2, b"cdef", meta())  # overlaps parked data
        assert out == []
        out = q.insert(0, b"ab", meta())
        assert b"".join(s.data for s in out) == b"abcdefgh"

    def test_metadata_stays_with_bytes(self):
        q = ReassemblyQueue(rcv_nxt=0)
        offloaded = SkbMeta(offloaded=True, decrypted=True)
        plain = SkbMeta(offloaded=False)
        q.insert(3, b"def", plain)
        out = q.insert(0, b"abc", offloaded)
        assert out[0].meta.decrypted is True
        assert out[1].meta.decrypted is False

    def test_window_limit_rejects_far_future(self):
        q = ReassemblyQueue(rcv_nxt=0, window=1000)
        assert q.insert(5000, b"x", meta()) == []
        assert not q.has_gap_data

    def test_wraparound_reassembly(self):
        base = MOD - 4
        q = ReassemblyQueue(rcv_nxt=base)
        q.insert(sq.add(base, 4), b"wxyz", meta())  # seq 0 after wrap
        out = q.insert(base, b"abcd", meta())
        assert b"".join(s.data for s in out) == b"abcdwxyz"
        assert q.rcv_nxt == 4

    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=20),
        order_seed=st.randoms(use_true_random=False),
        dup=st.booleans(),
    )
    def test_any_arrival_order_reassembles(self, chunks, order_seed, dup):
        stream = bytes(i % 251 for i in range(sum(chunks)))
        segments = []
        offset = 0
        for size in chunks:
            segments.append((offset, stream[offset : offset + size]))
            offset += size
        if dup:
            segments = segments + segments[: len(segments) // 2]
        order_seed.shuffle(segments)
        q = ReassemblyQueue(rcv_nxt=0)
        received = bytearray()
        for seg_seq, data in segments:
            for skb in q.insert(seg_seq, data, meta()):
                assert skb.seq == len(received)
                received += skb.data
        assert bytes(received) == stream


class ReassemblyMachine(RuleBasedStateMachine):
    """Random segments against a brute-force byte map: position ->
    (byte, tag of the first segment that delivered it).  Positions are
    unwrapped stream offsets; the queue starts just below the 2^32 wrap."""

    WINDOW = 4000

    @initialize(below_wrap=st.integers(1, 3000))
    def setup(self, below_wrap):
        self.base = MOD - below_wrap
        self.queue = ReassemblyQueue(self.base, window=self.WINDOW)
        self.rcv = 0  # model's rcv_nxt as a stream position
        self.parked = {}  # position -> (byte, tag)
        self.inserted = 0

    @rule(lead=st.integers(-600, WINDOW + 200), data=st.binary(max_size=700))
    def insert(self, lead, data):
        self.inserted += 1
        tag = self.inserted
        start = self.rcv + lead
        ready = self.queue.insert(sq.add(self.base, start), data, SkbMeta(steer_queue=tag))
        if start + len(data) - self.rcv <= self.WINDOW:  # else refused whole
            for pos, byte in enumerate(data, start):
                if pos >= self.rcv:
                    self.parked.setdefault(pos, (byte, tag))  # first arrival wins
        expect = []
        while self.rcv in self.parked:
            expect.append(self.parked.pop(self.rcv))
            self.rcv += 1
        got = [(byte, skb.meta.steer_queue) for skb in ready for byte in skb.data]
        assert got == expect
        pos = self.rcv - len(expect)
        for skb in ready:  # contiguous, in order, ending at the new rcv_nxt
            assert skb.seq == sq.add(self.base, pos)
            pos += len(skb)
        assert pos == self.rcv

    @invariant()
    def queue_matches_byte_map(self):
        q = self.queue
        assert q.rcv_nxt == sq.add(self.base, self.rcv)
        assert q.buffered_bytes == sum(len(s) for s in q._segments) == len(self.parked)
        assert q.has_gap_data == bool(self.parked)
        held = {}
        prev_end = self.rcv  # sorted, disjoint, non-empty, strictly above rcv_nxt
        for seg in q._segments:
            start = self.rcv + sq.sub(seg.seq, q.rcv_nxt)
            assert len(seg) and start >= prev_end and (start > self.rcv)
            prev_end = start + len(seg)
            for pos, byte in enumerate(seg.data, start):
                held[pos] = (byte, seg.meta.steer_queue)
        assert held == self.parked
        # The maintained SACK runs are what a walk over every parked
        # segment (how sack_blocks used to work) would merge.
        walked = []
        for seg in q._segments:
            if walked and walked[-1][1] == seg.seq:
                walked[-1] = (walked[-1][0], seg.end_seq)
            else:
                walked.append((seg.seq, seg.end_seq))
        assert q.sack_blocks(limit=1 << 30) == tuple(walked)
        assert q.sack_blocks() == tuple(walked[:4])


TestReassemblyAgainstByteMap = ReassemblyMachine.TestCase
TestReassemblyAgainstByteMap.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


def test_sack_blocks_cost_is_the_number_of_blocks_not_segments():
    """Every ACK sent while data is parked asks for the SACK blocks; with
    thousands of segments behind one lost retransmission that walk was
    the heavy tail of lossy runs.  Count operations, not seconds: after
    3 runs x 700 segments are parked, answering touches no ``Skb``."""

    class Untouchable(list):
        def _refuse(self, *args):
            raise AssertionError("sack_blocks() read the parked segments")

        __iter__ = __getitem__ = __len__ = _refuse

    q = ReassemblyQueue(rcv_nxt=0)
    size, per_run, gap = 100, 700, 50
    expect = []
    for run in range(3):
        base = 1000 + run * (per_run * size + gap)
        expect.append((base, base + per_run * size))
        order = list(range(per_run))
        order = order[1::2] + order[::2]  # every second segment first: runs merge late
        for i in order:
            q.insert(base + i * size, bytes(size), meta())
    assert len(q._segments) == 3 * per_run
    parked, q._segments = q._segments, Untouchable(q._segments)
    assert q.sack_blocks() == tuple(expect)
    assert q.sack_blocks(limit=2) == tuple(expect[:2])
    q._segments = parked
    out = q.insert(0, bytes(1000), meta())  # fill the first hole: exactly the first run pops
    assert sum(len(s) for s in out) == 1000 + per_run * size
    assert q.sack_blocks() == tuple(expect[1:])


class TestRenoCc:
    def test_slow_start_doubles(self):
        cc = RenoCc(mss=1000, initial_window_packets=2)
        start = cc.cwnd
        cc.on_ack(1000)
        cc.on_ack(1000)
        assert cc.cwnd == start + 2000

    def test_congestion_avoidance_linear(self):
        cc = RenoCc(mss=1000)
        cc.ssthresh = cc.cwnd  # leave slow start
        before = cc.cwnd
        cc.on_ack(1000)
        assert before < cc.cwnd <= before + 1000

    def test_enter_recovery_halves(self):
        cc = RenoCc(mss=1000)
        cc.enter_recovery(flight_bytes=20000, snd_nxt=12345)
        assert cc.ssthresh == 10000
        assert cc.cwnd == 10000 + 3000
        assert cc.in_recovery
        assert cc.recovery_point == 12345

    def test_exit_recovery_deflates(self):
        cc = RenoCc(mss=1000)
        cc.enter_recovery(20000, 1)
        cc.on_dup_ack_in_recovery()
        cc.exit_recovery()
        assert cc.cwnd == cc.ssthresh
        assert not cc.in_recovery

    def test_timeout_collapses_window(self):
        cc = RenoCc(mss=1000)
        cc.on_timeout(flight_bytes=40000)
        assert cc.cwnd == 1000
        assert cc.ssthresh == 20000
        assert cc.timeouts == 1

    def test_floor_of_two_mss(self):
        cc = RenoCc(mss=1000)
        cc.on_timeout(flight_bytes=1000)
        assert cc.ssthresh == 2000


class TestRttEstimator:
    def test_first_sample_initializes(self):
        rtt = RttEstimator()
        rtt.sample(0.1)
        assert rtt.srtt == pytest.approx(0.1)
        assert rtt.rto >= 0.1

    def test_rto_clamped_to_min(self):
        rtt = RttEstimator(min_rto=2e-3)
        for _ in range(10):
            rtt.sample(10e-6)
        assert rtt.rto == pytest.approx(2e-3)

    def test_backoff_doubles_and_caps(self):
        rtt = RttEstimator(max_rto=1.0)
        rtt.sample(0.4)
        for _ in range(5):
            rtt.backoff()
        assert rtt.rto == 1.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().sample(-1.0)
