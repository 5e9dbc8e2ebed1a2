"""StreamAssembler tests: message framing over metadata-carrying runs."""

import pytest
from hypothesis import given, strategies as st

from repro.l5p.base import AssembledMessage, Run, StreamAssembler
from repro.net.packet import SkbMeta


def simple_len(header: bytes) -> int:
    """2-byte header: total message length (including the header)."""
    return int.from_bytes(header, "big")


def msg(total: int) -> bytes:
    if total < 2 or total > 0xFFFF:
        raise ValueError
    return total.to_bytes(2, "big") + bytes((total - 2) * [0xAB])


def asm(start=0):
    return StreamAssembler(2, simple_len, start_seq=start)


class TestAssembler:
    def test_single_message(self):
        a = asm()
        out = a.push(msg(10), SkbMeta())
        assert len(out) == 1
        assert out[0].wire == msg(10)
        assert out[0].start_seq == 0

    def test_message_split_across_pushes(self):
        a = asm()
        data = msg(100)
        assert a.push(data[:1], SkbMeta()) == []  # half a header
        assert a.push(data[1:50], SkbMeta()) == []
        out = a.push(data[50:], SkbMeta())
        assert out[0].wire == data

    def test_multiple_messages_one_push(self):
        a = asm()
        data = msg(5) + msg(7) + msg(2)
        out = a.push(data, SkbMeta())
        assert [m.length for m in out] == [5, 7, 2]
        assert [m.start_seq for m in out] == [0, 5, 12]

    def test_meta_preserved_per_run(self):
        a = asm()
        data = msg(20)
        on = SkbMeta(decrypted=True)
        off = SkbMeta(decrypted=False)
        a.push(data[:8], on)
        out = a.push(data[8:], off)
        flags = [r.meta.decrypted for r in out[0].runs]
        assert flags == [True, False]
        assert out[0].partially(lambda m: m.decrypted)
        assert not out[0].fully(lambda m: m.decrypted)

    def test_slice_runs(self):
        m = AssembledMessage(0, [Run(b"abc", SkbMeta()), Run(b"defg", SkbMeta()), Run(b"hi", SkbMeta())])
        sliced = m.slice_runs(2, 5)
        assert b"".join(r.data for r in sliced) == b"cdefg"

    def test_runs_are_views_of_the_pushed_buffers(self):
        a = asm()
        first, second = msg(10) + msg(6)[:3], msg(6)[3:] + msg(4)
        a.push(first, SkbMeta())
        out = a.push(memoryview(second), SkbMeta())  # a packet payload arrives as a view
        assert [m.wire for m in out] == [msg(6), msg(4)]
        (head, tail), (whole,) = out[0].runs, out[1].runs
        assert head.data.obj is first and tail.data.obj is second and whole.data.obj is second
        assert out[0].cut(1, 4) == msg(6)[1:5] and type(out[0].cut(1, 4)) is bytes

    def test_bad_length_raises(self):
        a = asm()
        with pytest.raises(ValueError):
            a.push(b"\x00\x01xx", SkbMeta())  # total_len 1 < header_len

    def test_next_msg_seq_tracks_stream(self):
        a = asm(start=1000)
        a.push(msg(10) + msg(20), SkbMeta())
        assert a.next_msg_seq == 1030

    def test_seq_wraparound(self):
        start = (1 << 32) - 4
        a = asm(start=start)
        out = a.push(msg(10), SkbMeta())
        assert out[0].start_seq == start
        assert a.next_msg_seq == 6  # wrapped

    @given(
        lengths=st.lists(st.integers(min_value=2, max_value=300), min_size=1, max_size=15),
        chop=st.integers(min_value=1, max_value=64),
    )
    def test_any_chunking_reassembles(self, lengths, chop):
        stream = b"".join(msg(n) for n in lengths)
        a = asm()
        out = []
        for i in range(0, len(stream), chop):
            out.extend(a.push(stream[i : i + chop], SkbMeta()))
        assert [m.length for m in out] == lengths
        assert b"".join(m.wire for m in out) == stream
