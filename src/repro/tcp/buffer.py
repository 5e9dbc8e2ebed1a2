"""Send buffering and receive-side reassembly.

The reassembly queue is the piece the offload architecture leans on:
each arriving segment carries :class:`~repro.net.packet.SkbMeta` offload
bits, and those bits must stay attached to exactly the bytes they
describe while segments are trimmed and reordered — the stack "takes
care not to coalesce packets with different offload results" (§4.3).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.net.packet import SkbMeta
from repro.tcp import seq as sq


@dataclass
class Skb:
    """An in-order run of bytes handed to the L5P, with offload results."""

    seq: int
    data: bytes
    meta: SkbMeta

    def __len__(self) -> int:
        return len(self.data)

    @property
    def end_seq(self) -> int:
        return sq.add(self.seq, len(self.data))


class SendBuffer:
    """Bytes the application has written but TCP has not yet had ACKed.

    Holds the range [snd_una, snd_una + len); supports reading any
    sub-range for (re)transmission.  The payload stays where the caller
    put it: the buffer keeps the immutable objects it was handed plus
    each one's end position in the stream, so an L5P that logs a record
    for TX recovery and the buffer that transmits it share one object.
    """

    def __init__(self, base_seq: int, limit: int = 4 * 1024 * 1024):
        self.base_seq = base_seq  # sequence number of the first unacked byte
        self.limit = limit
        # Stream positions count bytes since construction and never wrap.
        self._chunks: list[bytes] = []  # _chunks[0] may be partly acked
        self._ends: list[int] = []  # stream position just past each chunk
        self._una = 0  # stream position of base_seq
        self._end = 0  # stream position just past the last byte written

    def __len__(self) -> int:
        return self._end - self._una

    @property
    def space(self) -> int:
        return max(0, self.limit - len(self))

    @property
    def end_seq(self) -> int:
        return sq.add(self.base_seq, len(self))

    def append(self, data: bytes) -> int:
        """Append up to ``space`` bytes; returns how many were accepted.

        ``bytes`` input is kept by reference; a mutable buffer is
        snapshotted, so later writes to it never reach the wire.
        """
        accepted = min(len(data), self.space)
        if accepted:
            whole = accepted == len(data)
            self._chunks.append(bytes(data) if whole else bytes(memoryview(data)[:accepted]))
            self._end += accepted
            self._ends.append(self._end)
        return accepted

    def peek(self, seq: int, length: int) -> bytes:
        """Bytes for (re)transmission starting at sequence ``seq``."""
        offset = sq.sub(seq, self.base_seq)
        if offset < 0 or offset + length > len(self):
            raise IndexError(
                f"range seq={seq} len={length} outside buffered "
                f"[{self.base_seq}, {self.end_seq})"
            )
        if not length:
            return b""
        pos = self._una + offset
        index = bisect_right(self._ends, pos)  # the chunk holding ``pos``
        chunk = self._chunks[index]
        start = pos - (self._ends[index] - len(chunk))
        piece = chunk[start : start + length]
        if len(piece) == length:
            return piece
        pieces = [piece]
        missing = length - len(piece)
        while missing:
            index += 1
            piece = self._chunks[index][:missing]
            pieces.append(piece)
            missing -= len(piece)
        return b"".join(pieces)

    def ack_to(self, seq: int) -> int:
        """Release bytes up to ``seq`` (new snd_una); returns bytes freed."""
        advance = sq.sub(seq, self.base_seq)
        if advance < 0:
            return 0
        if advance > len(self):
            raise ValueError(f"ACK {seq} beyond buffered data (end {self.end_seq})")
        self._una += advance
        self.base_seq = seq
        acked = bisect_right(self._ends, self._una)  # chunks wholly below snd_una
        if acked:
            del self._chunks[:acked]
            del self._ends[:acked]
        return advance


class ReassemblyQueue:
    """Out-of-order segment store producing in-order SKBs.

    Segments are kept sorted and non-overlapping; inserted data is
    trimmed against what was already received so each byte keeps the
    metadata of the *first* packet that delivered it (matching how the
    kernel drops fully-duplicate retransmissions).
    """

    def __init__(self, rcv_nxt: int, window: int = 16 * 1024 * 1024):
        self.rcv_nxt = rcv_nxt
        self.window = window
        #: Bytes parked out of order (read for every advertised window).
        self.buffered_bytes = 0
        self._segments: list[Skb] = []  # sorted by seq, non-overlapping

    @property
    def has_gap_data(self) -> bool:
        """True if out-of-order data is parked waiting for a hole."""
        return bool(self._segments)

    def sack_blocks(self, limit: int = 4) -> tuple:
        """Out-of-order byte ranges for SACK options (RFC 2018), merged
        into maximal runs, lowest-first, at most ``limit`` blocks."""
        blocks: list[tuple[int, int]] = []
        for seg in self._segments:
            if blocks and blocks[-1][1] == seg.seq:
                blocks[-1] = (blocks[-1][0], seg.end_seq)
            else:
                blocks.append((seg.seq, seg.end_seq))
        return tuple(blocks[:limit])

    def insert(self, seq: int, data: bytes, meta: SkbMeta) -> list[Skb]:
        """Add a segment; returns newly in-order SKBs to deliver upward."""
        if not data:
            return self._pop_ready()
        # Trim the old-data prefix (full or partial retransmission).
        behind = sq.sub(self.rcv_nxt, seq)
        if behind > 0:
            if behind >= len(data):
                return []
            data = data[behind:]
            seq = self.rcv_nxt
        # Refuse data beyond our advertised window.
        if sq.sub(sq.add(seq, len(data)), self.rcv_nxt) > self.window:
            return []
        self._insert_trimmed(Skb(seq, data, meta))
        return self._pop_ready()

    def _insert_trimmed(self, skb: Skb) -> None:
        """Insert, trimming against existing segments (existing data wins)."""
        segs = self._segments
        rcv = self.rcv_nxt
        # Offsets from rcv_nxt: everything queued lies inside the window,
        # so they compare as plain integers.
        start = sq.sub(skb.seq, rcv)
        end = start + len(skb.data)
        # Disjoint and sorted by start is sorted by end too, so of the
        # segments starting at or before ``start`` only the last can
        # reach into the new data.
        first = bisect_right(segs, start, key=lambda s: sq.sub(s.seq, rcv))
        if first and sq.sub(segs[first - 1].end_seq, rcv) > start:
            first -= 1
        # ``run`` replaces the overlapped segments: the same segments
        # with the holes before, between and after them filled from the
        # new data.
        run: list[Skb] = []
        cursor = start
        last = first
        while last < len(segs):
            seg = segs[last]
            seg_start = sq.sub(seg.seq, rcv)
            if seg_start >= end:
                break
            if seg_start > cursor:
                run.append(_piece(skb, cursor - start, seg_start - start))
                self.buffered_bytes += seg_start - cursor
            run.append(seg)
            cursor = seg_start + len(seg.data)
            last += 1
        if cursor < end:
            run.append(_piece(skb, cursor - start, end - start))
            self.buffered_bytes += end - cursor
        segs[first:last] = run

    def _pop_ready(self) -> list[Skb]:
        segs = self._segments
        taken = 0
        rcv = self.rcv_nxt
        while taken < len(segs) and segs[taken].seq == rcv:
            rcv = segs[taken].end_seq
            taken += 1
        if not taken:
            return []
        ready = segs[:taken]
        del segs[:taken]
        self.buffered_bytes -= sq.sub(rcv, self.rcv_nxt)
        self.rcv_nxt = rcv
        return ready


def _piece(skb: Skb, lo: int, hi: int) -> Skb:
    """Bytes [lo, hi) of ``skb`` as a segment of their own; a cut piece
    gets its own copy of the offload results, which describe every byte
    alike."""
    if lo == 0 and hi == len(skb.data):
        return skb
    return Skb(sq.add(skb.seq, lo), skb.data[lo:hi], skb.meta.copy())
