"""Send buffering and receive-side reassembly.

The reassembly queue is the piece the offload architecture leans on:
each arriving segment carries :class:`~repro.net.packet.SkbMeta` offload
bits, and those bits must stay attached to exactly the bytes they
describe while segments are trimmed and reordered — the stack "takes
care not to coalesce packets with different offload results" (§4.3).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.net.packet import Buffer, SkbMeta, Wire, gather
from repro.tcp import seq as sq


@dataclass
class Skb:
    """An in-order run of bytes handed to the L5P, with offload results.

    ``data`` is whatever the wire delivered — ``bytes`` the NIC produced
    or a read-only view of the sender's buffer — and is never copied on
    its way up; a consumer that keeps or parses it takes ``bytes(data)``.
    """

    seq: int
    data: Buffer
    meta: SkbMeta

    def __len__(self) -> int:
        return len(self.data)

    @property
    def end_seq(self) -> int:
        return sq.add(self.seq, len(self.data))


def frozen(piece, limit: Optional[int] = None) -> memoryview:
    """``piece`` (its first ``limit`` bytes) as a read-only view that no
    later write can reach — the one place that decides what the stack
    may hold on to: immutable ``bytes``, or a view of them, is kept by
    reference; anything else is snapshotted."""
    if isinstance(piece, bytes):
        view = memoryview(piece)
    elif (
        isinstance(piece, memoryview)
        and isinstance(piece.obj, bytes)
        and piece.format == "B"
        and piece.ndim == 1
        and piece.contiguous
    ):
        view = piece
    else:
        return memoryview(bytes(memoryview(piece)[:limit]))
    return view if limit is None or len(view) <= limit else view[:limit]


class SendBuffer:
    """Bytes the application has written but TCP has not yet had ACKed.

    Holds the range [snd_una, snd_una + len); supports reading any
    sub-range for (re)transmission.  The payload stays where the caller
    put it: the buffer keeps a read-only view of each immutable object
    it was handed plus the view's end position in the stream, and a
    segment is a slice of that view — so an L5P that logs a record for
    TX recovery, the buffer that transmits it and the packets in flight
    all share one object.
    """

    def __init__(self, base_seq: int, limit: int = 4 * 1024 * 1024):
        self.base_seq = base_seq  # sequence number of the first unacked byte
        self.limit = limit
        # Stream positions count bytes since construction and never wrap.
        self._chunks: list[memoryview] = []  # _chunks[0] may be partly acked
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

    def append(self, data: Wire) -> int:
        """Append up to ``space`` bytes; returns how many were accepted.

        ``data`` is one buffer or a gather list of them, taken as one
        write.  Later writes to a caller-owned buffer never reach the
        wire (see :func:`frozen`).
        """
        room = self.space
        start = self._end
        for piece in gather(data):
            if not room:
                break
            view = frozen(piece, room)
            if len(view):
                self._chunks.append(view)
                self._end += len(view)
                self._ends.append(self._end)
                room -= len(view)
        return self._end - start

    def peek(self, seq: int, length: int) -> Buffer:
        """Bytes for (re)transmission starting at sequence ``seq``: a
        view of the chunk that holds them, or joined ``bytes`` when the
        range crosses a chunk boundary."""
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
        # The byte ranges ``_segments`` covers, merged into maximal runs
        # ``(start_seq, end_seq)``, sorted: what every ACK's SACK option
        # reports, kept here so an ACK never walks the parked segments.
        self._blocks: list[tuple[int, int]] = []

    @property
    def has_gap_data(self) -> bool:
        """True if out-of-order data is parked waiting for a hole."""
        return bool(self._segments)

    def sack_blocks(self, limit: int = 4) -> tuple:
        """Out-of-order byte ranges for SACK options (RFC 2018), merged
        into maximal runs, lowest-first, at most ``limit`` blocks."""
        return tuple(self._blocks[:limit])

    def insert(self, seq: int, data: Buffer, meta: SkbMeta) -> list[Skb]:
        """Add a segment; returns newly in-order SKBs to deliver upward."""
        if not data:
            return self._pop_ready()
        # Trim the old-data prefix (full or partial retransmission).
        behind = sq.sub(self.rcv_nxt, seq)
        if behind > 0:
            if behind >= len(data):
                return []
            data = memoryview(data)[behind:]
            seq = self.rcv_nxt
        # Refuse data beyond our advertised window.
        if sq.sub(sq.add(seq, len(data)), self.rcv_nxt) > self.window:
            return []
        if seq == self.rcv_nxt and not self._segments:
            # In order with nothing parked, the common case: straight up.
            self.rcv_nxt = sq.add(seq, len(data))
            return [Skb(seq, data, meta)]
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
        # The same union over the merged runs: every block the new range
        # overlaps or touches becomes one block with it.
        blocks = self._blocks
        lo = bisect_left(blocks, start, key=lambda b: sq.sub(b[1], rcv))
        hi = lo
        while hi < len(blocks) and sq.sub(blocks[hi][0], rcv) <= end:
            hi += 1
        if lo < hi:
            start = min(start, sq.sub(blocks[lo][0], rcv))
            end = max(end, sq.sub(blocks[hi - 1][1], rcv))
        blocks[lo:hi] = [(sq.add(rcv, start), sq.add(rcv, end))]

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
        del self._blocks[0]  # contiguous from rcv_nxt: exactly the first run
        self.buffered_bytes -= sq.sub(rcv, self.rcv_nxt)
        self.rcv_nxt = rcv
        return ready


def _piece(skb: Skb, lo: int, hi: int) -> Skb:
    """Bytes [lo, hi) of ``skb`` as a segment of their own; a cut piece
    gets its own copy of the offload results, which describe every byte
    alike."""
    if lo == 0 and hi == len(skb.data):
        return skb
    return Skb(sq.add(skb.seq, lo), memoryview(skb.data)[lo:hi], skb.meta.copy())
