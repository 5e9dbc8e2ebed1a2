"""Shared L5P stream machinery: the endpoint core every protocol sits on.

Every stream L5P consumes the TCP byte stream "packet-by-packet" (§4.3):
each delivered run carries the NIC's offload bits, and the L5P must
know, per message, which byte ranges were offloaded to decide between
reusing NIC results and software fallback.  :class:`StreamAssembler`
does that bookkeeping; :class:`TxLog` keeps the transmitted messages TX
recovery replays from; and :class:`StreamEndpoint` is the Listing-2
lifecycle built on both — written once, so that a protocol supplies
only its framing, its transform (the adapter) and a per-message handler
(``docs/l5p-plugins.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.types import Direction, TxMsgState
from repro.l5p import plugin
from repro.net.packet import Buffer, SkbMeta, Wire, gather
from repro.tcp import seq as sq


def wire_len(wire: Wire) -> int:
    return sum(map(len, gather(wire)))


@dataclass
class Run:
    """A byte run with uniform offload metadata: a view of the packet
    payload that delivered it."""

    data: Buffer
    meta: SkbMeta

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class AssembledMessage:
    """One complete L5P message cut out of the stream."""

    start_seq: int  # TCP sequence of the first header byte
    runs: list[Run]

    @property
    def length(self) -> int:
        return sum(len(r) for r in self.runs)

    @property
    def wire(self) -> bytes:
        return b"".join(r.data for r in self.runs)

    def cut(self, offset: int, length: int) -> bytes:
        """Bytes ``[offset, offset+length)`` of the message, copied out
        for a consumer that keeps or parses them."""
        return b"".join(r.data for r in self.slice_runs(offset, length))

    def fully(self, predicate: Callable[[SkbMeta], bool]) -> bool:
        return all(predicate(r.meta) for r in self.runs)

    def partially(self, predicate: Callable[[SkbMeta], bool]) -> bool:
        hits = [predicate(r.meta) for r in self.runs]
        return any(hits) and not all(hits)

    def slice_runs(self, offset: int, length: int) -> list[Run]:
        """Runs covering ``[offset, offset+length)`` of the message."""
        out: list[Run] = []
        pos = 0
        for run in self.runs:
            run_end = pos + len(run)
            lo = max(offset, pos)
            hi = min(offset + length, run_end)
            if lo < hi:
                out.append(Run(run.data[lo - pos : hi - pos], run.meta))
            pos = run_end
            if pos >= offset + length:
                break
        return out


class StreamAssembler:
    """Cuts a metadata-carrying byte stream into length-framed messages.

    ``total_len_fn(header_bytes)`` maps a complete fixed-size header to
    the message's full on-wire length (header + body + trailer), or
    raises :class:`ValueError` for an unparseable header.
    """

    def __init__(self, header_len: int, total_len_fn: Callable[[bytes], int], start_seq: int = 0):
        self.header_len = header_len
        self.total_len_fn = total_len_fn
        self.next_msg_seq = start_seq  # seq of the current message's first byte
        self._runs: deque[Run] = deque()
        self._buffered = 0
        self._msg_total: Optional[int] = None

    def push(self, data: Buffer, meta: SkbMeta) -> list[AssembledMessage]:
        """Feed in-order stream bytes; returns completed messages, whose
        runs are views of ``data`` (nothing is copied here)."""
        if not data:
            return []
        self._runs.append(Run(memoryview(data), meta))
        self._buffered += len(data)
        out: list[AssembledMessage] = []
        while True:
            if self._msg_total is None:
                if self._buffered < self.header_len:
                    break
                header = self._peek(self.header_len)
                self._msg_total = self.total_len_fn(header)
                if self._msg_total < self.header_len:
                    raise ValueError(
                        f"message length {self._msg_total} shorter than header ({self.header_len})"
                    )
            if self._buffered < self._msg_total:
                break
            out.append(self._cut(self._msg_total))
            self._msg_total = None
        return out

    # ------------------------------------------------------------------
    def _peek(self, n: int) -> bytes:
        pieces = []
        for run in self._runs:
            pieces.append(run.data[:n])
            n -= len(pieces[-1])
            if not n:
                break
        return b"".join(pieces)

    def _cut(self, n: int) -> AssembledMessage:
        taken: list[Run] = []
        remaining = n
        while remaining > 0:
            run = self._runs[0]
            if len(run) <= remaining:
                taken.append(run)
                remaining -= len(run)
                self._runs.popleft()
            else:
                taken.append(Run(run.data[:remaining], run.meta))
                self._runs[0] = Run(run.data[remaining:], run.meta)
                remaining = 0
        self._buffered -= n
        msg = AssembledMessage(self.next_msg_seq, taken)
        self.next_msg_seq = sq.add(self.next_msg_seq, n)
        return msg


class TxLog:
    """One stream's transmitted-but-unacknowledged messages, oldest first:
    what ``l5o_get_tx_msgstate`` answers from when a retransmission (or
    a re-installed context) lands mid-message (§4.2).

    A message is logged as the very pieces TCP's send buffer holds and
    is joined only when a lookup actually needs its bytes.

    Positions are whatever the carrying byte stream counts in — TCP
    sequence numbers, or plaintext offsets when the stream rides kTLS —
    compared modulo 2^32, so the log works across the sequence wrap.
    """

    def __init__(self) -> None:
        self._msgs: deque[tuple[int, int, Wire, Optional[dict], int]] = deque()
        self.sent = 0  # messages ever handed down == index of the next one

    def track(self, start: int, wire: Wire, info: Optional[dict] = None, keep: bool = True) -> None:
        """Count one message starting at ``start``; remember it if ``keep``."""
        if keep:
            self._msgs.append((start, self.sent, wire, info, wire_len(wire)))
        self.sent += 1

    def lookup(self, pos: int) -> Optional[TxMsgState]:
        """State of the logged message covering stream position ``pos``."""
        for start, idx, wire, info, size in self._msgs:
            if sq.between(start, pos, sq.add(start, size)):
                joined = b"".join(gather(wire))
                return TxMsgState(start_seq=start, msg_index=idx, wire_bytes=joined, info=info or {})
        return None

    def prune(self, acked: int) -> None:
        """Drop messages that end at or before ``acked``."""
        msgs = self._msgs
        while msgs and sq.le(sq.add(msgs[0][0], msgs[0][4]), acked):
            msgs.popleft()

    def head(self) -> Optional[tuple[int, int, Wire, Optional[dict], int]]:
        """The oldest un-acked ``(start, index, wire, info, size)``, if any."""
        return self._msgs[0] if self._msgs else None


class StreamEndpoint:
    """One end of an offloadable L5P byte stream: Listing 2, once.

    The core *is* the connection's ``on_data`` / ``on_writable`` /
    chained-``on_established`` handler and owns everything the paper
    asks of L5P software besides the protocol itself: cutting the stream
    into messages and routing framing errors, the backpressured
    out-queue, the TX message log, confirming or denying the NIC's
    resync speculations, degradation, and installing contexts — the
    first time and again after a NIC reset, from state the host still
    holds.  A protocol subclasses it and supplies:

    - :attr:`protocol` — its registered name; the stream is cut with
      that registration's :class:`~repro.l5p.frame.FrameSpec`;
    - :meth:`_offload` — which adapter and static state each direction's
      context gets, and calls :meth:`_install` when the stream is ready
      for one;
    - :meth:`_on_message` — what to do with one received message;
    - optionally :meth:`_installed` (re-register request/response state
      on a fresh context), :meth:`_on_established`, :meth:`_writable`.

    An endpoint may ride a ``lower`` kTLS socket instead of the TCP
    connection (stacked NVMe-TLS, §5.3): it is then fed decrypted record
    runs from stream position 0, transmits through the socket, and owns
    no contexts — it only mirrors the lower layer's handles so it can
    register request/response state on them.
    """

    #: The protocol's name in the :mod:`repro.l5p.plugin` registry.
    protocol = "l5p"
    #: When set, detected failures (framing desync, failed integrity
    #: checks) are reported here instead of raising.
    on_error: Optional[Callable[[str], None]] = None

    def __init__(self, host) -> None:
        self.host = host
        self.model = host.model
        self.frame = plugin.get(self.protocol).frame
        self.conn: Any = None
        self.core: Any = None
        self.lower: Any = None
        self.offload_degraded = 0  # times the driver gave up on this stream's offload
        self._assembler: Optional[StreamAssembler] = None
        self._rx_count = 0  # messages handled == index of the next one
        self._rx_seq: Optional[int] = None  # where the next one starts
        self._outq: deque[Wire] = deque()
        self._tx = TxLog()
        self._pending_resync: list[int] = []
        self._tx_ctx: Any = None
        self._rx_ctx: Any = None

    def _attach(self, conn, lower=None) -> None:
        """Take over ``conn`` (or, stacked, the ``lower`` socket on it)."""
        self.conn = conn
        self.core = self.host.core_for_flow(conn.flow)
        self.lower = lower
        if lower is not None:
            lower.on_record = self._on_runs
            lower.on_writable = self._on_writable
            lower.on_offload_installed = self._adopt
            return
        conn.on_data = self._on_skb
        conn.on_writable = self._on_writable
        previous = conn.on_established

        def established() -> None:
            if previous:
                previous()
            self._flush()
            self._on_established()

        conn.on_established = established

    # ------------------------------------------------------------------
    # what a protocol supplies
    # ------------------------------------------------------------------
    def _total_len(self, header: bytes) -> int:
        """Full on-wire length of the message ``header`` starts;
        :class:`ValueError` if it cannot be a header.  The frame's full
        check, unless a protocol has a reason to cut more leniently."""
        return self.frame.total_len(header)

    def _on_message(self, msg: AssembledMessage, idx: int) -> None:
        """Handle the stream's ``idx``-th message."""
        raise NotImplementedError

    def _offload(self, direction: Direction) -> Optional[tuple[Any, Any]]:
        """``(adapter, static_state)`` for ``direction``'s context, or
        None when this endpoint does not (or cannot yet) offload it."""
        return None

    def _installed(self, direction: Direction) -> None:
        """A context was (re-)installed: register the request/response
        state still held for it."""

    def _on_established(self) -> None:
        """The connection completed its handshake."""

    def _writable(self) -> None:
        """The transport accepted everything queued and has room."""

    # ------------------------------------------------------------------
    # receive: stream -> messages
    # ------------------------------------------------------------------
    def _on_skb(self, skb) -> None:
        self._ingest(skb.data, skb.meta, skb.seq)

    def _on_runs(self, runs: list[Run]) -> None:
        for run in runs:
            self._ingest(run.data, run.meta, 0)

    def _ingest(self, data: Buffer, meta: SkbMeta, seq: int) -> None:
        if self._assembler is None:
            self._assembler = StreamAssembler(self.frame.header_len, self._total_len, start_seq=seq)
            self._rx_seq = seq
        try:
            messages = self._assembler.push(data, meta)
        except ValueError as exc:
            self._fail(f"stream framing error at seq {self._assembler.next_msg_seq}: {exc}")
            return
        # Position and count move together, message by message, so a
        # handler that installs a context (kTLS, at the hello) starts it
        # at the right boundary with the right index even when later
        # messages of this push are already cut.
        ends = [m.start_seq for m in messages[1:]] + [self._assembler.next_msg_seq]
        for msg, end in zip(messages, ends):
            idx = self._rx_count
            self._rx_count = idx + 1
            self._rx_seq = end
            if self._pending_resync:
                self._answer_resyncs(msg, idx)
            self._on_message(msg, idx)

    def _fail(self, reason: str) -> None:
        if self.on_error is not None:
            self.on_error(reason)
        else:
            raise RuntimeError(f"{self.protocol}: {reason}")

    def _answer_resyncs(self, msg: AssembledMessage, idx: int) -> None:
        """Figure 7, c -> d1/d2: confirm a speculation that names this
        message's first byte, deny one the stream has moved past, keep
        one still ahead."""
        if self._rx_ctx is None:
            return
        driver = self.host.nic.driver
        still_ahead = []
        for req in self._pending_resync:
            if req == msg.start_seq:
                driver.l5o_resync_rx_resp(self._rx_ctx, req, True, msg_index=idx)
            elif sq.lt(req, self._rx_seq):
                driver.l5o_resync_rx_resp(self._rx_ctx, req, False)
            else:
                still_ahead.append(req)
        self._pending_resync = still_ahead

    # ------------------------------------------------------------------
    # transmit: whole frames, with backpressure
    # ------------------------------------------------------------------
    def _queue(self, wire: Wire) -> None:
        """Send one frame as soon as the transport can take all of it."""
        self._outq.append(wire)
        self._flush()

    def _flush(self) -> None:
        lower = self.lower
        while self._outq:
            size = wire_len(self._outq[0])
            if lower is not None:
                if not lower.ready or lower.send_space < size:
                    return
            elif self.conn.state not in ("established", "close-wait") or self.conn.send_space < size:
                return
            self._transmit(self._outq.popleft())

    def _transmit(self, wire: Wire, info: Optional[dict] = None) -> None:
        """Hand one frame to the transport now, logging it for TX
        recovery when a TX context covers the stream.  The log and the
        transport get the same object(s)."""
        lower = self.lower
        if lower is not None:
            wire = b"".join(gather(wire))  # kTLS cuts record bodies out of one buffer
        start = lower.stats.bytes_tx if lower is not None else self.conn.send_buffer.end_seq
        self._tx.track(start, wire, info, keep=self._tx_ctx is not None)
        sent = lower.send(wire) if lower is not None else self.conn.send(wire)
        if sent != wire_len(wire):
            raise RuntimeError(f"{self.protocol}: frame split across send buffer boundary")

    def _on_writable(self) -> None:
        lower = self.lower
        self._tx.prune(lower.tx_plain_unacked if lower is not None else self.conn.snd_una)
        self._flush()
        self._writable()

    # ------------------------------------------------------------------
    # offload contexts
    # ------------------------------------------------------------------
    def _driver(self):
        driver = getattr(self.host.nic, "driver", None)
        if driver is None:
            raise RuntimeError(f"{self.protocol} offload requires an OffloadNic")
        return driver

    def _install(self, direction: Direction):
        """Install ``direction``'s context where the stream stands now.

        TX starts at the head of the un-acked log — everything before it
        is acknowledged, so ``snd_una`` lies inside the head message and
        bytes below ``created_seq`` pass through raw — or, with nothing
        in flight, at the next byte to be queued.  RX starts at the next
        message boundary the stream expects; the Figure 7 machinery
        absorbs any seam.  Returns the context, or None when this
        endpoint does not offload ``direction``."""
        spec = None if self.lower is not None else self._offload(direction)
        if spec is None:
            return None
        adapter, static_state = spec
        if direction is Direction.TX:
            head = self._tx.head()
            start, idx = head[:2] if head else (self.conn.send_buffer.end_seq, self._tx.sent)
        else:
            start = self._rx_seq if self._rx_seq is not None else self.conn.rcv_nxt
            idx = self._rx_count
        ctx = self._driver().l5o_create(
            self.conn, adapter, static_state, tcpsn=start, direction=direction, l5p_ops=self, msg_index=idx
        )
        self._adopt(direction, ctx)
        return ctx

    def _adopt(self, direction: Direction, ctx=None) -> None:
        """Record ``direction``'s fresh context — our own, or (stacked)
        the one the lower socket just installed."""
        if ctx is None:
            ctx = self.lower._tx_ctx if direction is Direction.TX else self.lower._rx_ctx
        if direction is Direction.TX:
            self._tx_ctx = ctx
        else:
            self._rx_ctx = ctx
        self._installed(direction)

    # ------------------------------------------------------------------
    # Listing 2: upcalls from the NIC driver
    # ------------------------------------------------------------------
    def l5o_get_tx_msgstate(self, tcpsn: int) -> Optional[TxMsgState]:
        return self._tx.lookup(tcpsn)

    def l5o_resync_rx_req(self, tcpsn: int) -> None:
        self._pending_resync.append(tcpsn)

    def l5o_offload_degraded(self, direction: str, reason: str) -> None:
        """The driver gave up on this stream's offload (§5.3's permanent
        software fallback); the stream keeps working through the
        software path its handler already has."""
        self.offload_degraded += 1

    def l5o_nic_reattach(self, direction: str):
        """A NIC reset destroyed ``direction``'s context; re-install it
        from host-owned state (the whole point of autonomy, §2).
        Returns the new context, or None if the flow is gone."""
        if self.conn is None or self.conn.state == "closed":
            return None
        return self._install(Direction(direction))
