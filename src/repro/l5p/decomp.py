"""Inline decompression offload — the non-size-preserving receive case
(paper §3.1 and §7, "Decompression and deserialization").

Transmit-side compression is **not** offloadable (it would change the
byte count under TCP's feet, Figure 5); the adapter enforces that.  On
receive, the NIC writes the *decompressed output* into pre-allocated
buffers the L5P registered, while the original compressed bytes still
flow to the receive ring unmodified — so TCP sees preserved sizes and
software can always fall back.  Output sizes are predictable because
the message header carries the plaintext length (the §7 precondition).

Wire format ("CZ" protocol):

    magic(0xC0 0x17) | flags(1) | msg_id(4) | plain_len(4) | comp_len(4)
    compressed body (comp_len B)
    CRC32C over the compressed body (4 B)

The 4-byte message id plays the role NVMe's CID plays for the copy
offload: it correlates the NIC's placed output buffer with the message
software later consumes (a request/response-style correlation id).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.core.types import Direction, L5pAdapter, MessageDesc, MsgTransform, ProtocolError
from repro.crypto.crc import get_digest
from repro.l5p import plugin
from repro.l5p.base import StreamEndpoint
from repro.l5p.frame import FrameSpec
from repro.tcp import seq as sq
from repro.util.lzss import StreamingDecoder, compress, decompress

_GREETING = b"CZRDY"
TRAILER_LEN = 4
MAX_PLAIN = 1 << 20
FLAG_COMPRESSED = 0x01


def _max_compressed(plain_len: int) -> int:
    """LZSS worst case: a flag bit per literal, plus slack."""
    return plain_len + plain_len // 4 + 64


FRAME = FrameSpec(
    ">2sBIII",
    "magic flags msg_id plain_len comp_len",
    length="comp_len",
    trailer=TRAILER_LEN,
    const={"magic": b"\xc0\x17"},
    check=lambda cz: cz.plain_len <= MAX_PLAIN and cz.comp_len <= _max_compressed(cz.plain_len),
)
HEADER_LEN = FRAME.header_len


def make_message(plain: bytes, digest_cls, msg_id: int = 0) -> bytes:
    body = compress(plain)
    header = FRAME.build(flags=FLAG_COMPRESSED, msg_id=msg_id, plain_len=len(plain), comp_len=len(body))
    return header + body + digest_cls(body).digest()


class _DecompTransform(MsgTransform):
    """Digest the compressed bytes; decompress into a placed buffer."""

    def __init__(self, adapter: "DecompAdapter", desc: MessageDesc, rr_state: dict):
        self.adapter = adapter
        self.digest = adapter.digest_cls()
        self.plain_len = desc.info.plain_len
        self.rr_state = rr_state
        self.decoder = StreamingDecoder()
        pool = rr_state.get("_pool")
        self.buffer: Optional[bytearray] = pool.popleft() if pool else None
        self._failed = self.buffer is None or len(self.buffer) < self.plain_len
        if self._failed:
            adapter.note_place_failure()
        self._msg_id = desc.info.msg_id

    def process(self, data: bytes) -> bytes:
        self.digest.update(data)
        if not self._failed:
            try:
                produced = self.decoder.update(data)
            except ValueError:
                self._fail()
                return data
            offset = self.decoder.produced - len(produced)
            if self.decoder.produced > self.plain_len:
                self._fail()
            else:
                self.buffer[offset : offset + len(produced)] = produced
        return data  # wire bytes pass through unchanged (TCP sees them)

    def _fail(self) -> None:
        self._failed = True
        self.adapter.note_place_failure()

    def finalize_tx(self) -> bytes:
        raise ProtocolError("compression is not offloadable on transmit (§3.1)")

    def verify_rx(self, wire_trailer: bytes) -> bool:
        ok = wire_trailer == self.digest.digest()
        complete = (
            not self._failed
            and self.decoder.produced == self.plain_len
            and self.decoder.at_token_boundary
        )
        if ok and complete:
            self.rr_state.setdefault("_results", {})[self._msg_id] = (
                self.buffer,
                self.plain_len,
            )
        elif self.buffer is not None:
            if not complete:
                self.adapter.note_place_failure()
            self.rr_state["_pool"].append(self.buffer)  # return unused
        return ok


class DecompAdapter(L5pAdapter):
    """One instance per flow direction (RX only)."""

    name = "decomp"
    frame = FRAME

    def __init__(self, digest_name: str = "crc32c"):
        self.digest_cls = get_digest(digest_name)
        self._pkt_place_ok = True
        self.place_failures = 0

    def note_place_failure(self) -> None:
        self._pkt_place_ok = False
        self.place_failures += 1

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        if direction == Direction.TX:
            raise ProtocolError("decompression offload is receive-only (§3.1)")
        return _DecompTransform(self, desc, rr_state if rr_state is not None else {})

    def apply_packet_meta(self, meta, processed: bool, ok: bool) -> None:
        meta.crc_ok = processed and ok
        meta.placed = processed and ok and self._pkt_place_ok
        self._pkt_place_ok = True


class CompressedStream(StreamEndpoint):
    """Software endpoint: framed compressed messages over a TcpConnection.

    The receiver pre-registers a pool of max-size output buffers with
    the NIC; messages the NIC fully handled arrive pre-decompressed in
    those buffers, everything else is decompressed in software.
    """

    protocol = "decomp"

    def __init__(self, host, conn, role: str, offload: bool = False, digest_name: str = "crc32c",
                 pool_buffers: int = 32, max_plain: int = 256 * 1024):
        super().__init__(host)
        self.offload = offload
        self.digest_cls = get_digest(digest_name)
        self.max_plain = max_plain
        self.on_message: Optional[Callable[[bytes], None]] = None
        self._adapter = DecompAdapter(digest_name) if offload else None
        self._greeting_seen = 0
        self._tx_id = 0
        self._pool_buffers = pool_buffers
        # Placement buffers, host-owned: every RX context this stream
        # installs (the first, and each one after a NIC reset) draws on
        # the same pool.
        self._pool: deque[bytearray] = deque()
        self.ready = role == "receiver"
        self.on_ready: Optional[Callable[[], None]] = None
        self.stats = {
            "tx": 0,
            "rx": 0,
            "rx_placed": 0,
            "rx_software": 0,
            "digest_fail": 0,
        }

        self._attach(conn)
        if role == "receiver":
            self._install(Direction.RX)
            # Greeting: tells the sender the receiver (and its NIC
            # context) is in place, so no data packet races the install.
            conn.send(_GREETING)
        elif offload:
            raise ValueError("offload applies to the receiver side")

    def _offload(self, direction: Direction):
        if direction is Direction.RX and self.offload:
            return self._adapter, None
        return None  # no TX offload exists for this L5P (§3.1)

    def _installed(self, direction: Direction) -> None:
        self._top_up_pool()
        self._rx_ctx.rr_state["_pool"] = self._pool

    def _top_up_pool(self) -> None:
        while len(self._pool) < self._pool_buffers:
            self._pool.append(bytearray(self.max_plain))

    # ------------------------------------------------------------------
    def send(self, plain: bytes) -> int:
        """Compress (software — TX offload is precluded) and queue.
        Returns 0 until the receiver's greeting arrives."""
        if not self.ready:
            return 0
        if len(plain) > self.max_plain:
            raise ValueError(f"message exceeds {self.max_plain}B")
        self.core.charge(len(plain) * self.model.cpb_compress, "compress")
        wire = make_message(plain, self.digest_cls, msg_id=self._tx_id)
        self._tx_id = (self._tx_id + 1) & 0xFFFFFFFF
        if self.conn.send_space < len(wire):
            return 0
        self._transmit(wire)
        self.stats["tx"] += 1
        return len(plain)

    # ------------------------------------------------------------------
    def _on_skb(self, skb) -> None:
        data, meta, seq = skb.data, skb.meta, skb.seq
        if not self.ready:
            # Sender side: consume the receiver's greeting first.
            take = min(len(_GREETING) - self._greeting_seen, len(data))
            self._greeting_seen += take
            data = data[take:]
            seq = sq.add(seq, take)
            if self._greeting_seen < len(_GREETING):
                return
            self.ready = True
            if self.on_ready:
                self.on_ready()
            if not data:
                return
        self._ingest(data, meta, seq)

    def _on_message(self, msg, idx: int) -> None:
        self.stats["rx"] += 1
        wire = msg.wire
        _magic, _flags, msg_id, plain_len, comp_len = FRAME.unpack(wire[:HEADER_LEN])
        placed = msg.fully(lambda m: m.placed) and self._rx_ctx is not None
        result = None
        if placed and self._rx_ctx is not None:
            result = self._rx_ctx.rr_state.get("_results", {}).pop(msg_id, None)
        if result is not None:
            buffer, length = result
            plain = bytes(buffer[:length])
            # Return the buffer to the pool for reuse.
            self._pool.append(buffer)
            self.stats["rx_placed"] += 1
        else:
            body = wire[HEADER_LEN : HEADER_LEN + comp_len]
            self.core.charge(comp_len * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
            if self.digest_cls(body).digest() != wire[-TRAILER_LEN:]:
                self.stats["digest_fail"] += 1
                return
            self.core.charge(plain_len * self.model.cpb_decompress, "compress")
            plain = decompress(body)
            self.stats["rx_software"] += 1
        if self._rx_ctx is not None:
            # Buffers lost to torn messages never return through verify_rx.
            self._top_up_pool()
        if self.on_message:
            self.on_message(plain)


PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="decomp",
        frame=FRAME,
        confidence=1e-4,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="size-preserving on the wire; inflation happens into the "
            "pre-registered destination buffer, not the TCP stream (§7)",
        ),
        factory=DecompAdapter,
        description="Inline decompression into pre-posted buffers",
    )
)
