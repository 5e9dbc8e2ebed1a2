"""HTTP/2 client and server endpoints over simulated TCP.

The client carries the autonomous offload: before requesting a stream
it registers the response buffer under the stream id, so the NIC can
verify each DATA frame's FCS and place its payload inline; frames the
NIC fully handled skip the software copy+CRC.  The server interleaves
trailerless control frames (SETTINGS, WINDOW_UPDATE) with DATA frames
of deliberately non-uniform length across many concurrent streams —
the resync-speculation stress profile uniform TLS records can't
produce.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.core.types import Direction
from repro.l5p import plugin
from repro.l5p.base import StreamEndpoint
from repro.l5p.http2 import frame as F

#: Non-uniform DATA chunk sizes (bytes), cycled per stream and chunk —
#: from sub-MTU to the largest FCS frame the 16 KiB cap allows.
CHUNK_SIZES = (977, 3181, F.MAX_FRAME - F.FCS_LEN, 512, 7900)
#: The server emits one WINDOW_UPDATE per this many DATA frames.
WINDOW_UPDATE_EVERY = 4

#: Software cost accounting (cycles) for the HTTP-layer bookkeeping.
CYCLES_REQUEST = 600
CYCLES_FRAME = 120


class Http2Server:
    """Serves synthetic bodies: a HEADERS request names a byte count."""

    def __init__(self, host, port: int = 8080, config: Optional[F.Http2Config] = None):
        self.host = host
        self.config = config or F.Http2Config()
        self.streams_served = 0
        # When set, connections report framing desyncs here, not by raising.
        self.on_error: Optional[Callable[[str], None]] = None
        host.tcp.listen(port, self._accept)

    def _accept(self, conn) -> None:
        _ServerConn(self, conn)


class _ServerConn(StreamEndpoint):
    protocol = "http2"

    def __init__(self, server: Http2Server, conn):
        super().__init__(server.host)
        self.server = server
        self.digest_cls = F.get_digest(server.config.digest_name)
        self._since_update = 0
        self._attach(conn)

    @property
    def on_error(self):
        return self.server.on_error

    def _on_message(self, msg, idx: int) -> None:
        wire = msg.wire
        _, ftype, flags, stream_id = F.FRAME.unpack(wire[: F.HEADER_LEN])
        if ftype == F.TYPE_SETTINGS and not flags & F.FLAG_ACK:
            self._queue(F.make_frame(F.TYPE_SETTINGS, F.FLAG_ACK, 0, b""))
            return
        if ftype != F.TYPE_HEADERS:
            return
        (length,) = struct.unpack(">I", wire[F.HEADER_LEN : F.HEADER_LEN + 4])
        if length > self.server.config.max_response:
            return  # HEADERS carry no FCS: a corrupted count must not be served
        self.core.charge(CYCLES_REQUEST, "app")
        self._queue(F.make_frame(F.TYPE_HEADERS, F.FLAG_END_HEADERS, stream_id, b"200"))
        self._send_body(stream_id, length)
        self.server.streams_served += 1

    def _send_body(self, stream_id: int, length: int) -> None:
        """DATA frames with FCS, chunked non-uniformly per stream."""
        offset = 0
        chunk_index = 0
        while offset < length:
            size = min(CHUNK_SIZES[(stream_id // 2 + chunk_index) % len(CHUNK_SIZES)],
                       length - offset)
            body = bytes((stream_id + offset + i) & 0xFF for i in range(size))
            flags = F.FLAG_FCS
            if offset + size >= length:
                flags |= F.FLAG_END_STREAM
            # TX stays in software: the server pays the FCS computation.
            self.core.charge(size * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
            self.core.charge(CYCLES_FRAME, "app")
            self._queue(F.make_frame(F.TYPE_DATA, flags, stream_id, body, self.digest_cls))
            offset += size
            chunk_index += 1
            self._since_update += 1
            if self._since_update >= WINDOW_UPDATE_EVERY:
                self._since_update = 0
                self._queue(
                    F.make_frame(F.TYPE_WINDOW_UPDATE, 0, 0, struct.pack(">I", 1 << 16))
                )


class Http2Client(StreamEndpoint):
    """Fetches streams; offloads DATA-frame FCS + placement when configured."""

    protocol = "http2"

    def __init__(self, host, server: str, port: int = 8080,
                 config: Optional[F.Http2Config] = None):
        super().__init__(host)
        self.config = config or F.Http2Config()
        self.digest_cls = F.get_digest(self.config.digest_name)
        self._next_stream = 1  # client streams are odd
        self._fetches: dict[int, dict] = {}
        self.stats = {
            "fetches": 0,
            "responses": 0,
            "data_frames": 0,
            "placed_frames": 0,
            "software_frames": 0,
            "errors": 0,
        }
        if self.config.rx_offload:
            self._driver()  # no OffloadNic: fail before the first packet
        self._attach(host.tcp.connect(server, port))

    def _offload(self, direction: Direction):
        if direction is Direction.RX and self.config.rx_offload:
            return plugin.make_adapter("http2", config=self.config), None
        return None  # requests are not TX-offloaded

    def _on_established(self) -> None:
        self._queue(F.make_frame(F.TYPE_SETTINGS, 0, 0, b""))
        self._install(Direction.RX)

    def _installed(self, direction: Direction) -> None:
        """Streams already in flight are placed too, each from the byte
        its fetch has reached."""
        for stream_id, fetch in self._fetches.items():
            entry = fetch.get("entry")
            if entry is not None:
                entry["offset"] = fetch["received"]
                self.host.nic.driver.l5o_add_rr_state(self._rx_ctx, stream_id, entry)

    # ------------------------------------------------------------------
    def fetch(self, length: int, on_done: Callable[[bytes, float], None]) -> int:
        """Request ``length`` synthetic bytes; ``on_done(body, latency)``."""
        stream_id = self._next_stream
        self._next_stream += 2
        fetch = {
            "length": length,
            "received": 0,
            "on_done": on_done,
            "issued_at": self.host.sim.now,
            "body": bytearray(),
        }
        if self.config.rx_offload_copy:
            entry = {"buffer": bytearray(length), "offset": 0}
            fetch["entry"] = entry
            if self._rx_ctx is not None:
                self.host.nic.driver.l5o_add_rr_state(self._rx_ctx, stream_id, entry)
        self._fetches[stream_id] = fetch
        self.core.charge(CYCLES_REQUEST, "app")
        self._queue(
            F.make_frame(F.TYPE_HEADERS, F.FLAG_END_HEADERS, stream_id,
                         struct.pack(">I", length))
        )
        self.stats["fetches"] += 1
        return stream_id

    def _on_message(self, msg, idx: int) -> None:
        wire = msg.wire
        length, ftype, flags, stream_id = F.FRAME.unpack(wire[: F.HEADER_LEN])
        if ftype != F.TYPE_DATA:
            return
        fetch = self._fetches.get(stream_id)
        if fetch is None:
            return
        self.stats["data_frames"] += 1
        fcs = bool(flags & F.FLAG_FCS)
        body_len = length - F.FCS_LEN if fcs else length
        body_runs = msg.slice_runs(F.HEADER_LEN, body_len)
        placed = self.config.rx_offload_copy and all(r.meta.placed for r in body_runs)
        crc_done = self.config.rx_offload_crc and all(r.meta.crc_ok for r in msg.runs)
        body = wire[F.HEADER_LEN : F.HEADER_LEN + body_len]
        if fcs and placed and crc_done:
            self.stats["placed_frames"] += 1  # copy + FCS check skipped
        else:
            self.stats["software_frames"] += 1
            self.core.charge(body_len * self.host.llc.copy_cpb(), "copy")
            if fcs:
                self.core.charge(
                    body_len * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc"
                )
                if self.digest_cls(body).digest() != wire[F.HEADER_LEN + body_len :]:
                    self.stats["errors"] += 1
                    return
        self.core.charge(CYCLES_FRAME, "app")
        fetch["received"] += body_len
        fetch["body"] += body
        if flags & F.FLAG_END_STREAM:
            self._finish(stream_id, fetch)

    def _finish(self, stream_id: int, fetch: dict) -> None:
        del self._fetches[stream_id]
        if self._rx_ctx is not None and self.config.rx_offload_copy:
            self.host.nic.driver.l5o_del_rr_state(self._rx_ctx, stream_id)
        self.stats["responses"] += 1
        if fetch["received"] != fetch["length"]:
            self.stats["errors"] += 1
        latency = self.host.sim.now - fetch["issued_at"]
        fetch["on_done"](bytes(fetch["body"]), latency)
