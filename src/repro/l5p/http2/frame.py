"""HTTP/2 framing and the frame-CRC + placement offload adapter.

Standard 9-byte frame header (RFC 7540 §4.1)::

    length(3) | type(1) | flags(1) | R(1 bit) + stream_id(31)

plus one extension negotiated out of band: when a DATA frame carries
``FLAG_FCS``, the last 4 payload bytes are a CRC32C over the preceding
payload (a frame check sequence).  The length field still counts the
whole payload, so the transform is size-preserving and the NIC can
verify the FCS and place the data bytes into the response buffer
registered under the frame's ``stream_id`` — the same request/response
placement pattern as NVMe-TCP's CID map, keyed by stream instead.

Unlike TLS records (uniform, always trailered), HTTP/2 interleaves
trailerless control frames (HEADERS, SETTINGS, PING, WINDOW_UPDATE)
with DATA frames of non-uniform length on many concurrent streams —
the resync-speculation stress profile this plugin exists to produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.types import Direction, L5pAdapter, MessageDesc, MsgTransform
from repro.crypto.crc import get_digest
from repro.l5p import plugin
from repro.l5p.frame import FrameSpec

FCS_LEN = 4
MAX_FRAME = 16384  # default SETTINGS_MAX_FRAME_SIZE

TYPE_DATA = 0x0
TYPE_HEADERS = 0x1
TYPE_PRIORITY = 0x2
TYPE_RST_STREAM = 0x3
TYPE_SETTINGS = 0x4
TYPE_PUSH_PROMISE = 0x5
TYPE_PING = 0x6
TYPE_GOAWAY = 0x7
TYPE_WINDOW_UPDATE = 0x8
TYPE_CONTINUATION = 0x9

FLAG_END_STREAM = 0x01
FLAG_END_HEADERS = 0x04
FLAG_ACK = 0x01
FLAG_FCS = 0x20  # extension: payload ends in a CRC32C frame check sequence

#: Flag bits defined per frame type (anything else fails the parse).
_VALID_FLAGS = {
    TYPE_DATA: FLAG_END_STREAM | FLAG_FCS,
    TYPE_HEADERS: FLAG_END_STREAM | FLAG_END_HEADERS,
    TYPE_SETTINGS: FLAG_ACK,
    TYPE_PING: FLAG_ACK,
}
#: Frame types that must (True) / must not (False) carry a stream id.
_NEEDS_STREAM = {
    TYPE_DATA: True,
    TYPE_HEADERS: True,
    TYPE_PRIORITY: True,
    TYPE_RST_STREAM: True,
    TYPE_PUSH_PROMISE: True,
    TYPE_CONTINUATION: True,
    TYPE_SETTINGS: False,
    TYPE_PING: False,
    TYPE_GOAWAY: False,
}


@dataclass
class Http2Config:
    digest_name: str = "crc32c"
    rx_offload_crc: bool = False
    rx_offload_copy: bool = False
    max_response: int = 1 << 20

    @property
    def rx_offload(self) -> bool:
        return self.rx_offload_crc or self.rx_offload_copy


def _flags_and_stream_fit(frame) -> bool:
    """Only flag bits the type defines; a stream id where the type needs
    one and none where it must not have one."""
    if frame.flags & ~_VALID_FLAGS.get(frame.type, 0):
        return False
    needs_stream = _NEEDS_STREAM.get(frame.type)
    return needs_stream is None or needs_stream == (frame.stream_id != 0)


#: The 9-byte header has no magic constant; what identifies it is
#: structure: the 3-byte length's top bit is clear for any length up to
#: MAX_FRAME, types are 0x0..0x9, and the stream word's top bit is
#: reserved.  ``length`` counts the payload, FCS included.
FRAME = FrameSpec(
    ">3sBBI",
    "length type flags stream_id",
    length="length",
    decode=lambda raw: int.from_bytes(raw, "big"),
    encode=lambda length: length.to_bytes(3, "big"),
    counts="body+trailer",
    max_len=MAX_FRAME,
    trailer=("flags", FLAG_FCS, FCS_LEN),
    one_of={"type": tuple(range(TYPE_CONTINUATION + 1))},
    zero_bits={"length": 0x800000, "stream_id": 0x80000000},
    check=_flags_and_stream_fit,
)
HEADER_LEN = FRAME.header_len


def make_frame(ftype: int, flags: int, stream_id: int, payload: bytes, digest_cls=None) -> bytes:
    """Serialize one frame; ``FLAG_FCS`` appends the CRC32C trailer."""
    if flags & FLAG_FCS:
        payload = payload + (digest_cls or get_digest("crc32c"))(payload).digest()
    return FRAME.build(length=len(payload), type=ftype, flags=flags, stream_id=stream_id) + payload


class _Http2Transform(MsgTransform):
    """Digests FCS DATA payloads and places them per stream.

    State is one running CRC plus a write cursor — constant-size.  The
    per-stream destination lives in the context's ``rr_state`` under
    the stream id as ``{"buffer": bytearray, "offset": int}``; the
    offset is reserved up front so frames of one stream interleaved
    with other streams' land contiguously.
    """

    def __init__(self, adapter: "Http2Adapter", desc: MessageDesc, rr_state: Optional[dict]):
        self.adapter = adapter
        self.fcs = bool(desc.info.flags & FLAG_FCS)
        self.digest = adapter.digest_cls() if self.fcs else None
        self._offset = 0
        self._target = None
        self._start = 0
        if (
            self.fcs
            and adapter.config.rx_offload_copy
            and rr_state is not None
        ):
            entry = rr_state.get(desc.info.stream_id)
            if entry is not None and entry["offset"] + desc.body_len <= len(entry["buffer"]):
                self._target = entry["buffer"]
                self._start = entry["offset"]
                entry["offset"] += desc.body_len
            else:
                adapter.note_place_failure()

    def process(self, data: bytes) -> bytes:
        if self.digest is not None:
            self.digest.update(data)
        if self._target is not None:
            self._target[self._start + self._offset : self._start + self._offset + len(data)] = data
        self._offset += len(data)
        return data

    def finalize_tx(self) -> bytes:
        return self.digest.digest() if self.digest is not None else b""

    def verify_rx(self, wire_trailer: bytes) -> bool:
        if self.digest is None:
            return True
        return wire_trailer == self.digest.digest()


class Http2Adapter(L5pAdapter):
    """One instance per flow direction (carries per-packet place bits)."""

    name = "http2"
    frame = FRAME

    def __init__(self, config: Optional[Http2Config] = None):
        self.config = config or Http2Config()
        self.digest_cls = get_digest(self.config.digest_name)
        self._pkt_place_ok = True
        self.place_failures = 0

    def note_place_failure(self) -> None:
        self._pkt_place_ok = False
        self.place_failures += 1

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        del direction, static_state, msg_index
        return _Http2Transform(self, desc, rr_state)

    def apply_packet_meta(self, meta, processed: bool, ok: bool) -> None:
        if self.config.rx_offload_crc:
            meta.crc_ok = processed and ok
        if self.config.rx_offload_copy:
            meta.placed = processed and self._pkt_place_ok
        self._pkt_place_ok = True

    def software_cpb(self, model) -> float:
        return model.cpb_crc32c


PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="http2",
        frame=FRAME,
        confidence=1e-5,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="RX-side FCS verify + stream-keyed DATA placement; control "
            "frames pass through untransformed",
        ),
        factory=Http2Adapter,
        description="HTTP/2 DATA-frame CRC (FCS extension) and per-stream placement",
    )
)
