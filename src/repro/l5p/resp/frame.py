"""Fixed-width RESP bulk framing and the inline-steering adapter.

Real RESP headers (``*N\\r\\n$len\\r\\n``) are variable-width, which
violates Table 3's fixed-plaintext-header precondition; this dialect
keeps RESP's shape but fixes the envelope::

    '$' | len (8 lowercase-hex ASCII digits) | CRLF      [11 B header]
    payload (inline command "GET key" / "SET key value", or the reply)
    CRLF                                                 [2 B trailer]

The offloaded operation is *steering*, not transformation: the NIC
parses the command key out of the first bytes of the payload (a
constant-size head window — Table 3's incremental rule) and dispatches
the packet to the receive queue ``crc32(key) % queues``, so all
pipelined commands for one key shard land on the owning core without
software parsing.  Bytes pass through unchanged; the trailer check
doubles as framing verification.

Pipelined inline commands make many short, non-uniformly sized
messages share single packets — the resync-speculation stress profile
named in ROADMAP (uniform TLS records never split mid-header at these
rates).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.core.types import Direction, L5pAdapter, MsgTransform
from repro.l5p import plugin
from repro.l5p.frame import FrameSpec

TRAILER_LEN = 2
MAX_INLINE = 1 << 20
#: Bytes of payload head the NIC parses for the steering key (§3.2's
#: constant-size state: the window never grows with the message).
KEY_WINDOW = 48

_HEX = frozenset(b"0123456789abcdef")


@dataclass
class RespConfig:
    steer_queues: int = 4
    rx_offload_steer: bool = False
    max_inline: int = MAX_INLINE


def _hex_length(digits: bytes) -> Optional[int]:
    return int(digits, 16) if _HEX.issuperset(digits) else None


FRAME = FrameSpec(
    ">1s8s2s",
    "sigil length crlf",
    length="length",
    decode=_hex_length,
    encode=lambda length: b"%08x" % length,
    max_len=MAX_INLINE,
    trailer=TRAILER_LEN,
    const={"sigil": b"$", "crlf": b"\r\n"},
)
HEADER_LEN = FRAME.header_len


def make_frame(payload: bytes) -> bytes:
    return FRAME.build(length=len(payload)) + payload + b"\r\n"


def steer_key(payload_head: bytes) -> bytes:
    """The key token of an inline command head (bounded parse).

    ``GET user:17`` steers by ``user:17``; single-token payloads (and
    replies like ``+OK``) steer by their first token.
    """
    tokens = payload_head[:KEY_WINDOW].split(b" ")
    return tokens[1] if len(tokens) >= 2 and tokens[1] else tokens[0]


def steer_queue(payload_head: bytes, queues: int) -> int:
    return zlib.crc32(steer_key(payload_head)) % queues


class _RespTransform(MsgTransform):
    """Identity transform with a bounded head capture for steering."""

    def __init__(self, adapter: "RespAdapter", body_len: int):
        self.adapter = adapter
        self.body_len = body_len
        self._head = b""
        self._seen = 0
        self._steered = False

    def _maybe_steer(self) -> None:
        if self._steered:
            return
        if self._seen >= min(self.body_len, KEY_WINDOW):
            self._steered = True
            self.adapter.note_steer(
                steer_queue(self._head, self.adapter.config.steer_queues)
            )

    def process(self, data: bytes) -> bytes:
        if len(self._head) < KEY_WINDOW:
            self._head += data[: KEY_WINDOW - len(self._head)]
        self._seen += len(data)
        self._maybe_steer()
        return data

    def finalize_tx(self) -> bytes:
        return b"\r\n"

    def verify_rx(self, wire_trailer: bytes) -> bool:
        self._maybe_steer()
        return wire_trailer == b"\r\n"


class RespAdapter(L5pAdapter):
    """One instance per flow direction (latches the per-packet steer)."""

    name = "resp"
    frame = FRAME

    def __init__(self, config: Optional[RespConfig] = None):
        self.config = config or RespConfig()
        self._pkt_steer: Optional[int] = None
        self.steered_messages = 0

    def note_steer(self, queue: int) -> None:
        """First completed steering decision wins: the NIC dispatches
        whole packets, so pipelined followers ride the leader's queue."""
        self.steered_messages += 1
        if self._pkt_steer is None:
            self._pkt_steer = queue

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        del direction, static_state, msg_index, rr_state
        return _RespTransform(self, desc.body_len)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        meta.crc_ok = processed and ok  # framing (CRLF trailer) verified
        if self.config.rx_offload_steer and processed:
            meta.steer_queue = self._pkt_steer
        self._pkt_steer = None

    def software_cpb(self, model) -> float:
        return model.cpb_deserialize


PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="resp",
        frame=FRAME,
        confidence=1e-6,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="steering, not transformation: bytes pass through; the "
            "key parse uses a bounded head window",
        ),
        factory=RespAdapter,
        description="RESP inline-command steering to key-sharded receive queues",
    )
)
