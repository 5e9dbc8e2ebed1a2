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

from repro.core.types import Direction, L5pAdapter, MessageDesc, MsgTransform

HEADER_LEN = 11
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


def make_frame(payload: bytes) -> bytes:
    if len(payload) > MAX_INLINE:
        raise ValueError("RESP payload too large")
    return b"$%08x\r\n" % len(payload) + payload + b"\r\n"


def parse_header(header: bytes) -> Optional[int]:
    """Payload length, or None if the envelope is implausible."""
    if header[0:1] != b"$" or header[9:11] != b"\r\n":
        return None
    digits = header[1:9]
    if any(d not in _HEX for d in digits):
        return None
    length = int(bytes(digits), 16)
    if length > MAX_INLINE:
        return None
    return length


def total_len(header: bytes) -> int:
    """Full on-wire envelope length; :class:`ValueError` for a bad header."""
    length = parse_header(header)
    if length is None:
        raise ValueError("bad RESP envelope")
    return HEADER_LEN + length + TRAILER_LEN


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
    header_len = HEADER_LEN
    magic_len = HEADER_LEN

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

    def parse_header(self, header: bytes, static_state) -> Optional[MessageDesc]:
        length = parse_header(header)
        if length is None:
            return None
        return MessageDesc(
            kind="bulk",
            header_len=HEADER_LEN,
            body_len=length,
            trailer_len=TRAILER_LEN,
            raw_header=header,
        )

    def check_magic(self, window: bytes, static_state) -> bool:
        return len(window) >= HEADER_LEN and parse_header(window) is not None

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


from repro.l5p import plugin as _plugin

PLUGIN = _plugin.register(
    _plugin.L5Protocol(
        name="resp",
        header_len=HEADER_LEN,
        magic=_plugin.MagicSpec(
            pattern=b"$" + b"\x00" * 8 + b"\r\n",
            mask=b"\xff" + b"\x00" * 8 + b"\xff\xff",
            confidence=1e-6,
        ),
        preconditions=_plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            header_plaintext_length=True,
            magic_identifiable=True,
            state_from_msg_index=True,
            notes="steering, not transformation: bytes pass through; the "
            "key parse uses a bounded head window",
        ),
        factory=RespAdapter,
        description="RESP inline-command steering to key-sharded receive queues",
        info={"trailer_len": TRAILER_LEN, "ops": ("steer",)},
    )
)
