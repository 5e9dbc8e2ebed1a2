"""A miniature L5P used to unit-test the autonomous offload engines.

Wire format ("toy" protocol):

    +-------+------+----------+----------------+-----------+
    | 0xA5  | kind | len (2B) | body (len B)   | sum (4B)  |
    +-------+------+----------+----------------+-----------+

The offloaded operation XORs the body with a per-message key byte
(derived from the message index) and fills/verifies the trailing
checksum of the *wire* (transformed) body.  It satisfies every Table 3
precondition, making it the smallest honest exercise of the machinery.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.core.types import Direction, L5pAdapter, MsgTransform, TxMsgState
from repro.l5p import plugin
from repro.l5p.base import StreamEndpoint
from repro.l5p.frame import FrameSpec

MAGIC = 0xA5
KINDS = (1, 2, 3)
TRAILER_LEN = 4

#: The resync scan looks at magic + kind only, so a candidate can
#: straddle a packet edge with the rest of its header still to come.
FRAME = FrameSpec(
    ">BBH",
    "magic kind length",
    length="length",
    trailer=TRAILER_LEN,
    const={"magic": MAGIC},
    one_of={"kind": KINDS},
    magic_len=2,
)
HEADER_LEN = FRAME.header_len


def key_byte(msg_index: int) -> int:
    return (0x5A + msg_index) & 0xFF


def encode_message(body: bytes, msg_index: int) -> bytes:
    """The true on-wire form (what the NIC should produce on TX)."""
    transformed = bytes(b ^ key_byte(msg_index) for b in body)
    header = FRAME.build(kind=1, length=len(body))
    checksum = sum(transformed) & 0xFFFFFFFF
    return header + transformed + struct.pack(">I", checksum)


def plain_message(body: bytes) -> bytes:
    """What the L5P hands to TCP when offloading (dummy trailer)."""
    return FRAME.build(kind=1, length=len(body)) + body + b"\x00" * TRAILER_LEN


class _ToyTransform(MsgTransform):
    def __init__(self, direction: Direction, msg_index: int):
        self.direction = direction
        self.key = key_byte(msg_index)
        self.wire_sum = 0

    def process(self, data: bytes) -> bytes:
        out = bytes(b ^ self.key for b in data)
        wire = out if self.direction == Direction.TX else data
        self.wire_sum = (self.wire_sum + sum(wire)) & 0xFFFFFFFF
        return out

    def finalize_tx(self) -> bytes:
        return struct.pack(">I", self.wire_sum)

    def verify_rx(self, wire_trailer: bytes) -> bool:
        return wire_trailer == struct.pack(">I", self.wire_sum)


class ToyAdapter(L5pAdapter):
    name = "toy"
    frame = FRAME

    def begin_message(self, direction, static_state, desc, msg_index, rr_state=None):
        return _ToyTransform(direction, msg_index)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        meta.decrypted = processed and ok
        meta.crc_ok = ok


class ToyL5pOps:
    """Listing 2 implementation for tests: a seq->message map plus a
    recorder for resync requests."""

    def __init__(self, start_seq: int = 0):
        self.messages: list[tuple[int, int, bytes]] = []  # (start_seq, idx, bytes)
        self.next_seq = start_seq
        self.resync_requests: list[int] = []
        self.degraded: list[tuple[str, str]] = []

    def stage(self, body: bytes) -> bytes:
        """Record a message as handed to TCP; returns its plain bytes."""
        wire = plain_message(body)
        self.messages.append((self.next_seq, len(self.messages), wire))
        self.next_seq += len(wire)
        return wire

    def l5o_get_tx_msgstate(self, tcpsn: int) -> Optional[TxMsgState]:
        for start, idx, wire in self.messages:
            if start <= tcpsn < start + len(wire):
                return TxMsgState(start_seq=start, msg_index=idx, wire_bytes=wire)
        return None

    def l5o_resync_rx_req(self, tcpsn: int) -> None:
        self.resync_requests.append(tcpsn)

    def l5o_offload_degraded(self, direction: str, reason: str) -> None:
        self.degraded.append((direction, reason))

    def l5o_nic_reattach(self, direction: str):
        return None  # a recorder holds no stream to re-install from


class ToyEndpoint(StreamEndpoint):
    """The whole endpoint of a protocol on the shared core: which
    contexts it wants and when, and a per-message handler.  Framing
    comes from the registered FrameSpec; the Listing-2 lifecycle —
    assembly, backpressure, TX log, resync answers, degradation,
    NIC-reset reattach — is inherited."""

    protocol = "toy"

    def __init__(self, host, conn, tx_offload: bool = False, rx_offload: bool = False):
        super().__init__(host)
        self.wants = {Direction.TX: tx_offload, Direction.RX: rx_offload}
        self.received: list[bytes] = []
        self.offloaded = 0  # messages the NIC fully decoded and verified
        self._attach(conn)
        if conn.state == "established":
            self._on_established()

    def _offload(self, direction: Direction):
        return (ToyAdapter(), None) if self.wants[direction] else None

    def _on_established(self) -> None:
        self._install(Direction.TX)
        self._install(Direction.RX)

    def send(self, body: bytes) -> None:
        if self._tx_ctx is not None:
            self._queue(plain_message(body))  # the NIC XORs and fills the checksum
        else:
            self._queue(encode_message(body, self._tx.sent + len(self._outq)))

    def _on_message(self, msg, idx: int) -> None:
        # Runs the NIC decoded arrive plain; software un-XORs the rest.
        key = key_byte(idx)
        runs = msg.slice_runs(HEADER_LEN, msg.length - HEADER_LEN - TRAILER_LEN)
        self.offloaded += all(run.meta.decrypted for run in runs)
        self.received.append(
            b"".join(r.data if r.meta.decrypted else bytes(b ^ key for b in r.data) for r in runs)
        )


def software_decode(wire: bytes, msg_index: int) -> bytes:
    """Receiver-side software fallback: parse + verify + un-XOR."""
    length = FRAME.parse(wire[:HEADER_LEN]).length
    body = wire[HEADER_LEN : HEADER_LEN + length]
    trailer = wire[HEADER_LEN + length : HEADER_LEN + length + TRAILER_LEN]
    assert struct.unpack(">I", trailer)[0] == sum(body) & 0xFFFFFFFF
    return bytes(b ^ key_byte(msg_index) for b in body)


#: Registered like any real protocol so driver-level tests pass the
#: l5o_create registry gate — and so the registry tests have a plugin
#: whose declaration they fully control.
PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="toy",
        frame=FRAME,
        confidence=1e-4,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="XOR body keyed by msg_index; checksum trailer",
        ),
        factory=ToyAdapter,
        description="Unit-test miniature L5P",
    )
)
