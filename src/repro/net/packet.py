"""Packets and per-packet metadata.

A :class:`Packet` stands for one Ethernet frame carrying a TCP segment.
Headers are modelled as fields (not serialized bytes) — the simulation
never needs malformed layer-4 headers, only malformed *payload
placement* (loss/reorder), which is represented faithfully.

``SkbMeta`` is the sidecar the paper threads from the NIC driver up the
stack: the "offloaded / decrypted / crc_ok" bits that the L5P reads to
decide whether to fall back to software processing (§4.3, §5.1, §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence, Union

#: Payload bytes on their way through the stack: immutable ``bytes`` or a
#: read-only ``memoryview`` of them.  Layers slice and forward these and
#: never copy; only a producer (application write, NIC transform,
#: software crypto) or an L5P cutting a message for its consumer makes
#: new ``bytes``.
Buffer = Union[bytes, memoryview]

#: What is written to a connection in one call: a single buffer, or the
#: gather list (``list`` or ``tuple``) of pieces — header, payload view,
#: trailer — a frame is made of.  The send buffer and the L5P's TX log
#: keep the pieces; nobody concatenates them.
Wire = Union[Buffer, Sequence[Buffer]]


def gather(wire: Wire) -> Sequence[Buffer]:
    """The pieces of ``wire``: a single buffer is a gather list of one."""
    return wire if isinstance(wire, (list, tuple)) else (wire,)


MTU = 1500
MSS = 1448  # MTU - IP/TCP headers with timestamps, as in the paper's setup
WIRE_OVERHEAD = 90  # eth + ip + tcp + options + preamble/FCS/IFG per frame


class FlowKey(NamedTuple):
    """TCP/IP 4-tuple identifying one direction of a flow."""

    src: str
    sport: int
    dst: str
    dport: int

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.dport, self.src, self.sport)


@dataclass
class SkbMeta:
    """Per-packet offload results passed from driver to L5P.

    ``offloaded``  - the NIC performed the autonomous offload on this
                     packet's bytes (decrypt for TLS, CRC/copy for NVMe).
    ``decrypted``  - TLS: payload bytes are already plaintext.
    ``crc_ok``     - NVMe-TCP: all capsule CRCs within the packet passed.
    ``placed``     - NVMe-TCP: payload was DMA-written to its block-layer
                     destination buffer (the copy may be skipped).
    ``steer_queue`` - RESP: receive queue the NIC dispatched this packet
                     to, keyed by the first inline command's key hash
                     (None when the packet was not steered).
    """

    offloaded: bool = False
    decrypted: bool = False
    crc_ok: bool = False
    placed: bool = False
    steer_queue: Optional[int] = None

    def copy(self) -> "SkbMeta":
        return replace(self)


@dataclass
class Packet:
    """One TCP/IP packet in flight."""

    flow: FlowKey
    seq: int = 0
    ack: int = 0
    payload: Buffer = b""
    syn: bool = False
    fin: bool = False
    ack_flag: bool = True
    rst: bool = False
    wnd: int = 1 << 30
    sack: tuple = ()  # SACK blocks: ((start, end), ...) above the ack
    # Driver/NIC sidecar (not on the wire):
    meta: SkbMeta = field(default_factory=SkbMeta)
    tx_ctx_id: Optional[int] = None  # offload context tag from the L5P

    def clone(self) -> "Packet":
        """An independent copy, as a duplicated wire frame would be."""
        return Packet(
            self.flow,
            seq=self.seq,
            ack=self.ack,
            payload=self.payload,
            syn=self.syn,
            fin=self.fin,
            ack_flag=self.ack_flag,
            rst=self.rst,
            wnd=self.wnd,
            sack=self.sack,
            meta=self.meta.copy(),
            tx_ctx_id=self.tx_ctx_id,
        )

    @property
    def wire_bytes(self) -> int:
        """Frame size on the wire, for link bandwidth accounting."""
        return len(self.payload) + WIRE_OVERHEAD

    @property
    def end_seq(self) -> int:
        """Sequence number just past this packet's payload (+SYN/FIN)."""
        length = len(self.payload)
        if self.syn:
            length += 1
        if self.fin:
            length += 1
        return sq.add(self.seq, length)

    def describe(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            name for name, on in (("S", self.syn), ("F", self.fin), ("R", self.rst), (".", self.ack_flag)) if on
        )
        endpoints = f"{self.flow.src}:{self.flow.sport}>{self.flow.dst}:{self.flow.dport}"
        return f"{endpoints} {flags} seq={self.seq} ack={self.ack} len={len(self.payload)}"


# Imported last: repro.tcp.buffer imports SkbMeta from this module, so
# pulling in the sequence-space helpers any earlier would be circular.
from repro.tcp import seq as sq  # noqa: E402
