"""The L5P adapter contract and shared message types.

An L5P is autonomously offloadable iff it satisfies the paper's Table 3
preconditions; this interface is their executable form:

- **size-preserving on transmit** — ``MsgTransform.process`` returns
  exactly as many bytes as it consumes, and trailers are *replaced*
  (same length), never inserted.
- **incrementally computable with constant-size state** — transforms
  accept arbitrary byte ranges in order; all per-message state lives in
  the transform object, all per-flow state in the HW context.
- **plaintext magic pattern + length field** — the adapter's ``frame``
  (a :class:`~repro.l5p.frame.FrameSpec`) states the fixed plaintext
  header once; ``parse_header`` derives the full message length from it
  and ``check_magic`` recognizes candidate headers on the wire for
  receive resynchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class ProtocolError(Exception):
    """An L5P invariant was violated (corrupt stream, bad offload use)."""


class Direction(Enum):
    TX = "tx"
    RX = "rx"


@dataclass
class MessageDesc:
    """One parsed L5P message header.

    ``header_len + body_len + trailer_len`` is the full on-wire size of
    the message; the offload relies on it to locate the next message
    (§3.3 "length field").
    """

    header_len: int
    body_len: int
    trailer_len: int
    raw_header: bytes
    info: dict = field(default_factory=dict)

    @property
    def total_len(self) -> int:
        return self.header_len + self.body_len + self.trailer_len


@dataclass
class TxMsgState:
    """Answer to the ``l5o_get_tx_msgstate`` upcall (Listing 2): enough
    state to recompute the offload for any byte of a transmitted
    message — its start sequence, ordinal, and pre-transform bytes."""

    start_seq: int
    msg_index: int
    wire_bytes: bytes  # the message exactly as the L5P handed it to TCP
    info: dict = field(default_factory=dict)  # protocol extras (e.g. the
    # record's plaintext-stream offset, used by stacked NVMe-TLS recovery)


class MsgTransform:
    """Per-message incremental transform executed by the NIC.

    Body bytes stream through :meth:`process` in order.  On transmit the
    trailer (tag/CRC) is produced by :meth:`finalize_tx` and overwrites
    the dummy trailer the L5P emitted; on receive the wire trailer is
    checked by :meth:`verify_rx`.
    """

    def process(self, data: bytes) -> bytes:
        """Transform (or digest) ``data``; must be size-preserving."""
        raise NotImplementedError

    def track(self, data: bytes) -> None:
        """Advance internal state over ``data`` without transforming it
        (used when the NIC re-locks onto a stream mid-message and must
        stay consistent for the *following* packets)."""
        self.process(data)

    def finalize_tx(self) -> bytes:
        """The true trailer bytes to place on the wire (TX)."""
        raise NotImplementedError

    def verify_rx(self, wire_trailer: bytes) -> bool:
        """Check the received trailer (RX); True when it validates."""
        raise NotImplementedError


class L5pAdapter:
    """Everything the NIC knows about one L5P (cast into silicon)."""

    name: str = "abstract"
    #: The protocol's :class:`~repro.l5p.frame.FrameSpec`: header size,
    #: scan window, header check and TCAM mask all come from it.
    frame: Any = None

    @property
    def header_len(self) -> int:
        """Fixed wire-header size."""
        return self.frame.header_len

    @property
    def magic_len(self) -> int:
        """Prefix of the header used for speculative search."""
        return self.frame.magic_len

    def parse_header(self, header: bytes, static_state: Any) -> Optional[MessageDesc]:
        """Parse a full header; None if it cannot be a valid message.
        ``info`` carries the header's named fields."""
        frame = self.frame
        fields = frame.parse(header)
        if fields is None:
            return None
        body_len, trailer_len = frame.spans(fields)
        return MessageDesc(frame.header_len, body_len, trailer_len, header, fields._asdict())

    def check_magic(self, window: bytes, static_state: Any) -> bool:
        """Plausibility test of ``magic_len`` bytes at a candidate header
        position (the §3.3 "magic pattern"): the TCAM mask, then — when
        the window holds the whole header — the full check."""
        frame = self.frame
        return frame.matches(window) and (len(window) < frame.header_len or frame.parse(window) is not None)

    def begin_message(
        self,
        direction: Direction,
        static_state: Any,
        desc: MessageDesc,
        msg_index: int,
        rr_state: Optional[dict] = None,
    ) -> MsgTransform:
        """Create the per-message transform.  ``msg_index`` is the count
        of previous messages on the flow — the only dynamic state a
        transform may depend on at a message boundary (§3.2)."""
        raise NotImplementedError

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds: list) -> None:
        """Set the driver-visible per-packet result bits (SkbMeta)."""
        raise NotImplementedError

    def on_disruption(self, ctx) -> None:
        """The receive engine left the happy path (hole, boundary resync,
        or speculative search).  Stacked adapters use this to invalidate
        inner-protocol state that cannot survive a byte gap."""

    def prepare_tx_recovery(self, ctx, state: "TxMsgState") -> None:
        """Called during TX context recovery after the context has been
        repositioned at ``state``'s message start and before the replay.
        Stacked adapters reposition their inner protocol here (§5.3:
        recovery is performed independently for each protocol)."""

    def software_cpb(self, model) -> float:
        """Cycles/byte the host pays to run this L5P's data-intensive
        operation in software (used to cost degraded sends when the
        offload gives up).  Crypto-grade by default; cheaper protocols
        (e.g. CRC-only NVMe/TCP) override."""
        return model.cpb_aes_gcm
