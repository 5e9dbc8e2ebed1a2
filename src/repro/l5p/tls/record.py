"""TLS record layer and the TLS autonomous-offload adapter (§5.2).

Records are ``type(1) | version(2) | length(2) | ciphertext | tag(16)``,
at most 16 KiB of plaintext per record.  The magic pattern is the
paper's: record type (four valid values), the post-handshake version
constant, and a sane length field.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import Direction, L5pAdapter, MessageDesc, MsgTransform
from repro.crypto.gcm import AuthenticationError
from repro.crypto.suite import CipherSuite
from repro.l5p import plugin
from repro.l5p.frame import FrameSpec

TAG_LEN = 16
MAX_PLAINTEXT = 16 * 1024
VERSION = 0x0303  # TLS 1.2 wire version, as TLS 1.3 records use

CONTENT_CCS = 20
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPDATA = 23
VALID_TYPES = (CONTENT_CCS, CONTENT_ALERT, CONTENT_HANDSHAKE, CONTENT_APPDATA)

#: ``length`` covers ciphertext + tag.
FRAME = FrameSpec(
    ">BHH",
    "type version length",
    length="length",
    counts="body+trailer",
    max_len=MAX_PLAINTEXT + TAG_LEN,
    trailer=TAG_LEN,
    const={"version": VERSION},
    one_of={"type": VALID_TYPES},
)
HEADER_LEN = FRAME.header_len


def make_header(content_type: int, payload_len: int) -> bytes:
    """Record header; ``payload_len`` covers ciphertext + tag."""
    return FRAME.build(type=content_type, length=payload_len)


def record_nonce(iv: bytes, record_seq: int) -> bytes:
    """TLS 1.3 per-record nonce: the static IV XORed with the record
    sequence number — exactly the "dynamic state is a function of the
    number of previous messages" property the offload requires."""
    seq_bytes = record_seq.to_bytes(12, "big")
    return bytes(a ^ b for a, b in zip(iv, seq_bytes))


@dataclass
class TlsDirectionState:
    """Static HW-context state for one direction (Table: cipher keys)."""

    suite: CipherSuite
    key: bytes
    iv: bytes


class _TlsTxTransform(MsgTransform):
    def __init__(self, state: TlsDirectionState, desc: MessageDesc, msg_index: int):
        nonce = record_nonce(state.iv, msg_index)
        self._enc = state.suite.encryptor(state.key, nonce, aad=desc.raw_header)

    def process(self, data: bytes) -> bytes:
        return self._enc.update(data)

    def finalize_tx(self) -> bytes:
        return self._enc.finalize()


class _TlsRxTransform(MsgTransform):
    def __init__(self, state: TlsDirectionState, desc: MessageDesc, msg_index: int):
        nonce = record_nonce(state.iv, msg_index)
        self._dec = state.suite.decryptor(state.key, nonce, aad=desc.raw_header)

    def process(self, data: bytes) -> bytes:
        return self._dec.update(data)

    def verify_rx(self, wire_trailer: bytes) -> bool:
        try:
            self._dec.finalize(wire_trailer)
            return True
        except AuthenticationError:
            return False


class TlsAdapter(L5pAdapter):
    """What the NIC knows about TLS (cast into ConnectX-6 Dx silicon)."""

    name = "tls"
    frame = FRAME

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        if direction == Direction.TX:
            return _TlsTxTransform(static_state, desc, msg_index)
        return _TlsRxTransform(static_state, desc, msg_index)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        # One bit, set iff all ICVs within the packet passed (§5.2).
        meta.decrypted = processed and ok


PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="tls",
        frame=FRAME,
        confidence=1e-4,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="AES-GCM record crypto; per-record nonce from msg_index (§5.2)",
        ),
        factory=TlsAdapter,
        description="Kernel TLS 1.3-style record encryption/decryption offload",
    )
)
