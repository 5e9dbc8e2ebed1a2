"""TLS record layer and the TLS autonomous-offload adapter (§5.2).

Records are ``type(1) | version(2) | length(2) | ciphertext | tag(16)``,
at most 16 KiB of plaintext per record.  The adapter's magic pattern is
the paper's: record type (six valid values), the post-handshake version
constant, and a sane length field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.core.types import Direction, L5pAdapter, MessageDesc, MsgTransform
from repro.crypto.gcm import AuthenticationError
from repro.crypto.suite import CipherSuite

HEADER_LEN = 5
TAG_LEN = 16
MAX_PLAINTEXT = 16 * 1024
VERSION = 0x0303  # TLS 1.2 wire version, as TLS 1.3 records use

CONTENT_CCS = 20
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPDATA = 23
VALID_TYPES = (CONTENT_CCS, CONTENT_ALERT, CONTENT_HANDSHAKE, CONTENT_APPDATA)


def make_header(content_type: int, payload_len: int) -> bytes:
    """Record header; ``payload_len`` covers ciphertext + tag."""
    return struct.pack(">BHH", content_type, VERSION, payload_len)


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
    header_len = HEADER_LEN
    magic_len = HEADER_LEN  # type + version + length: the §5.2 pattern

    def parse_header(self, header: bytes, static_state) -> Optional[MessageDesc]:
        content_type, version, length = struct.unpack(">BHH", header)
        if content_type not in VALID_TYPES:
            return None
        if version != VERSION:
            return None
        if not TAG_LEN <= length <= MAX_PLAINTEXT + TAG_LEN:
            return None
        return MessageDesc(
            kind=str(content_type),
            header_len=HEADER_LEN,
            body_len=length - TAG_LEN,
            trailer_len=TAG_LEN,
            raw_header=header,
        )

    def check_magic(self, window: bytes, static_state) -> bool:
        return self.parse_header(window, static_state) is not None

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        if direction == Direction.TX:
            return _TlsTxTransform(static_state, desc, msg_index)
        return _TlsRxTransform(static_state, desc, msg_index)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        # One bit, set iff all ICVs within the packet passed (§5.2).
        meta.decrypted = processed and ok


from repro.l5p import plugin as _plugin

#: TLS record magic: content type 20..23 (0b000101xx), version 0x0303,
#: length unconstrained by the mask (check_magic adds the range check).
PLUGIN = _plugin.register(
    _plugin.L5Protocol(
        name="tls",
        header_len=HEADER_LEN,
        magic=_plugin.MagicSpec(
            pattern=b"\x14\x03\x03\x00\x00",
            mask=b"\xfc\xff\xff\x00\x00",
            confidence=1e-4,
        ),
        preconditions=_plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            header_plaintext_length=True,
            magic_identifiable=True,
            state_from_msg_index=True,
            notes="AES-GCM record crypto; per-record nonce from msg_index (§5.2)",
        ),
        factory=TlsAdapter,
        description="Kernel TLS 1.3-style record encryption/decryption offload",
        info={"trailer_len": TAG_LEN, "ops": ("encrypt", "decrypt")},
    )
)
