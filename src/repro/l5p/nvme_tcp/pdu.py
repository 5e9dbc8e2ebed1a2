"""NVMe/TCP PDU formats and the NVMe-TCP autonomous-offload adapter (§5.1).

PDUs follow the NVMe/TCP binding's shape (simplified sizes):

    CH (8B): type | flags | hlen | pdo | plen(4)
    PSH    : per-type submission/completion/data header
    data   : optional payload (in-capsule for writes, C2HData for reads)
    DDGST  : optional CRC32C over the data portion

The offloaded operations are the paper's: data-digest computation and
verification (TX and RX) and direct data placement of C2HData payloads
into pre-registered block-layer buffers keyed by CID (RX zero-copy,
Figure 9).  The magic pattern is the CH's constrained fields: a valid
type, the type's fixed hlen, and a bounded plen.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.core.types import Direction, L5pAdapter, MessageDesc, MsgTransform
from repro.crypto.crc import get_digest
from repro.l5p import plugin
from repro.l5p.frame import FrameSpec
from repro.net.packet import Buffer

DDGST_LEN = 4

TYPE_CAPSULE_CMD = 0x04
TYPE_CAPSULE_RESP = 0x05
TYPE_H2C_DATA = 0x06
TYPE_C2H_DATA = 0x07
TYPE_R2T = 0x09

PSH_LEN = {
    TYPE_CAPSULE_CMD: 64,  # SQE
    TYPE_CAPSULE_RESP: 16,  # CQE
    TYPE_H2C_DATA: 16,
    TYPE_C2H_DATA: 16,
    TYPE_R2T: 16,
}

FLAG_DDGST = 0x01

MAX_PLEN = 1 << 22  # 4 MiB bound used by the magic check


def _psh_fits(ch) -> bool:
    """``hlen`` is the type's fixed value and ``plen`` leaves room for
    the PSH (and the DDGST the flags announce)."""
    digest = DDGST_LEN if ch.flags & FLAG_DDGST else 0
    return ch.hlen == CH_LEN + PSH_LEN[ch.type] and ch.plen >= ch.hlen + digest


#: The common header; ``plen`` counts the whole PDU.
CH = FrameSpec(
    ">BBBBI",
    "type flags hlen pdo plen",
    length="plen",
    counts="message",
    max_len=MAX_PLEN,
    trailer=("flags", FLAG_DDGST, DDGST_LEN),
    one_of={"type": tuple(PSH_LEN)},
    check=_psh_fits,
)
CH_LEN = CH.header_len

OPC_READ = 0x02
OPC_WRITE = 0x01


@dataclass
class NvmeConfig:
    """NVMe-TCP datapath configuration for one queue pair."""

    digest_name: str = "crc32c"  # "crc32c" (real) or "fast" (bench mode)
    data_digest: bool = True
    tx_offload: bool = False  # NIC fills outgoing DDGSTs
    rx_offload_crc: bool = False  # NIC verifies incoming DDGSTs
    rx_offload_copy: bool = False  # NIC places C2HData payloads (zero-copy)
    queue_depth: int = 64
    inline_write_limit: int = 8192  # larger writes go via R2T + H2CData

    @property
    def rx_offload(self) -> bool:
        return self.rx_offload_crc or self.rx_offload_copy


def make_ch(pdu_type: int, plen: int, ddgst: bool) -> bytes:
    hlen = CH_LEN + PSH_LEN[pdu_type]
    return CH.build(type=pdu_type, flags=FLAG_DDGST if ddgst else 0, hlen=hlen, pdo=hlen, plen=plen)


def make_sqe(opcode: int, cid: int, slba: int, length: int) -> bytes:
    return struct.pack(">BxHxxxxQI", opcode, cid, slba, length).ljust(PSH_LEN[TYPE_CAPSULE_CMD], b"\x00")


def parse_sqe(psh: bytes) -> tuple[int, int, int, int]:
    opcode, cid, slba, length = struct.unpack(">BxHxxxxQI", psh[:20])
    return opcode, cid, slba, length


def make_cqe(cid: int, status: int) -> bytes:
    return struct.pack(">HH", cid, status).ljust(PSH_LEN[TYPE_CAPSULE_RESP], b"\x00")


def parse_cqe(psh: bytes) -> tuple[int, int]:
    cid, status = struct.unpack(">HH", psh[:4])
    return cid, status


def make_data_psh(cid: int, data_offset: int, data_len: int) -> bytes:
    return struct.pack(">HxxII", cid, data_offset, data_len).ljust(PSH_LEN[TYPE_C2H_DATA], b"\x00")


def parse_data_psh(psh: bytes) -> tuple[int, int, int]:
    cid, data_offset, data_len = struct.unpack(">HxxII", psh[:12])
    return cid, data_offset, data_len


def make_r2t_psh(cid: int, offset: int, length: int) -> bytes:
    """Ready-to-Transfer: the target solicits ``length`` write bytes."""
    return struct.pack(">HxxII", cid, offset, length).ljust(PSH_LEN[TYPE_R2T], b"\x00")


def parse_r2t_psh(psh: bytes) -> tuple[int, int, int]:
    cid, offset, length = struct.unpack(">HxxII", psh[:12])
    return cid, offset, length


def build_pdu(
    pdu_type: int, psh: bytes, data: Buffer, digest_cls, ddgst: bool, dummy_digest: bool = False
) -> tuple[Buffer, ...]:
    """Assemble a full PDU as the gather list ``(ch + psh, data, ddgst)``
    — ``data`` is the caller's object, not a copy; absent pieces are left
    out.  ``dummy_digest`` leaves the DDGST zeroed for the NIC to fill
    (the offloaded TX path)."""
    if len(psh) != PSH_LEN[pdu_type]:
        raise ValueError(f"PSH length {len(psh)} wrong for type {pdu_type:#x}")
    has_digest = bool(ddgst and data)
    plen = CH_LEN + len(psh) + len(data) + (DDGST_LEN if has_digest else 0)
    head = make_ch(pdu_type, plen, has_digest) + psh
    if not data:
        return (head,)
    if not has_digest:
        return (head, data)
    return (head, data, bytes(DDGST_LEN) if dummy_digest else digest_cls(data).digest())


class _NvmeTransform(MsgTransform):
    """Per-PDU digest + placement engine."""

    def __init__(self, adapter: "NvmeAdapter", desc: MessageDesc, rr_state: Optional[dict]):
        self.adapter = adapter
        self.desc = desc
        self.rr_state = rr_state if rr_state is not None else {}
        self.digest = adapter.digest_cls()
        self._psh_need = PSH_LEN[desc.info["type"]]
        self._psh = bytearray()
        self._data_pos = 0
        self._target = None  # (buffer, base_offset) once PSH parsed

    def _resolve_placement(self) -> None:
        if not self.adapter.place or self.desc.info["type"] != TYPE_C2H_DATA:
            return
        cid, data_offset, data_len = parse_data_psh(bytes(self._psh))
        buffer = self.rr_state.get(cid)
        if buffer is None or data_offset + data_len > len(buffer):
            self.adapter.note_place_failure()
            return
        self._target = (buffer, data_offset)

    def process(self, data: bytes) -> bytes:
        i = 0
        if self._psh_need:
            take = min(self._psh_need, len(data))
            self._psh += data[:take]
            self._psh_need -= take
            i = take
            if self._psh_need == 0:
                self._resolve_placement()
        chunk = data[i:]
        if chunk:
            self.digest.update(chunk)
            if self._target is not None:
                buffer, base = self._target
                buffer[base + self._data_pos : base + self._data_pos + len(chunk)] = chunk
            self._data_pos += len(chunk)
        return data  # digests/copies never alter the stream bytes

    def finalize_tx(self) -> bytes:
        return self.digest.digest()

    def verify_rx(self, wire_trailer: bytes) -> bool:
        return wire_trailer == self.digest.digest()


class NvmeAdapter(L5pAdapter):
    """What the NIC knows about NVMe-TCP.  One instance per flow
    direction (it carries per-flow placement status)."""

    name = "nvme-tcp"
    frame = CH

    def __init__(self, config: NvmeConfig, place: bool = False):
        self.config = config
        self.digest_cls = get_digest(config.digest_name)
        self.place = place
        self._place_ok = True
        self.placed_pdus = 0
        self.place_failures = 0

    def note_place_failure(self) -> None:
        self._place_ok = False
        self.place_failures += 1

    def software_cpb(self, model) -> float:
        # Degraded NVMe/TCP sends only recompute the CRC32C data digest.
        return model.cpb_crc32c

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        del direction, static_state, msg_index  # digests are stateless per PDU
        return _NvmeTransform(self, desc, rr_state)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        if self.config.rx_offload_crc:
            meta.crc_ok = processed and ok
        if self.place:
            meta.placed = processed and self._place_ok
        self._place_ok = True


PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="nvme-tcp",
        frame=CH,
        confidence=1e-4,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="CRC32C digests + CID-keyed data placement (§5.1)",
        ),
        factory=lambda config=None, **kw: NvmeAdapter(config or NvmeConfig(), **kw),
        description="NVMe-TCP HDGST/DDGST CRC offload and direct data placement",
    )
)
