"""RPC framing and the RPC autonomous-offload adapter.

Frame format ("SRPC"):

    magic("RC") | type(1: 1=request, 2=response) | rpc_id(4) |
    method_id(2) | payload_len(4)                                [13 B]
    payload (TLV-serialized)
    CRC32C over the payload (4 B)

Offloaded operations (receive side, both ends could use it; the client
is the interesting one): CRC verification and response-payload
placement into the buffer registered under ``rpc_id`` — the same
request/response pattern as NVMe-TCP's CID map (§4.1's
``l5o_add_rr_state``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import Direction, L5pAdapter, MessageDesc, MsgTransform
from repro.crypto.crc import get_digest
from repro.l5p import plugin
from repro.l5p.frame import FrameSpec

TRAILER_LEN = 4
MAX_PAYLOAD = 1 << 22

TYPE_REQUEST = 1
TYPE_RESPONSE = 2

FRAME = FrameSpec(
    ">2sBIHI",
    "magic type rpc_id method_id payload_len",
    length="payload_len",
    max_len=MAX_PAYLOAD,
    trailer=TRAILER_LEN,
    const={"magic": b"RC"},
    one_of={"type": (TYPE_REQUEST, TYPE_RESPONSE)},
)
HEADER_LEN = FRAME.header_len


@dataclass
class RpcConfig:
    digest_name: str = "crc32c"
    rx_offload_crc: bool = False
    rx_offload_copy: bool = False
    max_response: int = 256 * 1024

    @property
    def rx_offload(self) -> bool:
        return self.rx_offload_crc or self.rx_offload_copy


def make_frame(ftype: int, rpc_id: int, method_id: int, payload: bytes, digest_cls) -> bytes:
    header = FRAME.build(type=ftype, rpc_id=rpc_id, method_id=method_id, payload_len=len(payload))
    return header + payload + digest_cls(payload).digest()


class _RpcTransform(MsgTransform):
    def __init__(self, adapter: "RpcAdapter", desc: MessageDesc, rr_state: dict):
        self.adapter = adapter
        self.digest = adapter.digest_cls()
        self._offset = 0
        self._target = None
        if (
            adapter.config.rx_offload_copy
            and desc.info["type"] == TYPE_RESPONSE
            and rr_state is not None
        ):
            buffer = rr_state.get(desc.info["rpc_id"])
            if buffer is not None and desc.body_len <= len(buffer):
                self._target = buffer
            else:
                adapter.note_place_failure()

    def process(self, data: bytes) -> bytes:
        self.digest.update(data)
        if self._target is not None:
            self._target[self._offset : self._offset + len(data)] = data
        self._offset += len(data)
        return data

    def finalize_tx(self) -> bytes:
        return self.digest.digest()

    def verify_rx(self, wire_trailer: bytes) -> bool:
        return wire_trailer == self.digest.digest()


class RpcAdapter(L5pAdapter):
    """One instance per flow direction."""

    name = "rpc"
    frame = FRAME

    def __init__(self, config: RpcConfig):
        self.config = config
        self.digest_cls = get_digest(config.digest_name)
        self._pkt_place_ok = True
        self.place_failures = 0

    def note_place_failure(self) -> None:
        self._pkt_place_ok = False
        self.place_failures += 1

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        del static_state, msg_index
        return _RpcTransform(self, desc, rr_state)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        if self.config.rx_offload_crc:
            meta.crc_ok = processed and ok
        if self.config.rx_offload_copy:
            meta.placed = processed and self._pkt_place_ok
        self._pkt_place_ok = True


PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="rpc",
        frame=FRAME,
        confidence=1e-6,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="RX-side CRC verify + rpc_id-keyed response placement (§7)",
        ),
        factory=lambda config=None, **kw: RpcAdapter(config or RpcConfig(), **kw),
        description="SRPC response CRC + copy offload keyed by rpc_id",
    )
)
