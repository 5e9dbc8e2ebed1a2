"""NVMe-TCP target (controller side) backed by a simulated block device.

The evaluation's target is the workload-generator machine exposing an
Optane drive; it runs software NVMe-TCP (optionally with its own TX
offloads so that the generator is never the bottleneck when the paper's
numbers are drive- or NIC-bound)."""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.types import Direction
from repro.l5p.base import StreamEndpoint
from repro.l5p.nvme_tcp import pdu as P
from repro.l5p import plugin
from repro.l5p.nvme_tcp.pdu import NvmeConfig
from repro.net.packet import Wire
from repro.storage.blockdev import BlockDevice

MAX_C2H_DATA = 1 << 20  # split read payloads into PDUs of at most 1 MiB
MAX_TRANSFER = 1 << 27  # largest single command served (MDTS)


class NvmeTcpTarget:
    """Listens for initiators and services NVMe commands."""

    def __init__(
        self,
        host,
        device: BlockDevice,
        config: Optional[NvmeConfig] = None,
        tls=None,
        port: int = 4420,
    ):
        self.host = host
        self.device = device
        self.config = config or NvmeConfig()
        self.tls_config = tls
        self.port = port
        self.connections: list[_TargetConn] = []
        # When set, every connection reports detected failures (framing
        # desync) here instead of raising.
        self.on_error: Optional[Callable[[str], None]] = None

    def start(self) -> None:
        self.host.tcp.listen(self.port, self._accept)

    def _accept(self, conn) -> None:
        self.connections.append(_TargetConn(self, conn))


class _TargetConn(StreamEndpoint):
    """One initiator connection on the target."""

    protocol = "nvme-tcp"

    def __init__(self, target: NvmeTcpTarget, conn):
        super().__init__(target.host)
        self.target = target
        self.config = target.config
        self.digest_cls = P.get_digest(self.config.digest_name)
        self.ktls = None
        self._pending_writes: dict[int, tuple[int, bytearray, int]] = {}  # cid -> (slba, buf, received)
        self.commands_served = 0

        if target.tls_config is not None:
            from repro.l5p.nvme_tls import over_tls

            self.ktls = over_tls(self, conn, "server", target.tls_config)
        else:
            self._attach(conn)
            self.host.sim.call_soon(self._install, Direction.TX)

    @property
    def on_error(self):
        return self.target.on_error

    def _offload(self, direction: Direction):
        """TX only: the target installs no RX contexts."""
        if direction is Direction.TX and self.config.tx_offload:
            return plugin.make_adapter("nvme-tcp", config=self.config), None
        return None

    # ------------------------------------------------------------------
    # receive: commands from the initiator
    # ------------------------------------------------------------------
    def _on_message(self, msg, idx: int) -> None:
        wire = msg.wire
        if wire[0] == P.TYPE_H2C_DATA:
            self._on_h2c_data(wire)
            return
        if wire[0] != P.TYPE_CAPSULE_CMD:
            return
        self.core.charge(self.model.cycles_pdu, "l5p")
        psh = wire[P.CH_LEN : P.CH_LEN + P.PSH_LEN[P.TYPE_CAPSULE_CMD]]
        opcode, cid, slba, length = P.parse_sqe(psh)
        self.core.charge(self.model.cycles_block_io, "stack")
        if length > MAX_TRANSFER or slba + length > self.target.device.capacity_bytes:
            # No digest covers the capsule header: a corrupted address or
            # count fails the command, never the target.
            self._respond(cid, 1)
            return
        if opcode == P.OPC_READ:
            self.target.device.read(slba, length, lambda data: self._read_done(cid, data))
        elif opcode == P.OPC_WRITE:
            data_start = P.CH_LEN + P.PSH_LEN[P.TYPE_CAPSULE_CMD]
            in_capsule = len(wire) > data_start + P.DDGST_LEN or length == 0
            body_len = len(wire) - data_start - (P.DDGST_LEN if wire[1] & P.FLAG_DDGST else 0)
            if body_len < length:
                # No in-capsule data: solicit it (Ready-to-Transfer).
                self._pending_writes[cid] = (slba, bytearray(length), 0)
                r2t = P.build_pdu(
                    P.TYPE_R2T, P.make_r2t_psh(cid, 0, length), b"", self.digest_cls, False
                )
                self._send_pdu(r2t)
                return
            del in_capsule
            data = memoryview(wire)[data_start : data_start + length]
            has_digest = bool(wire[1] & P.FLAG_DDGST) and length > 0
            status = 0
            if has_digest:
                self.core.charge(length * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
                if self.digest_cls(data).digest() != wire[-P.DDGST_LEN :]:
                    status = 1
            if status == 0:
                self.target.device.write(slba, data, lambda: self._write_done(cid))
            else:
                self._respond(cid, status)

    def _on_h2c_data(self, wire: bytes) -> None:
        """Solicited write data arriving after our R2T."""
        self.core.charge(self.model.cycles_pdu, "l5p")
        psh = wire[P.CH_LEN : P.CH_LEN + P.PSH_LEN[P.TYPE_H2C_DATA]]
        cid, offset, length = P.parse_data_psh(psh)
        pending = self._pending_writes.get(cid)
        if pending is None:
            return
        slba, buffer, received = pending
        data_start = P.CH_LEN + P.PSH_LEN[P.TYPE_H2C_DATA]
        data = memoryview(wire)[data_start : data_start + length]
        has_digest = bool(wire[1] & P.FLAG_DDGST) and length > 0
        if has_digest:
            self.core.charge(length * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
            if self.digest_cls(data).digest() != wire[-P.DDGST_LEN :]:
                del self._pending_writes[cid]
                self._respond(cid, 1)
                return
        self.core.charge(length * self.host.llc.copy_cpb(), "copy")
        buffer[offset : offset + length] = data
        received += length
        if received >= len(buffer):
            del self._pending_writes[cid]
            self.target.device.write(slba, bytes(buffer), lambda: self._write_done(cid))
        else:
            self._pending_writes[cid] = (slba, buffer, received)

    def _read_done(self, cid: int, data: bytes) -> None:
        self.commands_served += 1
        offloaded_tx = self._tx_ctx is not None
        offset = 0
        view = memoryview(data)
        while offset < len(data):
            chunk = view[offset : offset + MAX_C2H_DATA]
            pdu = P.build_pdu(
                P.TYPE_C2H_DATA,
                P.make_data_psh(cid, offset, len(chunk)),
                chunk,
                self.digest_cls,
                self.config.data_digest,
                dummy_digest=offloaded_tx,
            )
            # Response assembly touches the data once (sendpage-style).
            self.core.charge(len(chunk) * self.host.llc.copy_cpb(), "copy")
            if not offloaded_tx and self.config.data_digest:
                self.core.charge(len(chunk) * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
            self._send_pdu(pdu)
            offset += len(chunk)
        self._respond(cid, 0)

    def _write_done(self, cid: int) -> None:
        self.commands_served += 1
        self._respond(cid, 0)

    def _respond(self, cid: int, status: int) -> None:
        self._send_pdu(P.build_pdu(P.TYPE_CAPSULE_RESP, P.make_cqe(cid, status), b"", self.digest_cls, False))

    def _send_pdu(self, pdu: Wire) -> None:
        """Queue one PDU for transmission with backpressure."""
        self.core.charge(self.model.cycles_pdu, "l5p")
        self._queue(pdu)
