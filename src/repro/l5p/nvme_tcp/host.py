"""NVMe-TCP initiator (the paper's "host" / client side, §5.1).

Reads allocate a block-layer buffer, register it under the command's CID
with the NIC (``l5o_add_rr_state``) so C2HData payloads can be placed
directly (Figure 9), and fall back to software memcpy + CRC for PDUs the
NIC did not fully handle.  Writes carry in-capsule data whose data
digest is either computed in software or left dummy for the NIC to fill.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.types import Direction
from repro.l5p.base import StreamEndpoint
from repro.l5p.nvme_tcp import pdu as P
from repro.l5p import plugin
from repro.l5p.nvme_tcp.pdu import NvmeConfig
from repro.net.packet import Wire


@dataclass
class _Request:
    cid: int
    opcode: int
    slba: int
    length: int
    buffer: bytearray
    on_complete: Callable
    issued_at: float
    data_failures: int = 0
    write_data: bytes = b""  # retained for R2T-solicited transfers


@dataclass
class NvmeHostStats:
    reads: int = 0
    writes: int = 0
    pdus_rx: int = 0
    pdus_placed: int = 0  # C2HData fully placed + CRC-verified by the NIC
    pdus_software: int = 0
    digest_failures: int = 0
    io_failures: int = 0  # detected I/O or framing failures (on_error set)
    offload_degraded: int = 0  # driver gave up on this flow's offload
    bytes_read: int = 0
    bytes_written: int = 0
    latencies: list = field(default_factory=list)


class NvmeTcpHost(StreamEndpoint):
    """One NVMe-TCP queue pair mapped to one TCP socket."""

    protocol = "nvme-tcp"

    def __init__(self, host, config: Optional[NvmeConfig] = None, tls=None):
        super().__init__(host)
        self.config = config or NvmeConfig()
        self.tls_config = tls
        self.digest_cls = P.get_digest(self.config.digest_name)
        self.ktls = None
        self.ready = False
        self.on_ready: Optional[Callable[[], None]] = None
        # When set, detected failures (bad status, digest mismatch,
        # framing desync) are reported here instead of raising — fault
        # injection runs keep going and count them.
        self.on_error: Optional[Callable[[str], None]] = None

        self._free_cids: deque[int] = deque(range(self.config.queue_depth))
        self._inflight: dict[int, _Request] = {}
        self._waiting: deque[tuple] = deque()
        self.stats = NvmeHostStats()

    # ------------------------------------------------------------------
    # connection setup
    # ------------------------------------------------------------------
    def connect(self, target: str, port: int = 4420, on_ready: Optional[Callable] = None) -> None:
        self.on_ready = on_ready
        conn = self.host.tcp.connect(target, port)
        if self.tls_config is not None:
            from repro.l5p.nvme_tls import over_tls

            # The stacked kTLS socket owns the HW contexts; placement
            # state is registered on its RX context as it appears.
            self.ktls = over_tls(self, conn, "client", self.tls_config)
            self.ktls.on_ready = self._go_ready
        else:
            self._attach(conn)

    def _on_established(self) -> None:
        self._go_ready()

    def _go_ready(self) -> None:
        self._install(Direction.RX)
        self._install(Direction.TX)
        self.ready = True
        if self.on_ready:
            self.on_ready()
        self._drain_waiting()

    def _offload(self, direction: Direction):
        if direction is Direction.RX:
            if not self.config.rx_offload:
                return None
            return plugin.make_adapter("nvme-tcp", config=self.config, place=self.config.rx_offload_copy), None
        if not self.config.tx_offload:
            return None
        return plugin.make_adapter("nvme-tcp", config=self.config), None

    def _installed(self, direction: Direction) -> None:
        """In-flight READ buffers go back on a fresh RX context so
        C2HData placement resumes (Figure 9)."""
        if direction is Direction.RX and self._rx_ctx is not None and self.config.rx_offload_copy:
            driver = self.host.nic.driver
            for cid, req in self._inflight.items():
                if req.opcode == P.OPC_READ:
                    driver.l5o_add_rr_state(self._rx_ctx, cid, req.buffer)

    # ------------------------------------------------------------------
    # block I/O API
    # ------------------------------------------------------------------
    def read(self, slba: int, length: int, on_complete: Callable[[bytes, float], None]) -> None:
        """Read ``length`` bytes at byte address ``slba``; completion gets
        ``(data, latency_seconds)``."""
        self._submit(P.OPC_READ, slba, length, b"", on_complete)

    def write(self, slba: int, data: bytes, on_complete: Callable[[float], None]) -> None:
        self._submit(P.OPC_WRITE, slba, len(data), data, on_complete)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def _submit(self, opcode, slba, length, data, on_complete) -> None:
        self._waiting.append((opcode, slba, length, data, on_complete))
        self._drain_waiting()

    def _drain_waiting(self) -> None:
        if not self.ready:
            return
        transport = self.lower if self.lower is not None else self.conn
        while self._waiting and self._free_cids and not self._outq:
            opcode, slba, length, data, on_complete = self._waiting[0]
            wire_len = P.CH_LEN + P.PSH_LEN[P.TYPE_CAPSULE_CMD] + len(data) + P.DDGST_LEN
            if transport.send_space < wire_len:
                break
            self._waiting.popleft()
            self._issue(opcode, slba, length, data, on_complete)

    def _issue(self, opcode, slba, length, data, on_complete) -> None:
        cid = self._free_cids.popleft()
        req = _Request(cid, opcode, slba, length, bytearray(length), on_complete, self.host.sim.now)
        self._inflight[cid] = req
        self.host.llc.occupy(length)
        self.core.charge(self.model.cycles_block_io, "stack")

        if opcode == P.OPC_READ:
            self.stats.reads += 1
            if self._rx_ctx is not None and self.config.rx_offload_copy:
                self.host.nic.driver.l5o_add_rr_state(self._rx_ctx, cid, req.buffer)
            wire = P.build_pdu(P.TYPE_CAPSULE_CMD, P.make_sqe(opcode, cid, slba, length), b"", self.digest_cls, False)
            # Logged by the core even though a READ capsule needs no
            # transform: TX recovery must find message state covering
            # *any* un-acked sequence (retransmits, post-reset reattach).
            self._send_wire(wire)
        else:
            self.stats.writes += 1
            self.stats.bytes_written += length
            offloaded_tx = self._tx_ctx is not None
            if length > self.config.inline_write_limit:
                # Spec-shaped large write: command first, data follows
                # in H2CData PDUs once the target sends R2T.
                req.write_data = bytes(data)
                wire = P.build_pdu(
                    P.TYPE_CAPSULE_CMD, P.make_sqe(opcode, cid, slba, length), b"", self.digest_cls, False
                )
                self._send_wire(wire)
                return
            wire = P.build_pdu(
                P.TYPE_CAPSULE_CMD,
                P.make_sqe(opcode, cid, slba, length),
                bytes(data),
                self.digest_cls,
                self.config.data_digest,
                dummy_digest=offloaded_tx,
            )
            # The user-to-kernel copy happens either way.
            self.core.charge(length * self.host.llc.copy_cpb(), "copy")
            if not offloaded_tx and self.config.data_digest:
                self.core.charge(length * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
            self._send_wire(wire)

    def _send_wire(self, wire: Wire) -> None:
        """Queue one PDU for transmission with backpressure."""
        self.core.charge(self.model.cycles_pdu, "l5p")
        self._queue(wire)

    def _writable(self) -> None:
        self._drain_waiting()

    def _fail(self, reason: str) -> None:
        if self.on_error is not None:
            self.stats.io_failures += 1
        super()._fail(reason)

    def l5o_offload_degraded(self, direction: str, reason: str) -> None:
        super().l5o_offload_degraded(direction, reason)
        self.stats.offload_degraded = self.offload_degraded

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_message(self, msg, idx: int) -> None:
        self.stats.pdus_rx += 1
        self.core.charge(self.model.cycles_pdu, "l5p")
        pdu_type, flags = msg.cut(0, 2)
        if pdu_type == P.TYPE_C2H_DATA:
            self._on_c2h_data(msg, bool(flags & P.FLAG_DDGST))
        elif pdu_type == P.TYPE_CAPSULE_RESP:
            self._on_resp(msg.wire)
        elif pdu_type == P.TYPE_R2T:
            self._on_r2t(msg.wire)
        # Other types are ignored by the initiator.

    def _on_c2h_data(self, msg, has_digest: bool) -> None:
        data_start = P.CH_LEN + P.PSH_LEN[P.TYPE_C2H_DATA]
        cid, data_offset, data_len = P.parse_data_psh(msg.cut(P.CH_LEN, data_start - P.CH_LEN))
        req = self._inflight.get(cid)
        if req is None or data_offset + data_len > len(req.buffer):
            return  # stale or corrupt; the CapsuleResp will sort it out
        data_runs = msg.slice_runs(data_start, data_len)
        placed = all(r.meta.placed for r in data_runs) and self.config.rx_offload_copy
        crc_done = all(r.meta.crc_ok for r in msg.runs) and self.config.rx_offload_crc

        if placed and (crc_done or not has_digest):
            # Figure 9: payload already sits in the block-layer buffer and
            # the digest was checked inline — memcpy src == dst, skip all.
            self.stats.pdus_placed += 1
            return
        self.stats.pdus_software += 1
        data = b"".join(r.data for r in data_runs)
        copy_bytes = sum(len(r.data) for r in data_runs if not (r.meta.placed and self.config.rx_offload_copy))
        if copy_bytes:
            self.core.charge(copy_bytes * self.host.llc.copy_cpb(), "copy")
        req.buffer[data_offset : data_offset + data_len] = data
        if has_digest and not crc_done:
            self.core.charge(data_len * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
            wire_digest = msg.cut(msg.length - P.DDGST_LEN, P.DDGST_LEN)
            if self.digest_cls(data).digest() != wire_digest:
                self.stats.digest_failures += 1
                req.data_failures += 1

    def _on_r2t(self, wire: bytes) -> None:
        """Target solicits write data: answer with H2CData."""
        psh = wire[P.CH_LEN : P.CH_LEN + P.PSH_LEN[P.TYPE_R2T]]
        cid, offset, length = P.parse_r2t_psh(psh)
        req = self._inflight.get(cid)
        if req is None or offset + length > len(req.write_data):
            return  # stale R2T
        chunk = memoryview(req.write_data)[offset : offset + length]
        offloaded_tx = self._tx_ctx is not None
        wire_out = P.build_pdu(
            P.TYPE_H2C_DATA,
            P.make_data_psh(cid, offset, length),
            chunk,
            self.digest_cls,
            self.config.data_digest,
            dummy_digest=offloaded_tx,
        )
        self.core.charge(length * self.host.llc.copy_cpb(), "copy")
        if not offloaded_tx and self.config.data_digest:
            self.core.charge(length * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
        self._send_wire(wire_out)

    def _on_resp(self, wire: bytes) -> None:
        psh = wire[P.CH_LEN : P.CH_LEN + P.PSH_LEN[P.TYPE_CAPSULE_RESP]]
        cid, status = P.parse_cqe(psh)
        req = self._inflight.pop(cid, None)
        if req is None:
            return
        self._free_cids.append(cid)
        self.host.llc.release(req.length)
        if self._rx_ctx is not None and self.config.rx_offload_copy and req.opcode == P.OPC_READ:
            self.host.nic.driver.l5o_del_rr_state(self._rx_ctx, cid)
        latency = self.host.sim.now - req.issued_at
        self.stats.latencies.append(latency)
        if status != 0 or req.data_failures:
            self._fail(f"NVMe I/O cid={cid} failed (status={status})")
        elif req.opcode == P.OPC_READ:
            self.stats.bytes_read += req.length
            req.on_complete(bytes(req.buffer), latency)
        else:
            req.on_complete(latency)
        self._drain_waiting()
