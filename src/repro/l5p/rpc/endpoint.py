"""RPC client and server endpoints over simulated TCP.

The client side carries the autonomous offload: it registers the
response buffer under the call's rpc_id before issuing the request, so
the NIC can place the response payload and verify its CRC inline; calls
whose responses the NIC fully handled skip the software copy+CRC.
Deserialization itself stays in software (a simplification the paper's
§7 leaves open; the copy is the dominant per-byte cost for KV/RPC).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.types import Direction
from repro.l5p.base import StreamEndpoint
from repro.l5p.rpc import frame as F
from repro.l5p.rpc.codec import decode, encode
from repro.l5p import plugin
from repro.l5p.rpc.frame import RpcConfig


class RpcError(Exception):
    """Server-side failure surfaced to the caller."""


class RpcServer:
    """Dispatches registered methods; one _ServerConn per client."""

    def __init__(self, host, port: int = 7000, config: Optional[RpcConfig] = None):
        self.host = host
        self.config = config or RpcConfig()
        self.methods: dict[int, Callable[[Any], Any]] = {}
        self.requests_served = 0
        # When set, connections report framing desyncs here, not by raising.
        self.on_error: Optional[Callable[[str], None]] = None
        host.tcp.listen(port, self._accept)

    def register(self, method_id: int, fn: Callable[[Any], Any]) -> None:
        if method_id in self.methods:
            raise ValueError(f"method {method_id} already registered")
        self.methods[method_id] = fn

    def _accept(self, conn) -> None:
        _ServerConn(self, conn)


class _ServerConn(StreamEndpoint):
    protocol = "rpc"

    def __init__(self, server: RpcServer, conn):
        super().__init__(server.host)
        self.server = server
        self.digest_cls = F.get_digest(server.config.digest_name)
        self._attach(conn)

    @property
    def on_error(self):
        return self.server.on_error

    def _on_message(self, msg, idx: int) -> None:
        wire = msg.wire
        _magic, ftype, rpc_id, method_id, payload_len = F.FRAME.unpack(wire[: F.HEADER_LEN])
        if ftype != F.TYPE_REQUEST:
            return
        payload = wire[F.HEADER_LEN : F.HEADER_LEN + payload_len]
        self.core.charge(payload_len * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
        if self.digest_cls(payload).digest() != wire[-F.TRAILER_LEN :]:
            return  # corrupt request: drop (client will time out)
        self.core.charge(self.model.cycles_kv_req, "app")
        self.core.charge(payload_len * self.model.cpb_deserialize, "app")
        fn = self.server.methods.get(method_id)
        try:
            if fn is None:
                raise RpcError(f"no such method {method_id}")
            result = {"ok": True, "value": fn(decode(payload))}
        except RpcError as exc:
            result = {"ok": False, "error": str(exc)}
        body = encode(result)
        self.core.charge(len(body) * self.model.cpb_serialize, "app")
        self.server.requests_served += 1
        self._queue(F.make_frame(F.TYPE_RESPONSE, rpc_id, method_id, body, self.digest_cls))


class RpcClient(StreamEndpoint):
    """Issues calls; offloads response CRC + placement when configured."""

    protocol = "rpc"

    def __init__(self, host, server: str, port: int = 7000, config: Optional[RpcConfig] = None):
        super().__init__(host)
        self.config = config or RpcConfig()
        self.digest_cls = F.get_digest(self.config.digest_name)
        self._next_rpc_id = 1
        # rpc_id -> (on_result, issued_at, response buffer the NIC places into)
        self._pending: dict[int, tuple[Callable, float, Optional[bytearray]]] = {}
        self.stats = {
            "calls": 0,
            "responses": 0,
            "placed": 0,
            "software": 0,
            "errors": 0,
        }
        if self.config.rx_offload:
            self._driver()  # no OffloadNic: fail before the first packet
        self._attach(host.tcp.connect(server, port))

    def _offload(self, direction: Direction):
        if direction is Direction.RX and self.config.rx_offload:
            return plugin.make_adapter("rpc", config=self.config), None
        return None  # requests are not TX-offloaded

    def _on_established(self) -> None:
        # Only now is the receive sequence space known (and no response
        # can precede our first request).
        self._install(Direction.RX)

    def _installed(self, direction: Direction) -> None:
        """Calls already in flight get their response buffers placed too."""
        for rpc_id, (_on_result, _issued_at, buffer) in self._pending.items():
            if buffer is not None:
                self.host.nic.driver.l5o_add_rr_state(self._rx_ctx, rpc_id, buffer)

    # ------------------------------------------------------------------
    def call(self, method_id: int, args: Any, on_result: Callable[[Any, float], None]) -> int:
        """Invoke ``method_id(args)``; ``on_result(value, latency)``."""
        rpc_id = self._next_rpc_id
        self._next_rpc_id += 1
        payload = encode(args)
        self.core.charge(len(payload) * self.model.cpb_serialize, "app")
        buffer = bytearray(self.config.max_response) if self.config.rx_offload_copy else None
        if buffer is not None and self._rx_ctx is not None:
            self.host.nic.driver.l5o_add_rr_state(self._rx_ctx, rpc_id, buffer)
        self._pending[rpc_id] = (on_result, self.host.sim.now, buffer)
        self._queue(F.make_frame(F.TYPE_REQUEST, rpc_id, method_id, payload, self.digest_cls))
        self.stats["calls"] += 1
        return rpc_id

    def _on_message(self, msg, idx: int) -> None:
        wire = msg.wire
        _magic, ftype, rpc_id, method_id, payload_len = F.FRAME.unpack(wire[: F.HEADER_LEN])
        if ftype != F.TYPE_RESPONSE:
            return
        pending = self._pending.pop(rpc_id, None)
        if pending is None:
            return
        on_result, issued_at, _buffer = pending
        payload_runs = msg.slice_runs(F.HEADER_LEN, payload_len)
        placed = self.config.rx_offload_copy and all(r.meta.placed for r in payload_runs)
        crc_done = self.config.rx_offload_crc and all(r.meta.crc_ok for r in msg.runs)
        payload = wire[F.HEADER_LEN : F.HEADER_LEN + payload_len]
        if placed and crc_done:
            self.stats["placed"] += 1  # copy+CRC skipped
        else:
            self.stats["software"] += 1
            self.core.charge(payload_len * self.host.llc.copy_cpb(), "copy")
            self.core.charge(payload_len * self.host.llc.touch_cpb(self.model.cpb_crc32c), "crc")
            if self.digest_cls(payload).digest() != wire[-F.TRAILER_LEN :]:
                self.stats["errors"] += 1
                return
        if self._rx_ctx is not None and self.config.rx_offload_copy:
            self.host.nic.driver.l5o_del_rr_state(self._rx_ctx, rpc_id)
        self.core.charge(payload_len * self.model.cpb_deserialize, "app")
        result = decode(payload)
        self.stats["responses"] += 1
        latency = self.host.sim.now - issued_at
        if not result.get("ok", False):
            self.stats["errors"] += 1
            on_result(RpcError(result.get("error", "unknown")), latency)
        else:
            on_result(result["value"], latency)
