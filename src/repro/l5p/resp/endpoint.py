"""RESP key-value server and pipelining client over simulated TCP.

The server carries the autonomous offload: its NIC steers each inbound
packet to the receive queue owning the first command's key shard, so
dispatch skips the software parse+hash; unsteered packets (offload
off, resync windows, degraded flows) pay the software dispatch path.
The client pipelines inline commands — many short, non-uniform
messages per packet — which is exactly the framing stress the
speculative resync engine never sees from uniform TLS records.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.core.types import Direction
from repro.l5p import plugin
from repro.l5p.base import StreamEndpoint
from repro.l5p.resp import frame as F

#: Dispatch cost (cycles): full software parse+hash+enqueue vs riding
#: the NIC's steering decision straight to the owning queue.
CYCLES_DISPATCH_SW = 420
CYCLES_DISPATCH_STEERED = 60
CYCLES_COMMAND = 250


class RespServer:
    """In-memory key-value store with NIC-steered command dispatch."""

    def __init__(self, host, port: int = 6379, config: Optional[F.RespConfig] = None):
        self.host = host
        self.config = config or F.RespConfig()
        self.store: dict[bytes, bytes] = {}
        self.queue_counts = [0] * self.config.steer_queues
        self.stats = {
            "commands": 0,
            "steered": 0,
            "software_dispatch": 0,
            "gets": 0,
            "sets": 0,
            "misses": 0,
        }
        # When set, connections report framing desyncs here, not by raising.
        self.on_error: Optional[Callable[[str], None]] = None
        host.tcp.listen(port, self._accept)

    def _accept(self, conn) -> None:
        _ServerConn(self, conn)


class _ServerConn(StreamEndpoint):
    protocol = "resp"

    def __init__(self, server: RespServer, conn):
        super().__init__(server.host)
        self.server = server
        self.config = server.config
        self._attach(conn)
        # Accept fires at establishment, so rcv_nxt is the first data
        # byte.  A client that pipelines on the handshake-completing ACK
        # slips that packet past the fresh context; the engine recovers
        # through the ordinary resync path (§4.2).
        self._install(Direction.RX)

    @property
    def on_error(self):
        return self.server.on_error

    def _offload(self, direction: Direction):
        if direction is Direction.RX and self.config.rx_offload_steer:
            return plugin.make_adapter("resp", config=self.config), None
        return None  # replies are not TX-offloaded

    def _on_message(self, msg, idx: int) -> None:
        stats = self.server.stats
        payload = msg.wire[F.HEADER_LEN : F.HEADER_LEN + (msg.length - F.HEADER_LEN - F.TRAILER_LEN)]
        stats["commands"] += 1
        queue = msg.runs[0].meta.steer_queue
        if queue is not None:
            stats["steered"] += 1
            self.core.charge(CYCLES_DISPATCH_STEERED, "app")
        else:
            stats["software_dispatch"] += 1
            self.core.charge(CYCLES_DISPATCH_SW, "app")
            self.core.charge(
                min(len(payload), F.KEY_WINDOW) * self.model.cpb_deserialize, "app"
            )
            queue = F.steer_queue(payload, self.config.steer_queues)
        self.server.queue_counts[queue] += 1
        self._execute(payload)

    def _execute(self, payload: bytes) -> None:
        stats = self.server.stats
        self.core.charge(CYCLES_COMMAND, "app")
        tokens = payload.split(b" ", 2)
        cmd = tokens[0].upper()
        if cmd == b"GET" and len(tokens) >= 2:
            stats["gets"] += 1
            value = self.server.store.get(tokens[1])
            if value is None:
                stats["misses"] += 1
                reply = b"-nil"
            else:
                reply = b"+" + value
        elif cmd == b"SET" and len(tokens) >= 3:
            stats["sets"] += 1
            self.server.store[tokens[1]] = tokens[2]
            reply = b"+OK"
        else:
            reply = b"-ERR unknown command"
        self.core.charge(len(reply) * self.model.cpb_serialize, "app")
        self._queue(F.make_frame(reply))


class RespClient(StreamEndpoint):
    """Pipelines inline commands; replies return in order."""

    protocol = "resp"

    def __init__(self, host, server: str, port: int = 6379,
                 config: Optional[F.RespConfig] = None):
        super().__init__(host)
        self.config = config or F.RespConfig()
        self._inflight: deque[dict] = deque()  # one entry per expected reply
        self.stats = {"commands": 0, "replies": 0, "errors": 0}
        self._attach(host.tcp.connect(server, port))

    def pipeline(self, commands: list, on_done: Callable[[list, float], None]) -> None:
        """Send ``commands`` back-to-back; ``on_done(replies, latency)``
        fires when the whole batch has been answered."""
        if not commands:
            raise ValueError("empty pipeline")
        batch = {
            "remaining": len(commands),
            "replies": [],
            "on_done": on_done,
            "issued_at": self.host.sim.now,
        }
        wire = bytearray()
        for command in commands:
            self.core.charge(len(command) * self.model.cpb_serialize, "app")
            wire += F.make_frame(command)
            self._inflight.append(batch)
            self.stats["commands"] += 1
        self._queue(bytes(wire))

    def _on_message(self, msg, idx: int) -> None:
        payload = msg.wire[F.HEADER_LEN : F.HEADER_LEN + (msg.length - F.HEADER_LEN - F.TRAILER_LEN)]
        self.core.charge(len(payload) * self.model.cpb_deserialize, "app")
        self.stats["replies"] += 1
        if payload.startswith(b"-"):
            self.stats["errors"] += 1
        if not self._inflight:
            return
        batch = self._inflight.popleft()
        batch["replies"].append(payload)
        batch["remaining"] -= 1
        if batch["remaining"] == 0:
            batch["on_done"](batch["replies"], self.host.sim.now - batch["issued_at"])
