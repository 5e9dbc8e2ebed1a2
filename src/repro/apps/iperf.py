"""iperf: maximal-TCP-bandwidth measurement, optionally over kTLS.

The §6.1/§6.4 experiments run a modified iperf that sends fixed-size
messages through OpenSSL/kTLS; the sender core is pinned at 100%
utilization and throughput is measured at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.l5p.tls.ktls import KtlsSocket, TlsConfig
from repro.net.host import Host


@dataclass
class StreamStats:
    bytes_received: int = 0


class IperfServer:
    """Sink for one or many iperf streams."""

    def __init__(self, host: Host, port: int = 5201, tls: Optional[TlsConfig] = None):
        self.host = host
        self.port = port
        self.tls_config = tls
        self.streams: list[StreamStats] = []
        self.tls_sockets: list[KtlsSocket] = []
        host.tcp.listen(port, self._accept)

    def _accept(self, conn) -> None:
        stats = StreamStats()
        self.streams.append(stats)

        def count(received) -> None:
            # Plaintext from kTLS or an Skb from TCP: only its size matters.
            stats.bytes_received += len(received)

        if self.tls_config is not None:
            tls = KtlsSocket(self.host, conn, "server", self.tls_config)
            tls.on_data = count
            self.tls_sockets.append(tls)
        else:
            conn.on_data = count

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_received for s in self.streams)


class IperfClient:
    """Drives ``streams`` connections, each sending ``message_size``
    application messages as fast as CPU and network allow."""

    def __init__(
        self,
        host: Host,
        server: str,
        port: int = 5201,
        streams: int = 1,
        message_size: int = 256 * 1024,
        tls: Optional[TlsConfig] = None,
    ):
        self.host = host
        self.server = server
        self.port = port
        self.message_size = message_size
        self.tls_config = tls
        self.bytes_sent = 0
        self._senders = []
        for _ in range(streams):
            self._start_stream()

    def _start_stream(self) -> None:
        conn = self.host.tcp.connect(self.server, self.port)
        core = self.host.core_for_flow(conn.flow)
        # Self-pacing: one chunk per core-availability slot, like a
        # blocking send loop — the app cannot run ahead of the CPU time
        # its own sends consume.  Chunks of at most 64 KiB keep the
        # charge quantum small (a blocking sendmsg encrypts before the
        # bytes enter the TCP buffer, not after).
        message = bytes(min(self.message_size, 64 * 1024))
        state = {"kicked": False}

        def kick() -> None:
            if not state["kicked"]:
                state["kicked"] = True
                core.when_free(pump)

        if self.tls_config is not None:
            tls = KtlsSocket(self.host, conn, "client", self.tls_config)

            def pump() -> None:
                state["kicked"] = False
                if tls.send_space < len(message):
                    return  # wait for on_writable
                core.charge(self.host.model.cycles_syscall, "stack")
                self.bytes_sent += tls.send(message)
                kick()

            tls.on_ready = kick
            tls.on_writable = kick
            self._senders.append(tls)
        else:

            def pump() -> None:
                state["kicked"] = False
                if conn.send_space < len(message):
                    return
                core.charge(self.host.model.cycles_syscall, "stack")
                # Plain TCP still copies user bytes into the socket.
                core.charge(len(message) * self.host.llc.copy_cpb(), "copy")
                self.bytes_sent += conn.send(message)
                kick()

            conn.on_established = kick
            conn.on_writable = kick
            self._senders.append(conn)
