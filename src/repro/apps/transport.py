"""Uniform app-level transport over raw TCP or kTLS.

Applications (nginx, wrk, RoF, memtier) speak to a :class:`Transport`
so each can run in http / https / https+offload configurations without
code changes — mirroring how the real apps link against OpenSSL or not.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.l5p.tls.ktls import KtlsSocket, TlsConfig
from repro.net.host import Host


class Transport:
    """send/sendfile/on_data facade over a TcpConnection or KtlsSocket."""

    def __init__(self, host: Host, conn, role: str, tls: Optional[TlsConfig] = None):
        self.host = host
        self.conn = conn
        self.core = host.core_for_flow(conn.flow)
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_ready: Optional[Callable[[], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None
        self._tls: Optional[KtlsSocket] = None

        if tls is not None:
            self._tls = KtlsSocket(host, conn, role, tls)
            self._tls.on_data = self._deliver
            self._tls.on_ready = self._ready
            self._tls.on_writable = self._writable
        else:
            # recvmsg: the application gets its own copy of the bytes.
            conn.on_data = lambda skb: self._deliver(bytes(skb.data))
            conn.on_writable = self._writable
            if conn.state == "established":
                host.sim.call_soon(self._ready)
            else:
                previous = conn.on_established

                def established():
                    if previous:
                        previous()
                    self._ready()

                conn.on_established = established

    # ------------------------------------------------------------------
    def _deliver(self, data: bytes) -> None:
        if self.on_data:
            self.on_data(data)

    def _ready(self) -> None:
        if self.on_ready:
            self.on_ready()

    def _writable(self) -> None:
        if self.on_writable:
            self.on_writable()

    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        if self._tls is not None:
            return self._tls.ready
        return self.conn.state in ("established", "close-wait")

    @property
    def send_space(self) -> int:
        if self._tls is not None:
            return self._tls.send_space if self._tls.ready else 0
        return self.conn.send_space

    def send(self, data: bytes) -> int:
        if self._tls is not None:
            return self._tls.send(data)
        return self.conn.send(data)

    def sendfile(self, data: bytes) -> int:
        """Transmit page-cache bytes (no user copy on the plain path)."""
        if self._tls is not None:
            return self._tls.sendfile(data)
        pages = (len(data) + 4095) // 4096
        self.core.charge(self.host.model.cycles_sendfile_page * pages, "stack")
        return self.conn.send(data)

    def close(self) -> None:
        self.conn.close()

    @property
    def tls(self) -> Optional[KtlsSocket]:
        return self._tls
