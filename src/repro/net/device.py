"""NIC device interface.

:class:`PassthroughNic` is a plain NIC with no L5P offloads — the
baseline device.  The autonomous-offload NIC in :mod:`repro.nic`
subclasses it and interposes on ``transmit``/``receive``.
"""

from __future__ import annotations


from repro.net.link import Link
from repro.net.packet import Packet


class PassthroughNic:
    """A NIC that forwards packets between the host stack and the link."""

    def __init__(self, host=None):
        self.host = host
        self._port = None
        self.rx_packets = 0
        self.tx_packets = 0

    def bind(self, host) -> None:
        self.host = host

    def attach_link(self, link: Link, side: str) -> None:
        link.attach(side, self.receive)
        self._port = link.port(side)

    # ------------------------------------------------------------------
    def transmit(self, conn, pkt: Packet) -> None:
        """Send one packet out the wire (conn provided for offload NICs)."""
        del conn
        self.output(pkt)

    def output(self, pkt: Packet) -> None:
        if self._port is None:
            raise RuntimeError("NIC not attached to a link")
        self.tx_packets += 1
        self._port.transmit(pkt)

    def receive(self, pkt: Packet) -> None:
        """Packet arrived from the wire; hand to the host's receive path."""
        self.rx_packets += 1
        if self.host is None:
            raise RuntimeError("NIC not bound to a host")
        self.host.deliver(pkt)
