"""A host: CPU cores, LLC, TCP stack, a NIC, and the driver receive path.

The receive path models NAPI polling: packets that arrive while the
steered core is busy accumulate and are processed as one batch when the
core frees up.  This organic batching is what §6.5 credits for the
offload's scalability (only the first packet of a batch misses the NIC
context cache), so we model the mechanism rather than its effect.

Timing convention: CPU work is charged inline (extending the core's
``busy_until``), and externally visible outputs — packets leaving the
host — are released at the charge's completion time.  Application-level
latency measurements should use :meth:`Host.cpu_time`.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Optional

from repro.cpu import Cpu, LlcModel
from repro.cpu.core import Core
from repro.cpu.model import CostModel, DEFAULT_COST_MODEL
from repro.net.device import PassthroughNic
from repro.net.link import Link
from repro.net.packet import FlowKey, Packet
from repro.sim import Simulator
from repro.tcp.stack import TcpStack

_MAX_RX_BATCH = 64  # NAPI poll budget


def flow_hash(flow: FlowKey) -> int:
    """Deterministic, direction-symmetric flow hash (RSS-style)."""
    ends = sorted([(flow.src, flow.sport), (flow.dst, flow.dport)])
    return zlib.crc32(repr(ends).encode())


class Host:
    """One machine in the testbed."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        model: CostModel = DEFAULT_COST_MODEL,
        cores: int = 1,
        nic: Optional[PassthroughNic] = None,
        tcp_send_buffer: int = 4 * 1024 * 1024,
        tcp_recv_window: int = 96 * 1024 * 1024,
        tcp_congestion_control: str = "reno",
    ):
        self.sim = sim
        self.name = name
        self.model = model
        self.cpu = Cpu(sim, model, cores=cores)
        self.llc = LlcModel(model)
        self.tcp = TcpStack(self)
        self.tcp_send_buffer = tcp_send_buffer
        self.tcp_recv_window = tcp_recv_window
        self.tcp_congestion_control = tcp_congestion_control
        self.nic = nic or PassthroughNic()
        self.nic.bind(self)
        # Per-core NAPI state.
        self._rx_queues: dict[int, deque[Packet]] = {c.index: deque() for c in self.cpu.cores}
        self._polling: dict[int, bool] = {c.index: False for c in self.cpu.cores}
        self.rx_batch_sizes: list[int] = []
        # flow -> steered core, memoized: core_for_flow runs once per
        # packet on both paths, and the CRC-of-repr RSS hash dominates it.
        self._flow_cores: dict[FlowKey, Core] = {}

    # ------------------------------------------------------------------
    def attach_link(self, link: Link, side: str) -> None:
        self.nic.attach_link(link, side)

    def core_for_flow(self, flow: FlowKey) -> Core:
        core = self._flow_cores.get(flow)
        if core is None:
            core = self._flow_cores[flow] = self.cpu.core_for_flow(flow_hash(flow))
        return core

    def cpu_time(self, flow: FlowKey) -> float:
        """Time at which CPU work already charged for this flow completes."""
        core = self.core_for_flow(flow)
        return max(self.sim.now, core.busy_until)

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def transmit_segment(self, conn, pkt: Packet) -> None:
        """Called by TCP to emit one segment.

        Charges the per-packet stack cost and releases the packet to the
        NIC when the charge (plus everything before it) completes.
        """
        core = self.core_for_flow(conn.flow)
        done = core.charge(self.model.cycles_tx_pkt, "stack")
        self.sim.at(done, self.nic.transmit, conn, pkt)

    # ------------------------------------------------------------------
    # receive path (driver + NAPI)
    # ------------------------------------------------------------------
    def deliver(self, pkt: Packet) -> None:
        """Called by the NIC for every received packet."""
        core = self.core_for_flow(pkt.flow)
        self._rx_queues[core.index].append(pkt)
        if not self._polling[core.index]:
            self._polling[core.index] = True
            core.when_free(self._poll, core)

    def _poll(self, core: Core) -> None:
        queue = self._rx_queues[core.index]
        self._polling[core.index] = False
        if not queue:
            return
        poll_start = self.sim.now
        batch = 0
        core.charge(self.model.cycles_rx_batch, "stack")
        while queue and batch < _MAX_RX_BATCH:
            pkt = queue.popleft()
            batch += 1
            if pkt.payload:
                core.charge(self.model.cycles_rx_pkt, "stack")
            else:
                core.charge(self.model.cycles_ack_rx, "stack")
            self.tcp.handle_packet(pkt)
        self.rx_batch_sizes.append(batch)
        obs = self.sim.obs
        if obs is not None:
            obs.observe(f"host.{self.name}.rx_batch", batch)
            obs.span(
                "napi-poll",
                poll_start,
                max(0.0, core.busy_until - poll_start),
                lane=f"{self.name}/core{core.index}",
                batch=batch,
            )
        if queue:  # budget exhausted: re-arm immediately
            self._polling[core.index] = True
            core.when_free(self._poll, core)

    # ------------------------------------------------------------------
    @property
    def mean_rx_batch(self) -> float:
        if not self.rx_batch_sizes:
            return 0.0
        return sum(self.rx_batch_sizes) / len(self.rx_batch_sizes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} cores={len(self.cpu.cores)}>"
