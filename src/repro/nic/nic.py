"""The autonomous-offload NIC device.

Interposes on the plain NIC's transmit/receive paths: packets belonging
to flows with installed contexts are run through the TX/RX offload
engines; everything else passes through untouched.  The layer-4 stack
remains entirely in host software — the NIC never acks, retransmits, or
reorders anything.
"""

from __future__ import annotations

from itertools import chain

from repro.analysis.sanitizer import active as _sanitizer_active
from repro.core.context import HwContext
from repro.core.driver import NicDriver
from repro.core.rx import RxEngine
from repro.core.tx import TxEngine
from repro.net.device import PassthroughNic
from repro.net.packet import Packet
from repro.nic.cache import ContextCache
from repro.nic.lifecycle import NicLifecycle
from repro.nic.pcie import PcieModel


class OffloadNic(PassthroughNic):
    """A NIC with autonomous L5P offload engines (ConnectX-6 Dx model)."""

    def __init__(self, host=None, cache_bytes: int = 4 * 1024 * 1024):
        super().__init__(host)
        self.pcie = PcieModel()
        self.cache = ContextCache(self.pcie, capacity_bytes=cache_bytes)
        self.driver = NicDriver(self)
        self.tx_engine = TxEngine(self)
        self.rx_engine = RxEngine(self)
        self.contexts_installed = 0
        self.obs = None  # repro.obs handle, wired at bind()
        # Epoch-batched per-packet counters (repro.obs cells); None until
        # bind() wires an Obs, so the off-path stays a pointer check.
        self._tx_pkts_cell = None
        self._rx_pkts_cell = None
        # Injected device faults (repro.faults NicFaultProfile) and their
        # dedicated rng substream; None means a fault-free device.
        self.faults = None
        self.fault_rng = None
        # Lifecycle fault domain (crash/reset/recovery); dormant until a
        # NicLifecycleProfile arms it.  The datapath gates on the plain
        # bool so an unarmed device pays one attribute check.
        self.lifecycle = NicLifecycle(self)
        self._offloads_online = True

    def bind(self, host) -> None:
        super().bind(host)
        # Pick up the run's observability handle (if any) and share it
        # with the components that have no path back to the simulator.
        self.obs = host.sim.obs if host is not None else None
        if self.obs is not None:
            self._tx_pkts_cell = self.obs.cell("nic.tx.pkts")
            self._rx_pkts_cell = self.obs.cell("nic.rx.pkts")
        # Rebinding swaps the Obs handle: drop the RX engine's cached
        # per-state cells so they re-resolve against the new registry.
        self.rx_engine._state_cells = None
        self.cache.wire(self.obs)
        self.cache.clock = (lambda: host.sim.now) if host is not None else None

    def install_faults(self, profile, rng) -> None:
        """Arm a NicFaultProfile-shaped object (duck-typed) against this
        device.  ``rng`` must be a dedicated substream so fault rolls
        never perturb the simulation's other draw sequences."""
        self.faults = profile
        self.fault_rng = rng
        self.cache.faults = profile
        self.cache.fault_rng = rng

    # ------------------------------------------------------------------
    # context lifecycle (called by the driver)
    # ------------------------------------------------------------------
    def context_installed(self, ctx: HwContext) -> None:
        self.contexts_installed += 1
        self.pcie.count("descriptor", 64)
        obs = self.obs
        if obs is not None:
            obs.count("driver.contexts.installed")
            obs.gauge("driver.contexts.active").inc()

    def context_removed(self, ctx: HwContext) -> None:
        self.cache.evict(ctx)
        self.pcie.count("descriptor", 64)
        obs = self.obs
        if obs is not None:
            obs.count("driver.contexts.removed")
            obs.gauge("driver.contexts.active").dec()

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def transmit(self, conn, pkt: Packet) -> None:
        cell = self._tx_pkts_cell
        if cell is not None:
            cell.value += 1
        if not self._offloads_online:
            # NIC not RUNNING: the driver's shadow transforms in software.
            self.lifecycle.transmit_offline(conn, pkt)
            self.output(pkt)
            return
        ctx = self.driver.lookup_tx(pkt.tx_ctx_id)
        if ctx is not None:
            san = _sanitizer_active()
            if san is None:
                self.tx_engine.process(ctx, conn, pkt)
            else:
                in_len = len(pkt.payload)
                self.tx_engine.process(ctx, conn, pkt)
                san.tx_packet(ctx, pkt.seq, in_len, len(pkt.payload))
        self.output(pkt)

    def receive(self, pkt: Packet) -> None:
        self.rx_packets += 1
        cell = self._rx_pkts_cell
        if cell is not None:
            cell.value += 1
        if not self._offloads_online:
            # NIC not RUNNING: nothing is decrypted/placed; the packet
            # passes through untouched to the L5P's software path.
            self.lifecycle.receive_offline(pkt)
            if self.host is None:
                raise RuntimeError("NIC not bound to a host")
            self.host.deliver(pkt)
            return
        ctx = self.driver.lookup_rx(pkt.flow)
        if ctx is not None:
            san = _sanitizer_active()
            if san is None:
                self.rx_engine.process(ctx, pkt)
            else:
                entry_state = ctx.rx_state
                entry_expected = ctx.expected_seq
                entry_offloaded = pkt.meta.offloaded
                in_len = len(pkt.payload)
                self.rx_engine.process(ctx, pkt)
                san.rx_packet(ctx, pkt, entry_state, entry_expected, in_len, entry_offloaded)
        if self.host is None:
            raise RuntimeError("NIC not bound to a host")
        self.host.deliver(pkt)

    # ------------------------------------------------------------------
    def offload_stats(self) -> dict:
        """Aggregate per-context statistics (for the benchmarks)."""
        stats = {
            "pkts_offloaded": 0,
            "pkts_bypassed": 0,
            "resync_requests": 0,
            "resyncs_completed": 0,
            "boundary_resyncs": 0,
            "tx_recoveries": 0,
            "tx_recovery_bytes": 0,
            "resync_retries": 0,
            "resync_failures": 0,
            "auto_disables": 0,
            "tx_sw_fallbacks": 0,
            "tx_recovery_failures": 0,
            "offload_disabled_flows": 0,
        }
        # Dense FlowTable iteration: no copies, no holes, O(active).
        for ctx in chain(self.driver.tx_contexts.values(), self.driver.rx_contexts.values()):
            stats["pkts_offloaded"] += ctx.pkts_offloaded
            stats["pkts_bypassed"] += ctx.pkts_bypassed
            stats["resync_requests"] += ctx.resync_requests
            stats["resyncs_completed"] += ctx.resyncs_completed
            stats["boundary_resyncs"] += ctx.boundary_resyncs
            stats["tx_recoveries"] += ctx.tx_recoveries
            stats["tx_recovery_bytes"] += ctx.tx_recovery_bytes
            stats["resync_retries"] += ctx.resync_retries
            stats["resync_failures"] += ctx.resync_failures
            stats["auto_disables"] += ctx.auto_disables
            stats["tx_sw_fallbacks"] += ctx.tx_sw_fallbacks
            stats["tx_recovery_failures"] += ctx.tx_recovery_failures
            stats["offload_disabled_flows"] += 1 if ctx.offload_disabled else 0
        return stats
