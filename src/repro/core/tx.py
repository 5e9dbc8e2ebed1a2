"""Transmit-side autonomous offload (§4.2).

The L5P "skips" its data-intensive operation and hands TCP the *wrong*
bytes (plaintext bodies, dummy trailers); the NIC transforms every
outgoing packet so correct bytes hit the wire.  The driver detects
out-of-sequence transmissions (retransmits, or new data after a
retransmit) by comparing against its shadow of the context, asks the
L5P for the covering message's state (``l5o_get_tx_msgstate``), and the
NIC re-derives mid-message state by re-reading the message bytes over
PCIe — the interconnect overhead measured in Figure 16b.
"""

from __future__ import annotations

from repro.analysis.sanitizer import active as _sanitizer_active, allow_rewind
from repro.core.context import HwContext
from repro.core.types import ProtocolError
from repro.core.walker import replay, walk
from repro.net.packet import Buffer, Packet
from repro.tcp import seq as sq


class TxEngine:
    """Per-NIC transmit offload engine."""

    def __init__(self, nic):
        self.nic = nic

    def process(self, ctx: HwContext, conn, pkt: Packet) -> None:
        """Transform one outgoing packet in place."""
        if not pkt.payload:
            return
        self.nic.cache.access(ctx)
        self.nic.pcie.count("tx-packet", len(pkt.payload))
        seq, payload = pkt.seq, pkt.payload
        prefix = b""
        if sq.lt(seq, ctx.created_seq):
            # Bytes queued before the offload existed (e.g. a
            # retransmitted TLS handshake record) pass through raw.
            split = sq.sub(ctx.created_seq, seq)
            if split >= len(payload):
                return
            prefix, payload = payload[:split], payload[split:]
            seq = ctx.created_seq
        san = _sanitizer_active()
        sw_fallback = False
        if seq != ctx.expected_seq:
            state, seq, prefix, payload = self._msgstate(ctx, conn, seq, prefix, payload)
            if state is None:
                ctx.pkts_bypassed += 1
                pkt.payload = prefix
                return
            with allow_rewind(ctx):
                sw_fallback = self._recover(ctx, conn, seq, state)
            if san is not None:
                san.tx_recovered(ctx, seq)
        result = walk(ctx, payload, emit=True)
        if result.desynced:
            raise ProtocolError(
                f"{ctx.adapter.name}: transmit stream does not parse as L5P "
                f"messages at seq {seq}"
            )
        pkt.payload = b"".join((prefix, result.out)) if prefix else result.out
        ctx.expected_seq = sq.add(seq, len(payload))
        if sw_fallback:
            # The PCIe re-read failed, so the NIC could not rebuild the
            # context: this packet's bytes were produced by the host's
            # software data path instead (charged below) and it does not
            # count as offloaded.
            ctx.pkts_bypassed += 1
            ctx.tx_sw_fallbacks += 1
            obs = self.nic.obs
            if obs is not None:
                obs.count("nic.tx.sw_fallback_pkts")
                obs.count("nic.tx.sw_fallback_bytes", len(payload))
            host = self.nic.host
            if host is not None:
                core = host.core_for_flow(conn.flow)
                cpb = ctx.adapter.software_cpb(host.model)
                core.charge(host.model.cycles_crypto_setup + len(payload) * cpb, "crypto")
            return
        ctx.pkts_offloaded += 1
        pkt.meta.offloaded = True

    # ------------------------------------------------------------------
    def process_software(self, ctx: HwContext, conn, pkt: Packet) -> None:
        """Transform one outgoing packet on the *host* while the NIC is
        down (lifecycle fallback).  Same wire bytes as :meth:`process`,
        but: no cache access, no PCIe traffic, cycles charged to the
        flow's core as software crypto, and the packet is never marked
        offloaded — a hung/resetting NIC completes nothing."""
        if not pkt.payload:
            return
        seq, payload = pkt.seq, pkt.payload
        prefix = b""
        if sq.lt(seq, ctx.created_seq):
            split = sq.sub(ctx.created_seq, seq)
            if split >= len(payload):
                return
            prefix, payload = payload[:split], payload[split:]
            seq = ctx.created_seq
        if seq != ctx.expected_seq:
            # Host-side reposition from the L5P's message state: the
            # shadow walks the prefix itself (no device to DMA into).
            state, seq, prefix, payload = self._msgstate(ctx, conn, seq, prefix, payload)
            if state is None:
                ctx.pkts_bypassed += 1
                pkt.payload = prefix
                return
            offset = sq.sub(seq, state.start_seq)
            with allow_rewind(ctx):
                ctx.reset_to_header()
                ctx.msg_index = state.msg_index
                ctx.expected_seq = state.start_seq
                ctx.adapter.prepare_tx_recovery(ctx, state)
                if offset:
                    replay(ctx, memoryview(state.wire_bytes)[:offset])
                    ctx.expected_seq = seq
        result = walk(ctx, payload, emit=True)
        if result.desynced:
            raise ProtocolError(
                f"{ctx.adapter.name}: transmit stream does not parse as L5P "
                f"messages at seq {seq}"
            )
        pkt.payload = b"".join((prefix, result.out)) if prefix else result.out
        ctx.expected_seq = sq.add(seq, len(payload))
        ctx.pkts_bypassed += 1
        ctx.tx_sw_fallbacks += 1
        host = self.nic.host
        if host is not None:
            core = host.core_for_flow(conn.flow)
            cpb = ctx.adapter.software_cpb(host.model)
            core.charge(host.model.cycles_crypto_setup + len(payload) * cpb, "crypto")

    # ------------------------------------------------------------------
    def _msgstate(self, ctx: HwContext, conn, seq: int, prefix: Buffer, payload: Buffer):
        """Ask the L5P for the message covering ``seq`` (the
        ``l5o_get_tx_msgstate`` upcall); returns ``(state, seq, prefix,
        payload)`` with any stale head of the segment moved, zero-filled,
        from ``payload`` onto the pass-through ``prefix``.

        A retransmission queued before an ACK arrived can reach the NIC
        after the L5P released the acknowledged messages.  Its bytes
        below ``conn.snd_una`` can never be consumed (the receiver trims
        them as duplicates), so content is moot: they are zero-filled
        and recovery starts at ``snd_una``, whose message is still live.
        ``state`` is None when the whole segment is stale.  Nothing is
        cut while the L5P still holds the message at ``seq``."""
        ops = ctx.l5p_ops
        if ops is None:
            raise ProtocolError("TX context has no L5P ops for recovery")
        state = ops.l5o_get_tx_msgstate(seq)
        if state is not None:
            return state, seq, prefix, payload
        stale = min(sq.sub(conn.snd_una, seq), len(payload)) if conn is not None else 0
        if stale > 0:
            seq = sq.add(seq, stale)
            prefix = b"".join((prefix, bytes(stale)))
            payload = payload[stale:]
            if not payload:
                return None, seq, prefix, payload
            state = ops.l5o_get_tx_msgstate(seq)
            if state is not None:
                return state, seq, prefix, payload
        raise ProtocolError(
            f"{ctx.adapter.name}: L5P has no message state covering "
            f"seq {seq} (released too early?)"
        )

    def _recover(self, ctx: HwContext, conn, tcpsn: int, state) -> bool:
        """Reposition the context at ``tcpsn`` inside the message
        ``state`` describes (driver-led, §4.2).

        Returns False on the normal PCIe re-read path, True when an
        injected PCIe read failure forces the packet through the host's
        software data path."""
        offset = sq.sub(tcpsn, state.start_seq)
        if offset < 0 or offset > len(state.wire_bytes):
            raise ProtocolError(
                f"{ctx.adapter.name}: message state for seq {tcpsn} covers "
                f"[{state.start_seq}, +{len(state.wire_bytes)})"
            )
        host = self.nic.host
        obs = self.nic.obs
        faults = getattr(self.nic, "faults", None)
        failed = False
        if faults is not None:
            rng = self.nic.fault_rng
            if faults.pcie_stall_prob and rng.random() < faults.pcie_stall_prob:
                # The re-read DMA stalls (e.g. congested root complex):
                # recovery still succeeds, but the flow's core burns the
                # stall waiting on the descriptor completion.
                self.nic.pcie.stalls += 1
                if obs is not None:
                    obs.count("nic.pcie.fault.stalls")
                if host is not None:
                    host.core_for_flow(conn.flow).charge(faults.pcie_stall_cycles, "offload-mgmt")
            if faults.pcie_fail_prob and rng.random() < faults.pcie_fail_prob:
                failed = True
        ctx.reset_to_header()
        ctx.msg_index = state.msg_index
        ctx.expected_seq = state.start_seq
        ctx.adapter.prepare_tx_recovery(ctx, state)
        if offset:
            replay(ctx, memoryview(state.wire_bytes)[:offset])
            ctx.expected_seq = tcpsn
        if failed:
            # The PCIe re-read failed: the NIC never rebuilds the
            # context, so the *driver* performed the repositioning above
            # in software and the packet will be sent un-offloaded.  The
            # replayed bytes are digested on the host CPU, not DMA-ed.
            ctx.tx_recovery_failures += 1
            self.nic.pcie.read_failures += 1
            if obs is not None:
                obs.count("nic.pcie.fault.read_failures")
                obs.event("tx-recovery-failed", lane=f"ctx/{ctx.ctx_id}", cat="recovery", tcpsn=tcpsn)
            self.nic.pcie.count("descriptor", 64)
            if host is not None:
                core = host.core_for_flow(conn.flow)
                cpb = ctx.adapter.software_cpb(host.model)
                core.charge(host.model.cycles_syscall + offset * cpb, "crypto")
            return True
        # The driver passes the replayed bytes to the NIC via DMA; the
        # driver-side upcall work is charged to the flow's core.
        ctx.tx_recoveries += 1
        ctx.tx_recovery_bytes += offset
        if obs is not None:
            obs.count("nic.tx.recoveries")
            obs.count("nic.tx.recovery_dma_bytes", offset)
            obs.event(
                "tx-recovery", lane=f"ctx/{ctx.ctx_id}", cat="recovery", tcpsn=tcpsn, replayed_bytes=offset
            )
        self.nic.pcie.count("recovery", offset)
        self.nic.pcie.count("descriptor", 64)
        if host is not None:
            core = host.core_for_flow(conn.flow)
            core.charge(host.model.cycles_syscall, "offload-mgmt")
        return False
