"""Receive-side autonomous offload (§4.3, Figures 7–8).

In-sequence packets are transformed by the walker.  Out-of-sequence
packets are never offloaded and never buffered; instead the NIC tries
to regain the stream:

- a packet from the "past" (retransmission) is bypassed;
- a packet containing the *next message boundary* (derived from the
  current message's length field) lets the NIC deterministically re-lock
  mid-packet (Figure 8b);
- otherwise the NIC enters the hardware-driven recovery of Figure 7:
  **searching** for the L5P magic pattern, asking the L5P to confirm the
  speculated header sequence number, **tracking** subsequent headers via
  length fields while the confirmation is in flight, and resuming
  offload at the next boundary once software says yes (Figure 8c).
"""

from __future__ import annotations

from repro.analysis.sanitizer import active as _sanitizer_active
from repro.core.context import HwContext, RxState
from repro.core.walker import walk
from repro.net.packet import Packet
from repro.tcp import seq as sq

#: Per-state packet-counter names, precomputed: formatting an f-string
#: per received packet is measurable at datacenter flow counts.
_RX_STATE_COUNTERS = {state: f"nic.rx.pkts.{state.value}" for state in RxState}


class RxEngine:
    """Per-NIC receive offload engine.

    The two ablation knobs correspond to the design choices DESIGN.md
    calls out: ``enable_boundary_resync`` is the deterministic Figure-8b
    re-lock; ``enable_speculation`` is the Figure-7 searching/tracking
    machinery.  With both off, any out-of-sequence packet permanently
    stops offloading for the flow (the strawman).
    """

    def __init__(self, nic):
        self.nic = nic
        self.enable_boundary_resync = True
        self.enable_speculation = True
        # Per-state packet counters as epoch-batched cells, resolved once
        # per engine: the steady-state cost per packet is one dict lookup
        # and an integer add (flushed at every snapshot — PR 7 contract).
        self._state_cells = None

    # ------------------------------------------------------------------
    def process(self, ctx: HwContext, pkt: Packet) -> None:
        if not pkt.payload:
            return
        self.nic.cache.access(ctx)
        self.nic.pcie.count("rx-packet", len(pkt.payload))
        obs = self.nic.obs
        if obs is not None:
            cells = self._state_cells
            if cells is None:
                cells = self._state_cells = {
                    state: obs.cell(name) for state, name in _RX_STATE_COUNTERS.items()
                }
            cells[ctx.rx_state].value += 1
        if ctx.rx_state == RxState.OFFLOADING:
            self._offloading(ctx, pkt)
        elif ctx.rx_state == RxState.SEARCHING:
            ctx.pkts_bypassed += 1
            self._search(ctx, pkt)
        else:  # TRACKING
            ctx.pkts_bypassed += 1
            self._track(ctx, pkt)

    # ------------------------------------------------------------------
    # Figure 7: the offloading state
    # ------------------------------------------------------------------
    def _offloading(self, ctx: HwContext, pkt: Packet) -> None:
        end = sq.add(pkt.seq, len(pkt.payload))
        if pkt.seq == ctx.expected_seq:
            result = walk(ctx, pkt.payload, emit=True)
            san = _sanitizer_active()
            if san is not None:
                san.rx_walk(ctx, len(pkt.payload), len(result.out))
            if result.desynced:
                # The stream no longer parses: lose the flow and recover.
                ctx.pkts_bypassed += 1
                ctx.adapter.on_disruption(ctx)
                ctx.enter_searching()
                return
            pkt.payload = result.out
            ctx.expected_seq = end
            ctx.pkts_offloaded += 1
            pkt.meta.offloaded = True
            ctx.adapter.apply_packet_meta(pkt.meta, processed=True, ok=result.all_ok)
            return
        if sq.lt(pkt.seq, ctx.expected_seq):
            ctx.pkts_bypassed += 1
            if sq.le(end, ctx.expected_seq):
                # Retransmission of the past (Figure 8a): bypass entirely.
                return
            # Partially past: the tail beyond expected_seq is *new* stream
            # bytes (e.g. a retransmission cut at a different boundary, or
            # the packet across a post-resync resume point).  Walk just
            # that suffix in tracking mode so the context keeps pace; the
            # packet itself is not offloaded (its metadata covers stale
            # bytes too).
            ctx.adapter.on_disruption(ctx)
            skip = sq.sub(ctx.expected_seq, pkt.seq)
            result = walk(ctx, pkt.payload[skip:], emit=False)
            if result.desynced:
                ctx.enter_searching()
                return
            ctx.expected_seq = end
            return
        boundary = ctx.next_boundary_seq() if self.enable_boundary_resync else None
        if boundary is not None and sq.le(pkt.seq, boundary) and sq.lt(boundary, end):
            # Figure 8b: this packet contains the next message header —
            # re-lock deterministically. Bytes of the current (torn)
            # message are skipped; the new message is walked in tracking
            # mode so *later* packets can be offloaded mid-message.
            ctx.pkts_bypassed += 1
            ctx.boundary_resyncs += 1
            obs = self.nic.obs
            if obs is not None:
                obs.count("nic.rx.boundary_resyncs")
                obs.event("boundary-resync", lane=f"ctx/{ctx.ctx_id}", cat="resync", boundary=boundary)
            ctx.adapter.on_disruption(ctx)
            skip = sq.sub(boundary, pkt.seq)
            ctx.msg_index += 1  # the torn message still counts as "previous"
            ctx.reset_to_header()
            result = walk(ctx, pkt.payload[skip:], emit=False)
            if result.desynced:
                ctx.enter_searching()
                return
            ctx.expected_seq = end
            return
        if boundary is not None and sq.lt(pkt.seq, boundary):
            # Hole within the current message, boundary still ahead
            # (Figure 8b's P2-missing case before the header shows up):
            # ignore and keep waiting for the boundary.
            ctx.pkts_bypassed += 1
            ctx.adapter.on_disruption(ctx)
            return
        # The stream jumped past the known boundary (Figure 8c): recover.
        ctx.pkts_bypassed += 1
        ctx.adapter.on_disruption(ctx)
        ctx.enter_searching()
        self._search(ctx, pkt)

    # ------------------------------------------------------------------
    # Figure 7: speculative searching
    # ------------------------------------------------------------------
    def _search(self, ctx: HwContext, pkt: Packet) -> None:
        if not self.enable_speculation:
            return  # ablation: the flow stays un-offloaded forever
        end = sq.add(pkt.seq, len(pkt.payload))
        if sq.le(end, ctx.expected_seq):
            # Retransmission entirely from the known past (Figure 8a
            # applies in every state): bypass without scanning.  Those
            # bytes were already delivered; speculating on them could get
            # a stale header position confirmed and rewind the context.
            return
        base, buffer = ctx.scan_buffer_for(pkt.seq, pkt.payload)
        # A packet straddling expected_seq is scanned only from the first
        # byte the context has not yet accounted for, for the same reason.
        start = sq.sub(ctx.expected_seq, base)
        self._scan_from(ctx, base, buffer, end, start_at=max(start, 0))

    def _scan_from(self, ctx: HwContext, base: int, buffer: bytes, pkt_end: int, start_at: int) -> None:
        adapter = ctx.adapter
        magic_len, header_len = adapter.magic_len, adapter.header_len
        check_magic, static_state = adapter.check_magic, ctx.static_state
        i = start_at
        limit = len(buffer)
        while i + magic_len <= limit:
            if not check_magic(buffer[i : i + magic_len], static_state):
                i += 1
                continue
            if i + header_len > limit:
                # Candidate straddles the packet edge: carry the tail and
                # resume if the next packet is contiguous.
                ctx.save_scan_tail(pkt_end, buffer, keep=limit - i)
                return
            desc = adapter.parse_header(buffer[i : i + header_len], static_state)
            if desc is None:
                i += 1
                continue
            # Speculation: ask software to confirm this header position.
            spec_seq = sq.add(base, i)
            ctx.rx_state = RxState.TRACKING
            ctx.speculation_seq = spec_seq
            ctx.track_next = sq.add(spec_seq, desc.total_len)
            ctx.tracked_msgs = 1
            self.nic.driver.request_resync(ctx, spec_seq)
            # Keep tracking inside the same buffer.
            self._track_in_buffer(ctx, base, buffer, pkt_end)
            return
        ctx.save_scan_tail(pkt_end, buffer, keep=magic_len - 1)

    # ------------------------------------------------------------------
    # Figure 7: tracking while waiting for software confirmation
    # ------------------------------------------------------------------
    def _track(self, ctx: HwContext, pkt: Packet) -> None:
        base, buffer = ctx.scan_buffer_for(pkt.seq, pkt.payload)
        end = sq.add(pkt.seq, len(pkt.payload))
        if sq.le(end, ctx.track_next):
            # Entirely before the next expected header: a retransmission
            # of already-tracked bytes; nothing to verify.  The saved
            # cross-packet tail (if any) must survive this packet.
            return
        if sq.gt(base, ctx.track_next):
            # We missed the bytes where the next header should have been:
            # the speculation chain is broken (d1).
            ctx.enter_searching()
            self._search_buffer(ctx, base, buffer, end)
            return
        self._track_in_buffer(ctx, base, buffer, end)

    def _track_in_buffer(self, ctx: HwContext, base: int, buffer: bytes, pkt_end: int) -> None:
        adapter = ctx.adapter
        while True:
            offset = sq.sub(ctx.track_next, base)
            if offset >= len(buffer):
                tail_from = max(0, len(buffer) - (adapter.header_len - 1))
                ctx.save_scan_tail(pkt_end, buffer, keep=len(buffer) - tail_from)
                return
            if offset + adapter.header_len > len(buffer):
                ctx.save_scan_tail(pkt_end, buffer, keep=len(buffer) - offset)
                return
            header = buffer[offset : offset + adapter.header_len]
            desc = None
            if adapter.check_magic(header[: adapter.magic_len], ctx.static_state):
                desc = adapter.parse_header(header, ctx.static_state)
            if desc is None:
                # Unexpected pattern at a tracked boundary (d1).
                ctx.enter_searching()
                self._scan_from(ctx, base, buffer, pkt_end, start_at=offset + 1)
                return
            ctx.track_next = sq.add(ctx.track_next, desc.total_len)
            ctx.tracked_msgs += 1

    def _search_buffer(self, ctx: HwContext, base: int, buffer: bytes, pkt_end: int) -> None:
        self._scan_from(ctx, base, buffer, pkt_end, start_at=0)

    # ------------------------------------------------------------------
    # Figure 7: software confirmation (c -> d1/d2)
    # ------------------------------------------------------------------
    def resync_response(self, ctx: HwContext, tcpsn: int, result: bool, msg_index: int) -> str:
        """Apply a software confirmation; returns the outcome —
        ``"stale"`` / ``"denied"`` / ``"confirmed"`` — so the driver's
        degradation logic can count failures without peeking at state."""
        if ctx.rx_state != RxState.TRACKING or ctx.speculation_seq != tcpsn:
            return "stale"  # the machine has moved on
        if not result:
            ctx.enter_searching()
            return "denied"
        # d2: resume offloading from the next tracked message boundary.
        ctx.expected_seq = ctx.track_next
        ctx.msg_index = msg_index + ctx.tracked_msgs
        ctx.rx_state = RxState.OFFLOADING
        ctx.speculation_seq = None
        ctx.track_next = None
        ctx.tracked_msgs = 0
        ctx.reset_to_header()
        ctx.resyncs_completed += 1
        return "confirmed"
