"""The TCP connection state machine.

Implements enough of RFC 793/5681/6298 to generate realistic traffic
under loss and reordering: three-way handshake, cumulative ACKs with
delayed-ACK coalescing, duplicate-ACK generation on out-of-order
arrivals, fast retransmit/recovery (NewReno), retransmission timeouts
with exponential backoff, and flow control against the peer's window.

The connection knows nothing about offloads except that it carries an
optional ``tx_ctx_id`` tag on outgoing packets (set by the L5P through
the NIC driver, §4.2) and preserves per-packet ``SkbMeta`` on the
receive path.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from repro.net.packet import Buffer, FlowKey, MSS, Packet, Wire
from repro.sim.event import Event
from repro.tcp import seq as sq
from repro.tcp.buffer import ReassemblyQueue, SendBuffer, Skb
from repro.tcp.cc import RenoCc, RttEstimator, make_cc

# Connection states (subset of RFC 793).
CLOSED = "closed"
SYN_SENT = "syn-sent"
SYN_RECEIVED = "syn-received"
ESTABLISHED = "established"
FIN_WAIT = "fin-wait"
CLOSE_WAIT = "close-wait"

_DELAYED_ACK_S = 200e-6
_MAX_SYN_RETRIES = 6

#: Knuth's multiplicative-hash constant (2^32 / phi), used to spread
#: CRC-adjacent flows across the sequence space.
_ISS_HASH_MULTIPLIER = 2654435761


def _iss_for_flow(flow: FlowKey) -> int:
    """Deterministic initial sequence number derived from the 4-tuple."""
    return sq.wrap(zlib.crc32(repr(flow).encode()) * _ISS_HASH_MULTIPLIER)


class TcpConnection:
    """One direction-pair of a TCP conversation on a host."""

    def __init__(self, host, flow: FlowKey, passive: bool = False, iss: Optional[int] = None):
        self.host = host
        self.sim = host.sim
        self.flow = flow
        self.passive = passive
        self.state = CLOSED

        # --- send state ---
        self.iss = iss if iss is not None else _iss_for_flow(flow)
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.send_buffer = SendBuffer(self.iss, limit=host.tcp_send_buffer)
        cc_name = getattr(host, "tcp_congestion_control", "reno")
        self.cc = make_cc(cc_name, mss=MSS, clock=lambda: self.sim.now)
        self.rtt = RttEstimator()
        self.peer_wnd = 1 << 30
        self.dup_acks = 0
        self._sacked: list[tuple[int, int]] = []  # SACK scoreboard, merged
        self._high_rxt = self.iss  # highest seq retransmitted via SACK
        self._rto_timer: Optional[Event] = None
        self._rtt_probe: Optional[tuple[int, float]] = None  # (end_seq, sent_at)
        self._probe_valid = True
        self._fin_queued = False
        self._fin_sent = False

        # --- receive state ---
        self.irs = 0
        self.reassembly: Optional[ReassemblyQueue] = None
        self._ack_pending = 0
        self._ack_timer: Optional[Event] = None
        self._syn_retries = 0
        self._fin_received = False

        # --- offload hooks (set by the NIC driver on behalf of the L5P) ---
        self.tx_ctx_id: Optional[int] = None

        # --- application callbacks ---
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[Skb], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None

        # --- stats ---
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.retransmitted_packets = 0
        self.data_packets_sent = 0

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Active open: send SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"open() in state {self.state}")
        self.state = SYN_SENT
        self._send_syn()

    def _send_syn(self, synack: bool = False) -> None:
        pkt = Packet(self.flow, seq=self.iss, syn=True, ack_flag=synack)
        if synack:
            pkt.ack = self.rcv_nxt
        self.snd_nxt = sq.add(self.iss, 1)
        self.snd_una = self.iss
        self._transmit(pkt)
        self._arm_rto()

    def _accept_syn(self, pkt: Packet) -> None:
        """Passive side: record peer's ISS and answer SYN-ACK."""
        self.irs = pkt.seq
        self.reassembly = ReassemblyQueue(sq.add(pkt.seq, 1), window=self.host.tcp_recv_window)
        self.state = SYN_RECEIVED
        self._send_syn(synack=True)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    @property
    def rcv_nxt(self) -> int:
        return self.reassembly.rcv_nxt if self.reassembly else 0

    @property
    def flight(self) -> int:
        """Bytes in flight (sent but not cumulatively ACKed)."""
        return sq.sub(self.snd_nxt, self.snd_una)

    @property
    def send_space(self) -> int:
        return self.send_buffer.space

    def send(self, data: Wire) -> int:
        """Queue bytes (one buffer or a gather list of them) for
        transmission; returns how many were accepted."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT):
            raise RuntimeError(f"send() in state {self.state}")
        if self._fin_queued:
            raise RuntimeError("send() after close()")
        accepted = self.send_buffer.append(data)
        if accepted:
            self.pump()
        return accepted

    def pump(self) -> None:
        """Emit as many segments as congestion and flow control allow."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT):
            return
        window = min(self.cc.cwnd, self.peer_wnd)
        while True:
            unsent = sq.sub(self.send_buffer.end_seq, self.snd_nxt)
            budget = window - self.flight
            size = min(MSS, unsent, budget)
            if size <= 0:
                break
            payload = self.send_buffer.peek(self.snd_nxt, size)
            self._emit_data(self.snd_nxt, payload)
            self.snd_nxt = sq.add(self.snd_nxt, size)
        if self._fin_queued and not self._fin_sent and len(self.send_buffer) == 0 and self.flight == 0:
            self._emit_fin()
        if self.flight:
            self._arm_rto(only_if_unarmed=True)

    def _emit_data(self, seg_seq: int, payload: Buffer, retransmit: bool = False) -> None:
        pkt = Packet(
            self.flow,
            seq=seg_seq,
            ack=self.rcv_nxt,
            payload=payload,
            wnd=self._advertised_window(),
        )
        pkt.tx_ctx_id = self.tx_ctx_id
        self.bytes_sent += len(payload)
        self.data_packets_sent += 1
        if retransmit:
            self.retransmitted_packets += 1
            self._probe_valid = False
            obs = self.sim.obs
            if obs is not None:
                obs.count("tcp.retransmits")
                obs.count("tcp.retransmit_bytes", len(payload))
                obs.event(
                    "retransmit",
                    lane=f"tcp/{self.host.name}",
                    cat="tcp",
                    seq=seg_seq,
                    bytes=len(payload),
                )
        elif self._rtt_probe is None:
            self._rtt_probe = (sq.add(seg_seq, len(payload)), self.sim.now)
            self._probe_valid = True
        self._ack_sent()
        self._transmit(pkt)

    def _emit_fin(self) -> None:
        pkt = Packet(self.flow, seq=self.snd_nxt, ack=self.rcv_nxt, fin=True, wnd=self._advertised_window())
        self._fin_sent = True
        self.snd_nxt = sq.add(self.snd_nxt, 1)
        self.state = FIN_WAIT if self.state == ESTABLISHED else self.state
        self._ack_sent()
        self._transmit(pkt)
        self._arm_rto(only_if_unarmed=True)

    def _transmit(self, pkt: Packet) -> None:
        self.host.transmit_segment(self, pkt)

    def close(self) -> None:
        """Half-close after all queued data is sent and acknowledged."""
        if self.state in (CLOSED,):
            return
        self._fin_queued = True
        self.pump()

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------
    def _arm_rto(self, only_if_unarmed: bool = False) -> None:
        if self._rto_timer is not None:
            if only_if_unarmed:
                return
            self._rto_timer.cancel()
        self._rto_timer = self.sim.schedule(self.rtt.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.state == SYN_SENT or self.state == SYN_RECEIVED:
            self._syn_retries += 1
            if self._syn_retries > _MAX_SYN_RETRIES:
                self._abort()
                return
            self.rtt.backoff()
            self._send_syn(synack=self.state == SYN_RECEIVED)
            return
        if self.flight == 0:
            return
        obs = self.sim.obs
        if obs is not None:
            obs.count("tcp.timeouts")
            obs.event("rto", lane=f"tcp/{self.host.name}", cat="tcp", una=self.snd_una)
        self.cc.on_timeout(self.flight)
        self.rtt.backoff()
        self.dup_acks = 0
        self._sacked = []
        self._high_rxt = self.snd_una
        self._retransmit_head()
        self._arm_rto()

    def _retransmit_head(self) -> None:
        """Retransmit one MSS (or the FIN) from snd_una."""
        resend = min(MSS, sq.sub(self.send_buffer.end_seq, self.snd_una))
        if resend > 0:
            payload = self.send_buffer.peek(self.snd_una, resend)
            self._emit_data(self.snd_una, payload, retransmit=True)
        elif self._fin_sent and sq.lt(self.snd_una, self.snd_nxt):
            pkt = Packet(self.flow, seq=self.snd_una, ack=self.rcv_nxt, fin=True, wnd=self._advertised_window())
            self.retransmitted_packets += 1
            self._transmit(pkt)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_segment(self, pkt: Packet) -> None:
        """Process one arriving packet (already charged to the CPU)."""
        if pkt.rst:
            self._abort()
            return
        if self.state == SYN_SENT:
            if pkt.syn:
                self.irs = pkt.seq
                self.reassembly = ReassemblyQueue(sq.add(pkt.seq, 1), window=self.host.tcp_recv_window)
                if pkt.ack_flag and pkt.ack == self.snd_nxt:
                    self.snd_una = pkt.ack
                    self._established()
                    self._send_ack()
                else:  # simultaneous open (not exercised, but stay sane)
                    self.state = SYN_RECEIVED
                    self._send_ack()
            return
        if self.state == SYN_RECEIVED:
            if pkt.syn and not pkt.ack_flag:
                # Retransmitted SYN from the peer: re-answer.
                self._send_syn(synack=True)
                return
            if pkt.ack_flag and pkt.ack == self.snd_nxt:
                self.snd_una = pkt.ack
                self._established()
                # fall through: the ACK may carry data
            else:
                return
        if self.state == CLOSED:
            return
        if pkt.syn:
            # Stale SYN for an established connection: re-ACK.
            self._send_ack()
            return

        self._process_ack(pkt)
        if pkt.payload or pkt.fin:
            self._process_data(pkt)

    def _established(self) -> None:
        self.state = ESTABLISHED
        self._cancel_rto()
        # Re-base the send buffer past the SYN's phantom sequence byte.
        self.send_buffer = SendBuffer(self.snd_nxt, limit=self.host.tcp_send_buffer)
        self.peer_wnd = max(self.peer_wnd, 1)
        if self.on_established:
            self.on_established()

    # --- SACK scoreboard (simplified RFC 6675) ---
    def _update_scoreboard(self, blocks) -> None:
        ranges = list(self._sacked)
        for start, end in blocks:
            if sq.lt(start, self.snd_una):
                start = self.snd_una
            if sq.gt(end, start):
                ranges.append((start, end))
        ranges.sort(key=lambda r: sq.sub(r[0], self.snd_una))
        merged: list[tuple[int, int]] = []
        for start, end in ranges:
            if sq.le(end, self.snd_una):
                continue
            if merged and sq.le(start, merged[-1][1]):
                if sq.gt(end, merged[-1][1]):
                    merged[-1] = (merged[-1][0], end)
            else:
                merged.append((start, end))
        self._sacked = merged

    def _retransmit_holes(self) -> None:
        """Retransmit the next un-SACKed hole (one segment per ACK)."""
        if not self._sacked:
            self._retransmit_head()
            return
        start = self._high_rxt if sq.gt(self._high_rxt, self.snd_una) else self.snd_una
        for s_start, s_end in self._sacked:
            if sq.ge(start, s_start) and sq.lt(start, s_end):
                start = s_end  # inside a SACKed run: jump past it
        highest = self._sacked[-1][1]
        if sq.ge(start, highest):
            return  # no known hole left below the highest SACKed byte
        hole_end = highest
        for s_start, _s_end in self._sacked:
            if sq.gt(s_start, start):
                hole_end = s_start
                break
        size = min(MSS, sq.sub(hole_end, start), sq.sub(self.send_buffer.end_seq, start))
        if size <= 0:
            return
        payload = self.send_buffer.peek(start, size)
        self._high_rxt = sq.add(start, size)
        self._emit_data(start, payload, retransmit=True)

    # --- ACK clock ---
    def _process_ack(self, pkt: Packet) -> None:
        if not pkt.ack_flag:
            return
        self.peer_wnd = pkt.wnd
        if pkt.sack:
            self._update_scoreboard(pkt.sack)
        ack = pkt.ack
        if sq.gt(ack, self.snd_nxt):
            return  # acks data we never sent; ignore
        acked = sq.sub(ack, self.snd_una)
        if acked > 0:
            self.dup_acks = 0
            # A FIN occupies one phantom sequence byte past the buffer.
            fin_phantom = 1 if (self._fin_sent and ack == self.snd_nxt) else 0
            self.send_buffer.ack_to(sq.add(ack, -fin_phantom))
            self.snd_una = ack
            self.bytes_acked += acked
            if sq.lt(self._high_rxt, ack):
                self._high_rxt = ack
            self._sacked = [(s, e) for s, e in self._sacked if sq.gt(e, ack)]
            self._sample_rtt(ack)
            if self.cc.in_recovery:
                if sq.ge(ack, self.cc.recovery_point):
                    self.cc.exit_recovery()
                else:
                    self.cc.on_partial_ack(acked)
                    self._retransmit_holes()  # next hole (SACK-aware)
            else:
                self.cc.on_ack(acked)
            if self.flight == 0:
                self._cancel_rto()
            else:
                self._arm_rto()
            self.pump()
            if self.send_buffer.space > 0 and self.on_writable:
                self.on_writable()
            if self._fin_sent and ack == self.snd_nxt and self.state == FIN_WAIT:
                self._maybe_finished()
        elif acked == 0 and not pkt.payload and not pkt.syn and not pkt.fin and self.flight > 0:
            self.dup_acks += 1
            if self.cc.in_recovery:
                self.cc.on_dup_ack_in_recovery()
                self._retransmit_holes()
                self.pump()
            elif self.dup_acks == RenoCc.DUP_ACK_THRESHOLD:
                obs = self.sim.obs
                if obs is not None:
                    obs.count("tcp.fast_retransmits")
                self.cc.enter_recovery(self.flight, self.snd_nxt)
                self._retransmit_holes()
                self.pump()

    def _sample_rtt(self, ack: int) -> None:
        if self._rtt_probe is None:
            return
        end_seq, sent_at = self._rtt_probe
        if sq.ge(ack, end_seq):
            if self._probe_valid:
                self.rtt.sample(self.sim.now - sent_at)
            self._rtt_probe = None

    # --- data path ---
    def _process_data(self, pkt: Packet) -> None:
        if self.reassembly is None:
            return
        in_order = pkt.seq == self.reassembly.rcv_nxt
        ready = self.reassembly.insert(pkt.seq, pkt.payload, pkt.meta)
        for skb in ready:
            self.bytes_received += len(skb)
            if self.on_data:
                self.on_data(skb)
        if pkt.fin and not self._fin_received:
            fin_seq = sq.add(pkt.seq, len(pkt.payload))
            if fin_seq == self.reassembly.rcv_nxt and not self.reassembly.has_gap_data:
                self._fin_received = True
                self.reassembly.rcv_nxt = sq.add(self.reassembly.rcv_nxt, 1)
                if self.state == ESTABLISHED:
                    self.state = CLOSE_WAIT
                elif self._fin_sent and sq.ge(self.snd_una, self.snd_nxt):
                    self.state = CLOSED
                self._send_ack()
                if self.on_close:
                    self.on_close()
                return
        if not in_order or self.reassembly.has_gap_data:
            # Out-of-order or hole-filling arrival: immediate (dup) ACK.
            if not in_order:
                obs = self.sim.obs
                if obs is not None:
                    obs.count("tcp.ooo_arrivals")
            self._send_ack()
        else:
            self._ack_pending += 1
            if self._ack_pending >= 2:
                self._send_ack()
            elif self._ack_timer is None:
                self._ack_timer = self.sim.schedule(_DELAYED_ACK_S, self._on_ack_timer)

    def _maybe_finished(self) -> None:
        if self._fin_received:
            self.state = CLOSED
        self._cancel_rto()

    def abort(self) -> None:
        """Kill the connection immediately (no FIN exchange).  Used by
        the TOE-personality NIC reset: connection state that lived on
        the device is simply gone, so the connection dies with it."""
        if self.state == CLOSED:
            return
        self._abort()

    def _abort(self) -> None:
        self.state = CLOSED
        self._cancel_rto()
        if self._ack_timer:
            self._ack_timer.cancel()
            self._ack_timer = None
        if self.on_close:
            self.on_close()

    # --- ACK transmission ---
    def _advertised_window(self) -> int:
        if self.reassembly is None:
            return self.host.tcp_recv_window
        return max(0, self.reassembly.window - self.reassembly.buffered_bytes)

    def _send_ack(self) -> None:
        pkt = Packet(self.flow, seq=self.snd_nxt, ack=self.rcv_nxt, wnd=self._advertised_window())
        if self.reassembly is not None and self.reassembly.has_gap_data:
            pkt.sack = self.reassembly.sack_blocks()
        self._ack_sent()
        self._transmit(pkt)

    def _on_ack_timer(self) -> None:
        self._ack_timer = None
        if self._ack_pending:
            self._send_ack()

    def _ack_sent(self) -> None:
        self._ack_pending = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.flow.src}:{self.flow.sport}->{self.flow.dst}:{self.flow.dport} "
            f"{self.state} una={self.snd_una} nxt={self.snd_nxt} rcv={self.rcv_nxt}>"
        )
