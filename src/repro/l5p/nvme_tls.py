"""NVMe-TLS: the composed offload (§5.3).

"NIC HW parsing starts from Ethernet, and proceeds to parse TLS then
NVMe-TCP on transmit and receive": the stacked adapter is a TLS adapter
whose record transforms pipe record bodies through an *inner* NVMe
walker.  On transmit the inner walker fills data digests before the
outer transform encrypts; on receive the outer transform decrypts and
the inner walker verifies digests and places C2HData payloads.

OoS recovery is performed independently per protocol:

- TX: the TLS record replay repositions the outer cipher; before the
  replay, :meth:`NvmeTlsAdapter.prepare_tx_recovery` repositions the
  inner walker at the PDU covering the record's plaintext offset using
  the NVMe software's own message map.
- RX: a byte gap in the decrypted stream cannot be bridged by the inner
  walker (its PDU position is lost), so a disruption disables inner
  offloading for the flow and software performs copies/CRC from then on.
  The paper's evaluation exercises the combined offload only on clean
  links (Figures 14–15), where no disruption occurs; see DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

from repro.core.context import HwContext
from repro.core.types import Direction, MsgTransform, TxMsgState
from repro.core.walker import walk
from repro.l5p import plugin
from repro.l5p.base import TxLog
from repro.l5p.nvme_tcp.pdu import NvmeAdapter, NvmeConfig
from repro.l5p.tls.record import TlsAdapter
from repro.net.packet import FlowKey
from repro.tcp import seq as sq

_INNER_FLOW = FlowKey("inner", 0, "inner", 0)


class PlainTxMap(TxLog):
    """The TX log of an NVMe endpoint that rides kTLS, as inner TX
    recovery sees it: PDUs keyed by the TLS plaintext-stream offset they
    start at instead of a TCP sequence number; the covering PDU's prefix
    is replayed from here."""

    nvme_get_tx_msgstate = TxLog.lookup


def over_tls(endpoint, conn, role: str, tls_config):
    """Carry an NVMe-TCP ``endpoint`` over a kTLS socket on ``conn``.

    With either TLS offload on, the socket gets the stacked adapter and
    the endpoint's TX log doubles as the adapter's inner message map.
    Returns the socket; it owns the HW contexts (see
    :class:`~repro.l5p.base.StreamEndpoint`)."""
    from repro.l5p.tls.ktls import KtlsSocket

    adapter = None
    if tls_config.tx_offload or tls_config.rx_offload:
        adapter = plugin.make_adapter("nvme-tls", nvme_config=endpoint.config)
        endpoint._tx = adapter.inner_tx_ops = PlainTxMap()
    ktls = KtlsSocket(endpoint.host, conn, role, tls_config, adapter=adapter)
    endpoint._attach(conn, lower=ktls)
    return ktls


class _StackedTransform(MsgTransform):
    """One TLS record's transform with the inner NVMe walker piped in."""

    def __init__(self, adapter: "NvmeTlsAdapter", outer: MsgTransform, direction: Direction):
        self.adapter = adapter
        self.outer = outer
        self.direction = direction

    def process(self, data: bytes) -> bytes:
        if self.direction == Direction.TX:
            inner_out = self.adapter.inner_walk(Direction.TX, data)
            return self.outer.process(inner_out)
        plain = self.outer.process(data)
        return self.adapter.inner_walk(Direction.RX, plain)

    def track(self, data: bytes) -> None:
        # Tracking mode: outer state must advance; the inner walker is
        # already disabled by the disruption that led here.
        self.outer.track(data)

    def finalize_tx(self) -> bytes:
        return self.outer.finalize_tx()

    def verify_rx(self, wire_trailer: bytes) -> bool:
        return self.outer.verify_rx(wire_trailer)


class NvmeTlsAdapter(TlsAdapter):
    """TLS records outside, NVMe-TCP PDUs inside.  One instance per
    connection direction pair (it owns the inner walker state)."""

    name = "nvme-tls"

    def __init__(self, nvme_config: NvmeConfig):
        self.nvme_config = nvme_config
        self._inner: dict[Direction, HwContext] = {}
        self._inner_enabled: dict[Direction, bool] = {Direction.TX: True, Direction.RX: True}
        self._pkt_inner_ok = True
        self._pkt_inner_touched = False
        self.inner_tx_ops: Optional[PlainTxMap] = None
        self.inner_disables = 0
        # The TLS HW context's rr_state (shared with the inner walker so
        # l5o_add_rr_state CID registrations reach placement).
        self._shared_rr: dict = {}

    # ------------------------------------------------------------------
    # inner walker management
    # ------------------------------------------------------------------
    def _inner_ctx(self, direction: Direction) -> HwContext:
        ctx = self._inner.get(direction)
        if ctx is None:
            place = direction == Direction.RX and self.nvme_config.rx_offload_copy
            inner_adapter = NvmeAdapter(self.nvme_config, place=place)
            ctx = HwContext(0, _INNER_FLOW, direction, inner_adapter, None, tcpsn=0)
            ctx.rr_state = self._shared_rr
            self._inner[direction] = ctx
        return ctx

    def inner_walk(self, direction: Direction, data: bytes) -> bytes:
        if not self._inner_enabled[direction]:
            return data
        ctx = self._inner_ctx(direction)
        result = walk(ctx, data, emit=True)
        if result.desynced:
            self._disable_inner(direction)
            return data
        self._pkt_inner_touched = True
        if not result.all_ok:
            self._pkt_inner_ok = False
        return result.out

    def _disable_inner(self, direction: Direction) -> None:
        if self._inner_enabled[direction]:
            self._inner_enabled[direction] = False
            self.inner_disables += 1

    def inner_enabled(self, direction: Direction) -> bool:
        return self._inner_enabled[direction]

    # ------------------------------------------------------------------
    # L5pAdapter interface
    # ------------------------------------------------------------------
    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        if rr_state is not None and rr_state is not self._shared_rr:
            # Adopt the HW context's rr_state as the CID -> buffer map.
            self._shared_rr.update(rr_state)
            self._shared_rr = rr_state
            for ctx in self._inner.values():
                ctx.rr_state = rr_state
        outer = super().begin_message(direction, static_state, desc, msg_index)
        return _StackedTransform(self, outer, direction)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        meta.decrypted = processed and ok
        inner_on = self._inner_enabled[Direction.RX]
        inner_ok = processed and ok and inner_on and self._pkt_inner_ok
        if self.nvme_config.rx_offload_crc:
            meta.crc_ok = inner_ok
        if self.nvme_config.rx_offload_copy:
            meta.placed = inner_ok
        self._pkt_inner_ok = True
        self._pkt_inner_touched = False

    def on_disruption(self, ctx) -> None:
        self._disable_inner(ctx.direction)

    def prepare_tx_recovery(self, ctx, state: TxMsgState) -> None:
        """Reposition the inner NVMe walker at the record's plaintext
        offset by replaying the covering PDU's prefix (§5.3)."""
        plain_offset = state.info.get("plain_offset")
        if plain_offset is None or self.inner_tx_ops is None:
            self._disable_inner(Direction.TX)
            return
        inner_state = self.inner_tx_ops.nvme_get_tx_msgstate(plain_offset)
        if inner_state is None:
            self._disable_inner(Direction.TX)
            return
        inner = self._inner_ctx(Direction.TX)
        inner.reset_to_header()
        inner.msg_index = inner_state.msg_index
        prefix_len = sq.sub(plain_offset, inner_state.start_seq)
        if prefix_len < 0 or prefix_len > len(inner_state.wire_bytes):
            self._disable_inner(Direction.TX)
            return
        if prefix_len:
            walk(inner, memoryview(inner_state.wire_bytes)[:prefix_len], emit=True)
        self._inner_enabled[Direction.TX] = True


#: Outer framing is TLS, so the stacked adapter inherits the TLS frame.
PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="nvme-tls",
        frame=NvmeTlsAdapter.frame,
        confidence=1e-4,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="TLS records outside, NVMe-TCP PDUs inside (§5.3); "
            "recovery is performed independently per layer",
        ),
        factory=lambda nvme_config=None, **kw: NvmeTlsAdapter(
            nvme_config or NvmeConfig(), **kw
        ),
        description="Stacked NVMe-TCP-over-TLS offload (both layers autonomous)",
    )
)
