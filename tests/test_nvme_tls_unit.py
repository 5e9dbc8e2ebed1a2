"""Unit tests for the stacked NVMe-TLS adapter (§5.3)."""


from repro.core.context import HwContext
from repro.core.types import Direction, TxMsgState
from repro.core.walker import walk
from repro.crypto.crc import Crc32c
from repro.l5p.nvme_tcp import pdu as P
from repro.l5p.nvme_tcp.pdu import NvmeConfig
from repro.l5p.nvme_tls import NvmeTlsAdapter, PlainTxMap
from repro.l5p.tls.record import TAG_LEN, TlsDirectionState, make_header
from repro.crypto.suite import XorGcmSuite
from repro.net.packet import FlowKey, SkbMeta

STATE = TlsDirectionState(suite=XorGcmSuite(), key=b"\x07" * 16, iv=b"\x08" * 12)
FLOW = FlowKey("a", 1, "b", 2)


def nvme_cfg(**kw):
    defaults = dict(digest_name="crc32c", tx_offload=True, rx_offload_crc=True, rx_offload_copy=True)
    defaults.update(kw)
    return NvmeConfig(**defaults)


def build_pdu(data: bytes, cid=1, offset=0, dummy=False) -> bytes:
    return b"".join(
        P.build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(cid, offset, len(data)), data, Crc32c, True, dummy_digest=dummy)
    )


def tls_wrap_plain(body: bytes) -> bytes:
    """A plaintext record with dummy tag, as kTLS hands down in offload
    mode (record body carries the inner NVMe bytes)."""
    return make_header(23, len(body) + TAG_LEN) + body + b"\x00" * TAG_LEN


class TestStackedTx:
    def test_tx_fills_inner_crc_then_encrypts(self):
        adapter = NvmeTlsAdapter(nvme_cfg())
        ctx = HwContext(1, FLOW, Direction.TX, adapter, STATE, tcpsn=0)
        data = b"D" * 300
        pdu = build_pdu(data, dummy=True)  # CRC left for the NIC
        record = tls_wrap_plain(pdu)
        result = walk(ctx, record)
        assert result.completed == 1

        # Decrypt what went on the wire and check the inner CRC is real.
        rx_adapter = NvmeTlsAdapter(nvme_cfg())
        rx_ctx = HwContext(2, FLOW, Direction.RX, rx_adapter, STATE, tcpsn=0)
        rx = walk(rx_ctx, result.out)
        assert rx.all_ok
        inner_plain = rx.out[5 : 5 + len(pdu)]
        assert inner_plain[-4:] == Crc32c(data).digest()

    def test_tx_recovery_repositions_inner(self):
        adapter = NvmeTlsAdapter(nvme_cfg())
        tx_map = PlainTxMap()
        adapter.inner_tx_ops = tx_map
        ctx = HwContext(1, FLOW, Direction.TX, adapter, STATE, tcpsn=0)
        data = b"E" * 500
        pdu = build_pdu(data, dummy=True)
        tx_map.track(0, pdu)
        record = tls_wrap_plain(pdu)
        full = walk(ctx, record).out

        # Recover as the TX engine would: reposition at the record start
        # and replay a prefix, then produce the rest.
        ctx2 = HwContext(3, FLOW, Direction.TX, adapter, STATE, tcpsn=0)
        adapter2 = adapter  # same adapter instance owns the inner walker
        ctx2.adapter = adapter2
        state = TxMsgState(start_seq=0, msg_index=0, wire_bytes=record, info={"plain_offset": 0})
        adapter2.prepare_tx_recovery(ctx2, state)
        out = walk(ctx2, record).out
        assert out == full

    def test_missing_inner_map_disables_inner(self):
        adapter = NvmeTlsAdapter(nvme_cfg())
        ctx = HwContext(1, FLOW, Direction.TX, adapter, STATE, tcpsn=0)
        state = TxMsgState(start_seq=0, msg_index=0, wire_bytes=b"", info={"plain_offset": 7})
        adapter.prepare_tx_recovery(ctx, state)  # no inner_tx_ops set
        assert not adapter.inner_enabled(Direction.TX)
        assert adapter.inner_disables == 1


class TestStackedRx:
    def encrypt_record(self, pdu: bytes, msg_index=0) -> bytes:
        tx = NvmeTlsAdapter(nvme_cfg())
        ctx = HwContext(9, FLOW, Direction.TX, tx, STATE, tcpsn=0)
        ctx.msg_index = msg_index
        return walk(ctx, tls_wrap_plain(pdu)).out

    def test_rx_decrypts_verifies_and_places(self):
        data = b"F" * 400
        buffer = bytearray(400)
        wire = self.encrypt_record(build_pdu(data, cid=3, dummy=True))
        adapter = NvmeTlsAdapter(nvme_cfg())
        ctx = HwContext(4, FLOW, Direction.RX, adapter, STATE, tcpsn=0)
        ctx.rr_state[3] = buffer
        result = walk(ctx, wire)
        assert result.all_ok
        assert bytes(buffer) == data  # placed by the inner walker
        meta = SkbMeta()
        adapter.apply_packet_meta(meta, processed=True, ok=True)
        assert meta.decrypted and meta.crc_ok and meta.placed

    def test_disruption_disables_inner_but_tls_continues(self):
        data = b"G" * 200
        wire1 = self.encrypt_record(build_pdu(data, cid=1, dummy=True), msg_index=0)
        adapter = NvmeTlsAdapter(nvme_cfg())
        ctx = HwContext(5, FLOW, Direction.RX, adapter, STATE, tcpsn=0)
        adapter.on_disruption(ctx)
        assert not adapter.inner_enabled(Direction.RX)
        result = walk(ctx, wire1)
        assert result.all_ok  # TLS still verifies
        meta = SkbMeta()
        adapter.apply_packet_meta(meta, processed=True, ok=True)
        assert meta.decrypted
        assert not meta.crc_ok and not meta.placed  # inner is off

    def test_pdu_spanning_records(self):
        data = b"H" * 3000
        pdu = build_pdu(data, cid=2, dummy=True)
        adapter_tx = NvmeTlsAdapter(nvme_cfg())
        ctx_tx = HwContext(6, FLOW, Direction.TX, adapter_tx, STATE, tcpsn=0)
        # Split the PDU across two TLS records.
        half = len(pdu) // 2
        stream = tls_wrap_plain(pdu[:half]) + tls_wrap_plain(pdu[half:])
        wire = walk(ctx_tx, stream).out

        buffer = bytearray(3000)
        adapter_rx = NvmeTlsAdapter(nvme_cfg())
        ctx_rx = HwContext(7, FLOW, Direction.RX, adapter_rx, STATE, tcpsn=0)
        ctx_rx.rr_state[2] = buffer
        result = walk(ctx_rx, wire)
        assert result.all_ok
        assert result.completed == 2
        assert bytes(buffer) == data


class TestPlainTxMap:
    def test_lookup_and_prune(self):
        m = PlainTxMap()
        m.track(0, b"a" * 100)
        m.track(100, b"b" * 50)
        assert m.nvme_get_tx_msgstate(120).start_seq == 100
        assert m.nvme_get_tx_msgstate(99).msg_index == 0
        assert m.nvme_get_tx_msgstate(150) is None
        m.prune(100)
        assert m.nvme_get_tx_msgstate(50) is None
        assert m.nvme_get_tx_msgstate(120) is not None
