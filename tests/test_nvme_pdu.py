"""NVMe/TCP PDU unit tests: wire formats, parsing, and the adapter."""

import pytest
from hypothesis import given, strategies as st

from repro.core.types import Direction
from repro.crypto.crc import Crc32c
from repro.l5p.nvme_tcp import pdu as P
from repro.l5p.nvme_tcp.pdu import NvmeAdapter, NvmeConfig
from repro.net.packet import SkbMeta


def build_pdu(*args, **kwargs) -> bytes:
    """The PDU as it appears on the wire: the gather list joined."""
    return b"".join(P.build_pdu(*args, **kwargs))


class TestWireFormats:
    def test_sqe_round_trip(self):
        sqe = P.make_sqe(P.OPC_READ, cid=7, slba=123456789, length=65536)
        assert len(sqe) == P.PSH_LEN[P.TYPE_CAPSULE_CMD]
        assert P.parse_sqe(sqe) == (P.OPC_READ, 7, 123456789, 65536)

    def test_cqe_round_trip(self):
        cqe = P.make_cqe(cid=300, status=1)
        assert len(cqe) == P.PSH_LEN[P.TYPE_CAPSULE_RESP]
        assert P.parse_cqe(cqe) == (300, 1)

    def test_data_psh_round_trip(self):
        psh = P.make_data_psh(cid=9, data_offset=4096, data_len=8192)
        assert P.parse_data_psh(psh) == (9, 4096, 8192)

    def test_build_pdu_with_digest(self):
        data = b"payload" * 100
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 0, len(data)), data, Crc32c, True)
        assert P.CH.total_len(pdu[:8]) == len(pdu)
        assert pdu[-4:] == Crc32c(data).digest()

    def test_build_pdu_dummy_digest(self):
        data = b"x" * 50
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 0, 50), data, Crc32c, True, dummy_digest=True)
        assert pdu[-4:] == b"\x00\x00\x00\x00"

    def test_build_pdu_is_a_gather_list_around_the_callers_data(self):
        data = b"payload" * 100
        head, body, digest = P.build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 0, len(data)), data, Crc32c, True)
        assert body is data  # referenced, not copied
        assert len(head) == P.CH_LEN + P.PSH_LEN[P.TYPE_C2H_DATA] and digest == Crc32c(data).digest()
        view = memoryview(data)[7:70]
        assert P.build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 7, 63), view, Crc32c, False)[1] is view
        assert len(P.build_pdu(P.TYPE_CAPSULE_RESP, P.make_cqe(1, 0), b"", Crc32c, True)) == 1

    def test_no_digest_without_data(self):
        pdu = build_pdu(P.TYPE_CAPSULE_RESP, P.make_cqe(1, 0), b"", Crc32c, True)
        assert len(pdu) == P.CH_LEN + P.PSH_LEN[P.TYPE_CAPSULE_RESP]

    def test_total_len_rejects_junk(self):
        with pytest.raises(ValueError):
            P.CH.total_len(b"\xff" * 8)  # bad type
        good = P.make_ch(P.TYPE_C2H_DATA, 100, False)
        bad_hlen = good[:2] + b"\x05" + good[3:]
        with pytest.raises(ValueError):
            P.CH.total_len(bad_hlen)

    def test_wrong_psh_length_rejected(self):
        with pytest.raises(ValueError):
            build_pdu(P.TYPE_CAPSULE_CMD, b"short", b"", Crc32c, False)


def make_adapter(place=False):
    return NvmeAdapter(NvmeConfig(), place=place)


class TestNvmeAdapter:
    def test_parse_header(self):
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 0, 1000), b"d" * 1000, Crc32c, True)
        desc = make_adapter().parse_header(pdu[:8], None)
        assert desc is not None
        assert desc.header_len == 8
        assert desc.trailer_len == 4
        assert desc.total_len == len(pdu)

    def test_magic_accepts_valid_rejects_noise(self):
        adapter = make_adapter()
        pdu = build_pdu(P.TYPE_CAPSULE_RESP, P.make_cqe(1, 0), b"", Crc32c, False)
        assert adapter.check_magic(pdu[:8], None)
        assert not adapter.check_magic(b"\xde\xad\xbe\xef\xde\xad\xbe\xef", None)
        assert not adapter.check_magic(b"\x04", None)  # too short

    def test_transform_digest_tx(self):
        adapter = make_adapter()
        data = bytes(range(256)) * 4
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 0, len(data)), data, Crc32c, True)
        desc = adapter.parse_header(pdu[:8], None)
        t = adapter.begin_message(Direction.TX, None, desc, 0, rr_state={})
        body = pdu[8:-4]
        assert t.process(body) == body  # digests never change bytes
        assert t.finalize_tx() == Crc32c(data).digest()

    def test_transform_verify_rx(self):
        adapter = make_adapter()
        data = b"blockdata" * 77
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(2, 0, len(data)), data, Crc32c, True)
        desc = adapter.parse_header(pdu[:8], None)
        t = adapter.begin_message(Direction.RX, None, desc, 0, rr_state={})
        t.process(pdu[8:-4])
        assert t.verify_rx(pdu[-4:])

    def test_placement_writes_registered_buffer(self):
        adapter = make_adapter(place=True)
        data = b"Z" * 500
        buffer = bytearray(1000)
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(5, 100, len(data)), data, Crc32c, True)
        desc = adapter.parse_header(pdu[:8], None)
        t = adapter.begin_message(Direction.RX, None, desc, 0, rr_state={5: buffer})
        # Feed in dribbles to exercise the PSH/data split logic.
        body = pdu[8:-4]
        for i in range(0, len(body), 13):
            t.process(body[i : i + 13])
        assert bytes(buffer[100:600]) == data
        assert adapter.place_failures == 0

    def test_placement_missing_cid_flags_failure(self):
        adapter = make_adapter(place=True)
        data = b"Z" * 10
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(42, 0, 10), data, Crc32c, True)
        desc = adapter.parse_header(pdu[:8], None)
        t = adapter.begin_message(Direction.RX, None, desc, 0, rr_state={})
        t.process(pdu[8:-4])
        assert adapter.place_failures == 1
        meta = SkbMeta()
        adapter.apply_packet_meta(meta, processed=True, ok=True, desc_kinds=[])
        assert meta.placed is False

    def test_placement_out_of_bounds_rejected(self):
        adapter = make_adapter(place=True)
        buffer = bytearray(100)
        data = b"Z" * 200  # bigger than the buffer
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 0, 200), data, Crc32c, True)
        desc = adapter.parse_header(pdu[:8], None)
        t = adapter.begin_message(Direction.RX, None, desc, 0, rr_state={1: buffer})
        t.process(pdu[8:-4])
        assert adapter.place_failures == 1
        assert bytes(buffer) == b"\x00" * 100  # untouched

    @given(data=st.binary(min_size=0, max_size=400), chop=st.integers(min_value=1, max_value=50))
    def test_incremental_digest_any_chunking(self, data, chop):
        adapter = make_adapter()
        pdu = build_pdu(P.TYPE_C2H_DATA, P.make_data_psh(1, 0, len(data)), data, Crc32c, bool(data))
        desc = adapter.parse_header(pdu[:8], None)
        if desc.trailer_len == 0:
            return
        t = adapter.begin_message(Direction.RX, None, desc, 0, rr_state={})
        body = pdu[8:-4]
        for i in range(0, len(body), chop):
            t.process(body[i : i + chop])
        assert t.verify_rx(pdu[-4:])
