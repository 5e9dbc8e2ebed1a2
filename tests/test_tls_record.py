"""TLS record layer unit tests: header formats, the adapter's magic
pattern, nonce derivation, and transforms."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.core.types import Direction
from repro.crypto.suite import XorGcmSuite
from repro.l5p.tls.record import (
    HEADER_LEN,
    MAX_PLAINTEXT,
    TAG_LEN,
    TlsAdapter,
    TlsDirectionState,
    VERSION,
    make_header,
    record_nonce,
)

STATE = TlsDirectionState(suite=XorGcmSuite(), key=b"\x01" * 16, iv=b"\x02" * 12)


class TestHeader:
    def test_make_header_fields(self):
        h = make_header(23, 1000)
        assert h[0] == 23
        assert int.from_bytes(h[1:3], "big") == VERSION
        assert int.from_bytes(h[3:5], "big") == 1000

    def test_adapter_parses_valid(self):
        desc = TlsAdapter().parse_header(make_header(23, 500 + TAG_LEN), STATE)
        assert desc.body_len == 500
        assert desc.trailer_len == TAG_LEN
        assert desc.total_len == HEADER_LEN + 500 + TAG_LEN

    @pytest.mark.parametrize(
        "header",
        [
            bytes([99]) + make_header(23, 100)[1:],  # bad type
            make_header(23, 100)[:1] + b"\x02\x00" + make_header(23, 100)[3:],  # bad version
            struct.pack(">BHH", 23, VERSION, TAG_LEN - 1),  # too short for a tag
            struct.pack(">BHH", 23, VERSION, MAX_PLAINTEXT + TAG_LEN + 1),  # too long
        ],
    )
    def test_adapter_rejects_invalid(self, header):
        assert TlsAdapter().parse_header(header, STATE) is None

    def test_make_header_refuses_what_would_not_parse(self):
        for content_type, length in ((99, 100), (23, TAG_LEN - 1), (23, MAX_PLAINTEXT + TAG_LEN + 1)):
            with pytest.raises(ValueError):
                make_header(content_type, length)

    def test_magic_is_full_header_check(self):
        adapter = TlsAdapter()
        assert adapter.magic_len == HEADER_LEN
        assert adapter.check_magic(make_header(23, 100), STATE)
        assert not adapter.check_magic(b"GET /", STATE)


class TestNonce:
    def test_xors_sequence_number(self):
        iv = bytes(range(12))
        assert record_nonce(iv, 0) == iv
        n1 = record_nonce(iv, 1)
        assert n1[-1] == iv[-1] ^ 1
        assert n1[:-1] == iv[:-1]

    @given(a=st.integers(0, 2**32), b=st.integers(0, 2**32))
    def test_distinct_records_distinct_nonces(self, a, b):
        iv = b"\x55" * 12
        if a != b:
            assert record_nonce(iv, a) != record_nonce(iv, b)


class TestTransforms:
    def test_tx_then_rx_round_trip(self):
        adapter = TlsAdapter()
        body = b"record body" * 30
        header = make_header(23, len(body) + TAG_LEN)
        desc = adapter.parse_header(header, STATE)
        tx = adapter.begin_message(Direction.TX, STATE, desc, msg_index=3)
        ciphertext = tx.process(body)
        tag = tx.finalize_tx()
        assert len(ciphertext) == len(body)
        assert ciphertext != body

        rx = adapter.begin_message(Direction.RX, STATE, desc, msg_index=3)
        assert rx.process(ciphertext) == body
        assert rx.verify_rx(tag)

    def test_wrong_msg_index_fails_verification(self):
        adapter = TlsAdapter()
        body = b"x" * 100
        header = make_header(23, len(body) + TAG_LEN)
        desc = adapter.parse_header(header, STATE)
        tx = adapter.begin_message(Direction.TX, STATE, desc, msg_index=0)
        ciphertext = tx.process(body)
        tag = tx.finalize_tx()
        rx = adapter.begin_message(Direction.RX, STATE, desc, msg_index=1)  # wrong seq
        rx.process(ciphertext)
        assert not rx.verify_rx(tag)

    def test_packet_meta_combines_processed_and_ok(self):
        from repro.net.packet import SkbMeta

        adapter = TlsAdapter()
        meta = SkbMeta()
        adapter.apply_packet_meta(meta, processed=True, ok=True, desc_kinds=[])
        assert meta.decrypted
        meta = SkbMeta()
        adapter.apply_packet_meta(meta, processed=True, ok=False, desc_kinds=[])
        assert not meta.decrypted
