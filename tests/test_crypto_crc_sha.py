"""CRC32/CRC32C and SHA-1/HMAC validated against published vectors."""

import hashlib
import hmac as std_hmac
import random
import zlib

import pytest
from hypothesis import given, strategies as st

import repro.crypto.crc as crc_module
from repro.crypto.crc import (
    _STEP,
    _TABLE_C,
    _TABLE_IEEE,
    Crc32c,
    FastCrc,
    _crc_bytewise,
    _odd_bytes,
    crc32,
    crc32c,
    get_digest,
)
from repro.crypto.sha1 import hmac_sha1, sha1


class TestCrc32c:
    def test_check_value(self):
        # The canonical CRC32C check value (RFC 3720 appendix / catalog).
        assert crc32c(b"123456789") == 0xE3069283

    def test_iscsi_all_zero_vector(self):
        # RFC 3720 B.4: 32 bytes of zero -> 0x8A9136AA.
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_iscsi_all_ff_vector(self):
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_iscsi_incrementing_vector(self):
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_empty(self):
        assert crc32c(b"") == 0

    @given(data=st.binary(max_size=500), split=st.integers(min_value=0, max_value=500))
    def test_streaming_equals_one_shot(self, data, split):
        split = min(split, len(data))
        assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)

    def test_incremental_class(self):
        d = Crc32c()
        d.update(b"12345")
        d.update(b"6789")
        assert d.intdigest() == 0xE3069283
        assert d.digest() == (0xE3069283).to_bytes(4, "little")

    def test_copy_is_independent(self):
        d = Crc32c(b"1234")
        clone = d.copy()
        d.update(b"junk")
        clone.update(b"56789")
        assert clone.intdigest() == 0xE3069283


class TestCrc32:
    @given(data=st.binary(max_size=500))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)


class TestBitMatrixProperty:
    """The bit-matrix CRC32C is bit-identical to the one-byte reference
    for every length, block boundary, incoming state, buffer type and
    stream chunking (docs/performance.md: a faster digest must never
    change one)."""

    @given(
        data=st.binary(max_size=2000),
        splits=st.lists(st.integers(min_value=0, max_value=2000), max_size=6),
    )
    def test_chunked_crc32c_equals_one_shot_equals_reference(self, data, splits):
        one_shot = crc32c(data)
        assert one_shot == _crc_bytewise(_TABLE_C, data, 0)
        crc = 0
        last = 0
        for split in sorted(min(s, len(data)) for s in splits) + [len(data)]:
            crc = crc32c(data[last:split], crc)
            last = split
        assert crc == one_shot

    @given(
        data=st.binary(max_size=2000),
        splits=st.lists(st.integers(min_value=0, max_value=2000), max_size=6),
    )
    def test_chunked_crc32_equals_one_shot_equals_zlib_fastcrc(self, data, splits):
        one_shot = crc32(data)
        assert one_shot == zlib.crc32(data)
        assert one_shot == _crc_bytewise(_TABLE_IEEE, data, 0)
        crc = 0
        fast = FastCrc()
        last = 0
        for split in sorted(min(s, len(data)) for s in splits) + [len(data)]:
            crc = crc32(data[last:split], crc)
            fast.update(data[last:split])
            last = split
        assert crc == one_shot == fast.intdigest()

    @given(data=st.binary(min_size=80, max_size=80), crc=st.integers(0, 0xFFFFFFFF))
    def test_every_length_0_to_80(self, data, crc):
        # 0-3 bytes are shorter than the state prefix; all lengths take
        # the same path and must agree with the reference.
        for end in range(len(data) + 1):
            assert crc32c(data[:end], crc) == _crc_bytewise(_TABLE_C, data[:end], crc)

    @given(data=st.binary(max_size=300), crc=st.integers(0, 0xFFFFFFFF))
    def test_bytes_bytearray_and_memoryview_slice_agree(self, data, crc):
        expected = _crc_bytewise(_TABLE_C, data, crc)
        framed = memoryview(b"head" + data + b"tail")[4 : 4 + len(data)]
        assert crc32c(data, crc) == crc32c(bytearray(data), crc) == crc32c(framed, crc) == expected

    def test_block_boundaries(self):
        # Lengths around one matrix block, and a multi-block buffer with a
        # partial last block, as bytes and as a memoryview slice.
        rng = random.Random(28)
        data = rng.randbytes(3 * _STEP + 7)
        crc = rng.getrandbits(32)
        for n in range(_STEP - 8, _STEP + 9):
            assert crc32c(data[:n], crc) == _crc_bytewise(_TABLE_C, data[:n], crc), n
        expected = _crc_bytewise(_TABLE_C, data, crc)
        assert crc32c(data, crc) == crc32c(memoryview(b"x" + data)[1:], crc) == expected

    def test_parity_fallback_path_matches_reference(self, monkeypatch):
        # The pre-3.10 popcount stand-in, driven through the one CRC path.
        monkeypatch.setattr(crc_module, "_popcount", _odd_bytes)
        rng = random.Random(39)
        for n in (0, 1, 3, 4, 5, 63, 1448, _STEP + 1):
            data = rng.randbytes(n)
            crc = rng.getrandbits(32)
            assert crc32c(data, crc) == _crc_bytewise(_TABLE_C, data, crc), n

    @given(v=st.one_of(st.integers(min_value=0), st.integers(min_value=0, max_value=1 << 20000)))
    def test_parity_fallback_matches_bin_count(self, v):
        assert _odd_bytes(v) & 1 == bin(v).count("1") & 1


class TestFastCrc:
    def test_matches_zlib(self):
        d = FastCrc()
        d.update(b"hello ")
        d.update(b"world")
        assert d.intdigest() == zlib.crc32(b"hello world")

    def test_detects_corruption(self):
        good = FastCrc(b"payload")
        bad = FastCrc(b"paYload")
        assert good.intdigest() != bad.intdigest()


class TestDigestRegistry:
    def test_lookup(self):
        assert get_digest("crc32c") is Crc32c
        assert get_digest("fast") is FastCrc

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_digest("md5")


class TestSha1:
    def test_rfc3174_vectors(self):
        assert sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"
        assert (
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex()
            == "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        )

    def test_empty(self):
        assert sha1(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"

    @given(data=st.binary(max_size=300))
    def test_matches_hashlib(self, data):
        assert sha1(data) == hashlib.sha1(data).digest()

    @given(key=st.binary(max_size=100), msg=st.binary(max_size=200))
    def test_hmac_matches_stdlib(self, key, msg):
        assert hmac_sha1(key, msg) == std_hmac.new(key, msg, hashlib.sha1).digest()
