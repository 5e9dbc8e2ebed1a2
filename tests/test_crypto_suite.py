"""Cipher-suite abstraction tests: both suites honor the same contract."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AuthenticationError
from repro.crypto.suite import AesGcmSuite, XorGcmSuite, get_cipher_suite

SUITES = [AesGcmSuite, XorGcmSuite]


@pytest.fixture(params=SUITES, ids=lambda cls: cls.name)
def suite(request):
    return request.param()


KEY = b"\x11" * 16
NONCE = b"\x22" * 12


class TestContract:
    def test_round_trip(self, suite):
        data = b"the quick brown fox" * 20
        ct, tag = suite.seal(KEY, NONCE, data, aad=b"hdr")
        assert len(ct) == len(data)  # size-preserving
        assert len(tag) == suite.tag_size
        assert suite.open(KEY, NONCE, ct, tag, aad=b"hdr") == data

    def test_ciphertext_differs_from_plaintext(self, suite):
        data = b"a" * 64
        ct, _ = suite.seal(KEY, NONCE, data)
        assert ct != data

    def test_incremental_matches_one_shot(self, suite):
        data = bytes(range(256)) * 8
        one_ct, one_tag = suite.seal(KEY, NONCE, data)
        enc = suite.encryptor(KEY, NONCE)
        ct = b"".join(enc.update(data[i : i + 333]) for i in range(0, len(data), 333))
        assert ct == one_ct
        assert enc.finalize() == one_tag

    def test_incremental_decrypt(self, suite):
        data = b"record contents" * 50
        ct, tag = suite.seal(KEY, NONCE, data)
        dec = suite.decryptor(KEY, NONCE)
        pt = b"".join(dec.update(ct[i : i + 100]) for i in range(0, len(ct), 100))
        dec.finalize(tag)
        assert pt == data

    def test_corruption_detected(self, suite):
        ct, tag = suite.seal(KEY, NONCE, b"payload" * 10)
        corrupted = bytes([ct[5] ^ 0xFF]) + ct[1:5] + bytes([ct[0]]) + ct[6:]
        with pytest.raises(AuthenticationError):
            suite.open(KEY, NONCE, corrupted, tag)

    def test_wrong_key_detected(self, suite):
        ct, tag = suite.seal(KEY, NONCE, b"payload" * 10)
        with pytest.raises(AuthenticationError):
            suite.open(b"\x99" * 16, NONCE, ct, tag)

    def test_wrong_nonce_detected(self, suite):
        ct, tag = suite.seal(KEY, NONCE, b"payload" * 10)
        with pytest.raises(AuthenticationError):
            suite.open(KEY, b"\x33" * 12, ct, tag)

    def test_nonce_changes_ciphertext(self, suite):
        data = b"\x00" * 128
        ct1, _ = suite.seal(KEY, b"\x01" * 12, data)
        ct2, _ = suite.seal(KEY, b"\x02" * 12, data)
        assert ct1 != ct2

    @settings(max_examples=20, deadline=None)
    @given(data=st.binary(min_size=0, max_size=400))
    def test_round_trip_property(self, data):
        for suite in (AesGcmSuite(), XorGcmSuite()):
            ct, tag = suite.seal(KEY, NONCE, data)
            assert suite.open(KEY, NONCE, ct, tag) == data


class TestBufferProtocol:
    """The NIC walker and the partial-record fallback hand the suites
    ``memoryview`` slices of packet payloads, cut wherever a packet
    ends — not on a cipher block."""

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.binary(min_size=1, max_size=600),
        aad=st.binary(min_size=0, max_size=21),
        sizes=st.lists(st.integers(min_value=1, max_value=97), min_size=1, max_size=8),
    )
    def test_view_chunks_match_one_shot_bytes(self, data, aad, sizes):
        def chunks(buf):
            view, i, k = memoryview(buf), 0, 0
            while i < len(view):
                yield view[i : i + sizes[k % len(sizes)]]
                i += sizes[k % len(sizes)]
                k += 1

        for suite in (AesGcmSuite(), XorGcmSuite()):
            ct, tag = suite.seal(KEY, NONCE, data, aad=aad)
            enc = suite.encryptor(KEY, NONCE, aad=memoryview(aad))
            assert b"".join(enc.update(c) for c in chunks(data)) == ct
            assert enc.finalize() == tag
            dec = suite.decryptor(KEY, NONCE, aad=memoryview(aad))
            assert b"".join(dec.update(c) for c in chunks(ct)) == data
            dec.finalize(memoryview(tag))
            # Fallback shape: absorb already-encrypted views, then tag.
            absorb = suite.encryptor(KEY, NONCE, aad=memoryview(aad))
            for c in chunks(ct):
                absorb.absorb_ciphertext(c)
            assert absorb.finalize() == tag

    def test_view_tag_mismatch_still_detected(self, suite):
        ct, tag = suite.seal(KEY, NONCE, b"payload" * 10)
        dec = suite.decryptor(KEY, NONCE)
        dec.update(memoryview(ct))
        with pytest.raises(AuthenticationError):
            dec.finalize(memoryview(bytes(len(tag))))


class TestRegistry:
    def test_get_by_name(self):
        assert isinstance(get_cipher_suite("aes-gcm"), AesGcmSuite)
        assert isinstance(get_cipher_suite("xor-gcm"), XorGcmSuite)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            get_cipher_suite("rot13")


class TestSuiteEquivalence:
    """The fast suite must be interchangeable with the real one from the
    protocol machinery's point of view."""

    def test_same_interface_shape(self):
        real, fast = AesGcmSuite(), XorGcmSuite()
        for s in (real, fast):
            assert s.tag_size == 16
            assert s.nonce_size == 12
            assert s.key_size == 16
