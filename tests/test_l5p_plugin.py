"""L5Protocol registry tests: loud failures, declaration validation,
the driver-level gate, testbed resolution, and the hypothesis property
that a protocol's magic spec never misses its own valid frames."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_pair
from repro.core.types import Direction, L5pAdapter
from repro.crypto.crc import Crc32c
from repro.harness.testbed import Testbed, TestbedConfig
from repro.l5p import plugin
from repro.l5p.http2 import frame as H2
from repro.l5p.nvme_tcp import pdu as P
from repro.l5p.resp import frame as RESP
from repro.l5p.rpc import frame as RPC
from repro.l5p.tls import record as TLS
from repro.l5p import decomp as DC
from repro.l5p import dpi as DPI
from repro.nic import OffloadNic

BUILTINS = {"decomp", "dpi", "http2", "nvme-tcp", "nvme-tls", "resp", "rpc", "tls"}

GOOD_MAGIC = plugin.MagicSpec(pattern=b"\xd1\xd9", mask=b"\xff\xff", confidence=1e-4)
ALL_TRUE = plugin.Table3Preconditions(
    size_preserving=True,
    incremental_constant_state=True,
    header_plaintext_length=True,
    magic_identifiable=True,
    state_from_msg_index=True,
)


class _FakeAdapter(L5pAdapter):
    name = "fake"
    header_len = 7
    magic_len = 2


def fake_proto(**overrides):
    fields = dict(
        name="fake",
        header_len=7,
        magic=GOOD_MAGIC,
        preconditions=ALL_TRUE,
        factory=_FakeAdapter,
    )
    fields.update(overrides)
    return plugin.L5Protocol(**fields)


class TestMagicSpec:
    def test_tcam_match_semantics(self):
        spec = plugin.MagicSpec(pattern=b"\x14\x03", mask=b"\xfc\xff", confidence=0.5)
        assert spec.matches(b"\x14\x03")
        assert spec.matches(b"\x17\x03\xff")  # low bits masked out; extra bytes ignored
        assert not spec.matches(b"\x18\x03")  # high bits differ
        assert not spec.matches(b"\x14")  # window shorter than the pattern

    def test_pattern_mask_length_mismatch(self):
        with pytest.raises(plugin.PluginError, match="length mismatch"):
            plugin.MagicSpec(pattern=b"\x01\x02", mask=b"\xff", confidence=0.5)

    def test_empty_pattern(self):
        with pytest.raises(plugin.PluginError, match="non-empty"):
            plugin.MagicSpec(pattern=b"", mask=b"", confidence=0.5)

    def test_all_zero_mask(self):
        with pytest.raises(plugin.PluginError, match="matches everything"):
            plugin.MagicSpec(pattern=b"\x01", mask=b"\x00", confidence=0.5)

    @pytest.mark.parametrize("confidence", [0.0, -1.0, 1.5])
    def test_bad_confidence(self, confidence):
        with pytest.raises(plugin.PluginError, match="confidence"):
            plugin.MagicSpec(pattern=b"\x01", mask=b"\xff", confidence=confidence)


class TestDeclarationValidation:
    def test_unsatisfied_precondition_rejected(self):
        proto = fake_proto(preconditions=plugin.Table3Preconditions(size_preserving=True))
        with pytest.raises(plugin.PluginError, match="Table 3"):
            plugin.register(proto)

    def test_missing_lists_unsatisfied_rows(self):
        pre = plugin.Table3Preconditions(size_preserving=True, magic_identifiable=True)
        assert pre.missing() == [
            "incremental_constant_state",
            "header_plaintext_length",
            "state_from_msg_index",
        ]
        assert ALL_TRUE.missing() == []

    def test_uppercase_name_rejected(self):
        with pytest.raises(plugin.PluginError, match="lowercase"):
            fake_proto(name="Fake").validate()

    def test_factory_name_mismatch(self):
        with pytest.raises(plugin.PluginError, match="named 'fake'"):
            fake_proto(name="other").validate()

    def test_header_len_mismatch(self):
        with pytest.raises(plugin.PluginError, match="header_len"):
            fake_proto(header_len=99).validate()

    def test_magic_longer_than_header(self):
        wide = plugin.MagicSpec(pattern=b"\x00" * 8, mask=b"\xff" * 8, confidence=0.5)
        with pytest.raises(plugin.PluginError, match="exceeds header_len"):
            fake_proto(header_len=4, magic=wide).validate()

    def test_magic_spec_must_cover_adapter_window(self):
        one = plugin.MagicSpec(pattern=b"\xd1", mask=b"\xff", confidence=0.5)
        with pytest.raises(plugin.PluginError, match="scans 2B windows"):
            fake_proto(magic=one).validate()


class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTINS <= set(plugin.names())

    def test_duplicate_registration_fails_loudly(self):
        plugin.ensure_builtins()
        with pytest.raises(plugin.PluginError, match="already registered"):
            plugin.register(plugin.get("tls"))

    def test_unknown_lookup_fails_loudly(self):
        with pytest.raises(plugin.PluginError, match="unknown L5 protocol 'nonesuch'"):
            plugin.get("nonesuch")

    def test_unknown_unregister_fails_loudly(self):
        with pytest.raises(plugin.PluginError, match="cannot unregister"):
            plugin.unregister("nonesuch")

    def test_register_unregister_round_trip(self):
        proto = plugin.register(fake_proto())
        try:
            assert plugin.get("fake") is proto
            assert isinstance(plugin.make_adapter("fake"), _FakeAdapter)
        finally:
            plugin.unregister("fake")
        with pytest.raises(plugin.PluginError):
            plugin.get("fake")

    def test_make_adapter_returns_fresh_instances(self):
        assert plugin.make_adapter("tls") is not plugin.make_adapter("tls")

    def test_resolve_rejects_duplicates(self):
        with pytest.raises(plugin.PluginError, match="listed twice"):
            plugin.resolve(("tls", "tls"))

    def test_magic_spec_lookup(self):
        plugin.ensure_builtins()
        assert plugin.magic_spec("tls") is plugin.get("tls").magic
        assert plugin.magic_spec("nonesuch") is None

    def test_every_builtin_revalidates(self):
        for proto in plugin.registered():
            proto.validate()  # idempotent; exercises the factory probe


class TestDriverGate:
    def test_l5o_create_rejects_unregistered_adapter(self):
        class Rogue(L5pAdapter):
            name = "rogue"
            header_len = 4
            magic_len = 2

        driver = OffloadNic().driver
        with pytest.raises(plugin.PluginError, match="unknown L5 protocol 'rogue'"):
            driver.l5o_create(
                object(), Rogue(), None, tcpsn=0, direction=Direction.RX, l5p_ops=None
            )

    def test_l5o_create_accepts_registered_adapter(self):
        pair = make_pair(client_nic=OffloadNic(), server_nic=OffloadNic())
        conn = pair.client.tcp.connect("server", 4000)
        ctx = pair.client.nic.driver.l5o_create(
            conn,
            plugin.make_adapter("tls"),
            None,
            tcpsn=conn.rcv_nxt,
            direction=Direction.RX,
            l5p_ops=None,
        )
        assert ctx is not None


class TestTestbedResolution:
    def test_protocols_resolved_at_construction(self):
        bed = Testbed(TestbedConfig(protocols=("tls", "resp")))
        assert set(bed.protocols) == {"tls", "resp"}
        assert bed.protocols["resp"].header_len == RESP.HEADER_LEN

    def test_unknown_protocol_fails_before_first_packet(self):
        with pytest.raises(plugin.PluginError, match="unknown L5 protocol"):
            Testbed(TestbedConfig(protocols=("tls", "nonesuch")))

    def test_duplicate_protocol_fails(self):
        with pytest.raises(plugin.PluginError, match="listed twice"):
            Testbed(TestbedConfig(protocols=("tls", "tls")))

    def test_empty_protocols_is_dont_care(self):
        assert Testbed(TestbedConfig()).protocols == {}


def _assert_own_frame_recognized(name: str, frame: bytes) -> None:
    """A protocol's magic spec and full check_magic must both accept the
    header of every frame the protocol itself can emit (the mask is a
    necessary condition: supersets allowed, misses never)."""
    proto = plugin.get(name)
    adapter = proto.factory()
    header = frame[: adapter.header_len]
    assert proto.magic.matches(header)
    assert adapter.check_magic(header[: adapter.magic_len], None)
    assert adapter.parse_header(header, None) is not None


class TestMagicNeverMissesOwnFrames:
    @given(
        content_type=st.sampled_from(sorted(TLS.VALID_TYPES)),
        length=st.integers(TLS.TAG_LEN, TLS.MAX_PLAINTEXT + TLS.TAG_LEN),
    )
    @settings(max_examples=60, deadline=None)
    def test_tls(self, content_type, length):
        import struct

        header = struct.pack(">BHH", content_type, TLS.VERSION, length)
        _assert_own_frame_recognized("tls", header)

    @given(cid=st.integers(0, 0xFFFF), status=st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_nvme_tcp(self, cid, status):
        (pdu,) = P.build_pdu(P.TYPE_CAPSULE_RESP, P.make_cqe(cid, status), b"", Crc32c, False)
        _assert_own_frame_recognized("nvme-tcp", pdu)

    @given(
        rpc_id=st.integers(0, 2**32 - 1),
        method_id=st.integers(0, 2**16 - 1),
        payload=st.binary(max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_rpc(self, rpc_id, method_id, payload):
        frame = RPC.make_frame(RPC.TYPE_REQUEST, rpc_id, method_id, payload, Crc32c)
        _assert_own_frame_recognized("rpc", frame)

    @given(plain=st.binary(min_size=1, max_size=128))
    @settings(max_examples=40, deadline=None)
    def test_decomp(self, plain):
        _assert_own_frame_recognized("decomp", DC.make_message(plain, Crc32c))

    @given(body=st.binary(max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_dpi(self, body):
        _assert_own_frame_recognized("dpi", DPI.make_message(body))

    @given(
        stream_id=st.integers(0, 2**30 - 1).map(lambda n: n * 2 + 1),
        payload=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_http2_data(self, stream_id, payload):
        frame = H2.make_frame(H2.TYPE_DATA, H2.FLAG_FCS, stream_id, payload, Crc32c)
        _assert_own_frame_recognized("http2", frame)

    @given(payload=st.binary(max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_resp(self, payload):
        _assert_own_frame_recognized("resp", RESP.make_frame(payload))
