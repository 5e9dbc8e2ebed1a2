"""L5Protocol registry tests: loud failures, declaration validation,
the driver-level gate, testbed resolution, and the properties every
registered FrameSpec owes: build and parse are inverses, the derived
TCAM mask never misses a header the spec can build, ``check_magic``
and ``parse_header`` agree, and the software stream cut agrees with the
NIC's parse."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toy_l5p  # registers "toy", the one frame with a narrow scan window
from helpers import make_pair
from repro.core.types import Direction, L5pAdapter
from repro.crypto.crc import Crc32c
from repro.harness.testbed import Testbed, TestbedConfig
from repro.l5p import plugin
from repro.l5p.base import StreamEndpoint
from repro.l5p.frame import FrameSpec
from repro.l5p.http2 import frame as H2
from repro.l5p.nvme_tcp import pdu as P
from repro.l5p.resp import frame as RESP
from repro.l5p.rpc import frame as RPC
from repro.l5p.tls import record as TLS
from repro.l5p.tls.ktls import KtlsSocket
from repro.l5p import decomp as DC
from repro.l5p import dpi as DPI
from repro.nic import OffloadNic

BUILTINS = {"decomp", "dpi", "http2", "nvme-tcp", "nvme-tls", "resp", "rpc", "tls"}

ALL_TRUE = plugin.Table3Preconditions(
    size_preserving=True,
    incremental_constant_state=True,
    state_from_msg_index=True,
)
FAKE_FRAME = FrameSpec(">2sBI", "magic kind length", length="length", const={"magic": b"\xd1\xd9"}, magic_len=2)
#: A header with a length field but nothing constant, enumerated or
#: reserved: its derived mask is all zeroes.
FEATURELESS = FrameSpec(">HH", "tag length", length="length")


class _FakeAdapter(L5pAdapter):
    name = "fake"
    frame = FAKE_FRAME


def fake_proto(**overrides):
    fields = dict(
        name="fake",
        frame=FAKE_FRAME,
        confidence=1e-4,
        preconditions=ALL_TRUE,
        factory=_FakeAdapter,
    )
    fields.update(overrides)
    return plugin.L5Protocol(**fields)


class TestMagicSpec:
    """The TCAM entry is derived from the frame, never written down."""

    def test_tcam_match_semantics(self):
        spec = FrameSpec(
            ">BBH", "type version length", length="length",
            const={"version": 3}, one_of={"type": (20, 21, 22, 23)}, magic_len=2,
        )
        assert (spec.pattern, spec.mask) == (b"\x14\x03", b"\xfc\xff")
        assert spec.matches(b"\x14\x03")
        assert spec.matches(b"\x17\x03\xff")  # low bits masked out; extra bytes ignored
        assert not spec.matches(b"\x18\x03")  # high bits differ
        assert not spec.matches(b"\x14")  # window shorter than the pattern
        # A mask may over-accept (kind 0 shares the toy kinds' high bits); the full check does not.
        assert toy_l5p.FRAME.matches(b"\xa5\x00") and toy_l5p.FRAME.parse(b"\xa5\x00\x00\x00") is None

    def test_all_zero_mask(self):
        assert not any(FEATURELESS.mask)
        with pytest.raises(plugin.PluginError, match="magic_identifiable"):
            plugin.register(fake_proto(frame=FEATURELESS))

    @pytest.mark.parametrize("confidence", [0.0, -1.0, 1.5])
    def test_bad_confidence(self, confidence):
        with pytest.raises(plugin.PluginError, match="confidence"):
            fake_proto(confidence=confidence).validate()


class TestDeclarationValidation:
    def test_unsatisfied_precondition_rejected(self):
        proto = fake_proto(preconditions=plugin.Table3Preconditions(size_preserving=True))
        with pytest.raises(plugin.PluginError, match="Table 3"):
            plugin.register(proto)

    def test_missing_lists_unsatisfied_rows(self):
        pre = plugin.Table3Preconditions(size_preserving=True)
        assert fake_proto(preconditions=pre, frame=FEATURELESS).missing() == [
            "incremental_constant_state",
            "state_from_msg_index",
            "magic_identifiable",
        ]
        assert fake_proto().missing() == []

    def test_uppercase_name_rejected(self):
        with pytest.raises(plugin.PluginError, match="lowercase"):
            fake_proto(name="Fake").validate()

    def test_factory_name_mismatch(self):
        with pytest.raises(plugin.PluginError, match="named 'fake'"):
            fake_proto(name="other").validate()

    def test_header_len_mismatch(self):
        wider = FrameSpec(">2sBQ", "magic kind length", length="length", const={"magic": b"\xd1\xd9"})
        with pytest.raises(plugin.PluginError, match="different frame"):
            fake_proto(frame=wider).validate()

    def test_magic_longer_than_header(self):
        for magic_len in (0, 8):
            with pytest.raises(ValueError, match="incoherent"):
                FrameSpec(">2sBI", "magic kind length", length="length", magic_len=magic_len)

    def test_layout_and_names_must_pair_up(self):
        with pytest.raises(ValueError, match="incoherent"):
            FrameSpec(">2sBI", "magic length", length="length")
        with pytest.raises(ValueError, match="incoherent"):
            FrameSpec(">BH", "kind length", length="length", counts="payload")


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

    def test_every_builtin_revalidates(self):
        for proto in plugin.registered():
            proto.validate()  # idempotent; exercises the factory probe


class TestDriverGate:
    def test_l5o_create_rejects_unregistered_adapter(self):
        class Rogue(L5pAdapter):
            name = "rogue"
            frame = FAKE_FRAME

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
        assert bed.protocols["resp"].frame is RESP.FRAME

    def test_unknown_protocol_fails_before_first_packet(self):
        with pytest.raises(plugin.PluginError, match="unknown L5 protocol"):
            Testbed(TestbedConfig(protocols=("tls", "nonesuch")))

    def test_duplicate_protocol_fails(self):
        with pytest.raises(plugin.PluginError, match="listed twice"):
            Testbed(TestbedConfig(protocols=("tls", "tls")))

    def test_empty_protocols_is_dont_care(self):
        assert Testbed(TestbedConfig()).protocols == {}


def _assert_own_frame_recognized(name: str, frame: bytes) -> None:
    """For every frame a protocol's own encoder emits: the derived mask
    and the full check accept its header (the mask is a necessary
    condition: supersets allowed, misses never), and both the NIC's
    parse and the frame's stream cut give the frame's real length."""
    proto = plugin.get(name)
    adapter = proto.factory()
    header = frame[: adapter.header_len]
    assert proto.frame.matches(header)
    assert adapter.check_magic(header[: adapter.magic_len], None)
    assert adapter.parse_header(header, None).total_len == proto.frame.total_len(header) == len(frame)


class TestMagicNeverMissesOwnFrames:
    @given(
        content_type=st.sampled_from(sorted(TLS.VALID_TYPES)),
        length=st.integers(TLS.TAG_LEN, TLS.MAX_PLAINTEXT + TLS.TAG_LEN),
    )
    @settings(max_examples=60, deadline=None)
    def test_tls(self, content_type, length):
        _assert_own_frame_recognized("tls", TLS.make_header(content_type, length) + bytes(length))

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


REGISTERED = sorted(BUILTINS | {"toy"})


def _nvme_check(f):
    hlen = P.CH_LEN + P.PSH_LEN[f["type"]]
    return {**f, "hlen": hlen, "plen": max(f["plen"], hlen + P.DDGST_LEN)}


def _http2_check(f):
    needs_stream = H2._NEEDS_STREAM.get(f["type"])
    if needs_stream is not None:
        f = {**f, "stream_id": f["stream_id"] | 1 if needs_stream else 0}
    return {**f, "flags": f["flags"] & H2._VALID_FLAGS.get(f["type"], 0)}


def _decomp_check(f):
    plain_len = f["plain_len"] % (DC.MAX_PLAIN + 1)
    return {**f, "plain_len": plain_len, "comp_len": min(f["comp_len"], DC._max_compressed(plain_len))}


#: What a frame's ``check`` callable demands of fields its tables leave free.
SATISFY_CHECK = {"nvme-tcp": _nvme_check, "http2": _http2_check, "decomp": _decomp_check}


@st.composite
def built_fields(draw, name):
    """Field values the named protocol's frame can build a header from,
    drawn from the frame's own tables."""
    spec = plugin.get(name).frame
    fields = {}
    for field, width in spec.widths.items():
        if field in spec.const:
            continue
        if field in spec.one_of:
            fields[field] = draw(st.sampled_from(sorted(spec.one_of[field])))
            continue
        top = (1 << 8 * width) - 1
        if field == spec.length and spec.max_len is not None:
            top = spec.max_len
        fields[field] = draw(st.integers(0, top)) & ~spec.zero_bits.get(field, 0)
    fields = SATISFY_CHECK.get(name, dict)(fields)
    try:
        spec.build(**fields)
    except ValueError:
        assume(False)  # e.g. a TLS length too short for the tag
    return fields


def _with_bit_flips(header: bytes) -> list:
    flips = [bytes(b ^ (1 << bit) if i == at else b for i, b in enumerate(header))
             for at in range(len(header)) for bit in range(8)]
    return [header] + flips


def _endpoints(name: str) -> list:
    """A bare instance of every endpoint class that speaks ``name``
    (importing the ``repro.l5p`` packages defines them all)."""
    found, todo = [], [StreamEndpoint]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.protocol == name and cls.__module__.split(".")[0] in ("repro", "toy_l5p"):
            endpoint = cls.__new__(cls)
            endpoint.frame = plugin.get(name).frame
            found.append(endpoint)
    return found


@pytest.mark.parametrize("name", REGISTERED)
class TestEveryRegisteredFrame:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_parse_inverts_build_and_the_mask_accepts_it(self, name, data):
        spec = plugin.get(name).frame
        fields = data.draw(built_fields(name))
        header = spec.build(**fields)
        parsed = spec.parse(header)
        assert parsed._asdict() == {**spec.const, **fields}
        assert spec.total_len(header) == spec.header_len + sum(spec.spans(parsed))
        assert spec.matches(header) and spec.matches(header[: spec.magic_len])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_check_magic_iff_parse_header(self, name, data):
        """One spec-driven parse: the magic check accepts exactly the
        headers the parse accepts — on built headers, on their one-bit
        corruptions and on seeded random windows."""
        adapter = plugin.get(name).factory()
        size = adapter.header_len
        noise = random.Random(f"windows:{name}").randbytes(512 + size)
        candidates = _with_bit_flips(adapter.frame.build(**data.draw(built_fields(name))))
        candidates += [noise[i : i + size] for i in range(512)]
        for header in candidates:
            assert adapter.check_magic(header, None) == (adapter.parse_header(header, None) is not None)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_software_cut_agrees_with_nic_parse(self, name, data):
        """``StreamEndpoint._total_len`` and the adapter's parse give one
        answer for every built header and every one-bit corruption of it.
        kTLS is the named exception: it cuts by the length range alone,
        so a corrupted type or version byte costs one record (an
        authentication failure), not the stream (a framing error)."""
        adapter = plugin.get(name).factory()
        endpoints = _endpoints(name)
        for header in _with_bit_flips(adapter.frame.build(**data.draw(built_fields(name)))):
            desc = adapter.parse_header(header, None)
            nic = desc.total_len if desc is not None else None
            for endpoint in endpoints:
                try:
                    cut = endpoint._total_len(header)
                except ValueError:
                    cut = None
                if isinstance(endpoint, KtlsSocket):
                    length = int.from_bytes(header[3:5], "big")
                    in_range = TLS.TAG_LEN <= length <= TLS.MAX_PLAINTEXT + TLS.TAG_LEN
                    assert cut == (TLS.HEADER_LEN + length if in_range else None)
                    assert nic in (None, cut)
                else:
                    assert cut == nic
