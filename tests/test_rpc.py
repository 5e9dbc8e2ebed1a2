"""RPC L5P tests: TLV codec, framing/adapter, end-to-end calls with and
without the response copy+CRC offload, fault resilience."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_pair
from repro.crypto.crc import Crc32c
from repro.l5p.rpc import RpcClient, RpcConfig, RpcServer, decode, encode
from repro.l5p.rpc import frame as F
from repro.l5p.rpc.endpoint import RpcError
from repro.nic import OffloadNic

VALUES = [
    None,
    True,
    False,
    0,
    -1,
    2**40,
    -(2**40),
    3.14159,
    b"raw bytes",
    "unicode ☃ text",
    [1, "two", [3, None]],
    {"key": "value", "n": [1, 2, 3], "deep": {"x": b"y"}},
]


class TestCodec:
    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__ + str(v)[:12])
    def test_round_trip(self, value):
        assert decode(encode(value)) == value

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode(encode(42) + b"\x00")

    def test_truncation_rejected(self):
        data = encode({"a": [1, 2, 3]})
        with pytest.raises(ValueError):
            decode(data[:-2])

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            encode(object())

    json_like = st.recursive(
        st.none() | st.booleans() | st.integers() | st.binary(max_size=40) | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=20,
    )

    @settings(max_examples=80, deadline=None)
    @given(value=json_like)
    def test_round_trip_property(self, value):
        assert decode(encode(value)) == value


class TestFraming:
    def test_frame_round_trip(self):
        payload = encode({"hello": "world"})
        wire = F.make_frame(F.TYPE_REQUEST, 7, 3, payload, Crc32c)
        header = F.FRAME.parse(wire[: F.HEADER_LEN])
        assert header[1:] == (F.TYPE_REQUEST, 7, 3, len(payload))
        assert wire[F.HEADER_LEN : F.HEADER_LEN + header.payload_len] == payload
        assert F.FRAME.total_len(wire[: F.HEADER_LEN]) == len(wire)

    def test_bad_headers_rejected(self):
        assert F.FRAME.parse(b"XX" + bytes(11)) is None
        wire = F.make_frame(F.TYPE_RESPONSE, 1, 1, b"x", Crc32c)
        bad_type = wire[:2] + b"\x09" + wire[3:]
        assert F.FRAME.parse(bad_type[: F.HEADER_LEN]) is None


def rpc_pair(client_cfg=None, seed=0, **link_kwargs):
    pair = make_pair(seed=seed, client_nic=OffloadNic(), server_nic=OffloadNic(), **link_kwargs)
    server = RpcServer(pair.server, port=7000)
    server.register(1, lambda args: args)  # echo
    server.register(2, lambda args: {"sum": sum(args)})
    server.register(3, lambda args: b"\xab" * args["n"])  # bulk payload

    def boom(args):
        raise RpcError("deliberate failure")

    server.register(9, boom)
    client = RpcClient(pair.client, "server", port=7000, config=client_cfg)
    return pair, client, server


OFFLOAD = RpcConfig(rx_offload_crc=True, rx_offload_copy=True)


class TestRpcEndToEnd:
    def test_echo_call(self):
        pair, client, server = rpc_pair()
        results = []
        client.call(1, {"msg": "hello"}, lambda v, lat: results.append((v, lat)))
        pair.sim.run(until=1.0)
        assert results[0][0] == {"msg": "hello"}
        assert results[0][1] > 0

    def test_many_concurrent_calls(self):
        pair, client, server = rpc_pair()
        results = {}
        for i in range(50):
            client.call(2, [i, i, i], lambda v, lat, i=i: results.__setitem__(i, v))
        pair.sim.run(until=2.0)
        assert results == {i: {"sum": 3 * i} for i in range(50)}

    def test_error_propagates(self):
        pair, client, server = rpc_pair()
        results = []
        client.call(9, None, lambda v, lat: results.append(v))
        client.call(42, None, lambda v, lat: results.append(v))  # unknown method
        pair.sim.run(until=1.0)
        assert all(isinstance(v, RpcError) for v in results)
        assert len(results) == 2

    def test_offloaded_bulk_responses_placed(self):
        pair, client, server = rpc_pair(client_cfg=OFFLOAD)
        results = []
        for _ in range(10):
            client.call(3, {"n": 100_000}, lambda v, lat: results.append(v))
        pair.sim.run(until=2.0)
        assert len(results) == 10
        assert all(v == b"\xab" * 100_000 for v in results)
        assert client.stats["placed"] == 10
        assert client.stats["software"] == 0
        # Copy/CRC cycles skipped on the client.
        cats = pair.client.cpu.cycles_by_category()
        assert cats.get("copy", 0) == 0 and cats.get("crc", 0) == 0

    def test_offload_saves_cycles_vs_software(self):
        def client_cycles(cfg):
            pair, client, server = rpc_pair(client_cfg=cfg, seed=4)
            done = []
            for _ in range(10):
                client.call(3, {"n": 200_000}, lambda v, lat: done.append(1))
            pair.sim.run(until=3.0)
            assert len(done) == 10
            return pair.client.cpu.cycles_by_category()

        offload = client_cycles(OFFLOAD)
        software = client_cycles(None)
        # Copy+CRC vanish entirely; deserialization remains in software
        # (the paper leaves it as §7 future work), so the total shrinks
        # by the per-byte copy+crc share.
        assert offload.get("copy", 0) == 0 and offload.get("crc", 0) == 0
        assert software["copy"] > 0 and software["crc"] > 0
        assert sum(offload.values()) < sum(software.values()) * 0.85

    def test_offload_survives_loss(self):
        pair, client, server = rpc_pair(client_cfg=OFFLOAD, seed=6, loss_to_client=0.02)
        results = []
        for _ in range(15):
            client.call(3, {"n": 60_000}, lambda v, lat: results.append(v))
        pair.sim.run(until=10.0)
        assert len(results) == 15
        assert all(v == b"\xab" * 60_000 for v in results)
        # Some responses fell back to software copy+CRC, none were lost.
        assert client.stats["software"] > 0
        assert client.stats["errors"] == 0

    def test_oversized_response_falls_back(self):
        cfg = RpcConfig(rx_offload_crc=True, rx_offload_copy=True, max_response=1024)
        pair, client, server = rpc_pair(client_cfg=cfg)
        results = []
        client.call(3, {"n": 50_000}, lambda v, lat: results.append(v))  # > max_response
        pair.sim.run(until=2.0)
        assert results == [b"\xab" * 50_000]
        assert client.stats["software"] == 1  # placement skipped, SW path
