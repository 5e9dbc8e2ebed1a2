"""HTTP/2 L5P tests: frame codec, the FCS/placement adapter, and
end-to-end fetches with and without the offload, including loss."""

from helpers import make_pair
from repro.crypto.crc import Crc32c
from repro.l5p.http2 import Http2Client, Http2Config, Http2Server
from repro.l5p.http2 import frame as F
from repro.nic import OffloadNic

OFFLOAD = Http2Config(rx_offload_crc=True, rx_offload_copy=True)


class TestFraming:
    def test_frame_round_trip(self):
        wire = F.make_frame(F.TYPE_HEADERS, F.FLAG_END_HEADERS, 5, b"hello")
        length, ftype, flags, stream_id = F.FRAME.parse(wire[: F.HEADER_LEN])
        assert (length, ftype, flags, stream_id) == (5, F.TYPE_HEADERS, F.FLAG_END_HEADERS, 5)
        assert wire[F.HEADER_LEN :] == b"hello"

    def test_fcs_frame_carries_crc(self):
        body = b"payload bytes"
        wire = F.make_frame(F.TYPE_DATA, F.FLAG_FCS, 3, body, Crc32c)
        length, ftype, flags, _ = F.FRAME.parse(wire[: F.HEADER_LEN])
        assert length == len(body) + F.FCS_LEN
        assert wire[F.HEADER_LEN + len(body) :] == Crc32c(body).digest()

    def test_bad_headers_rejected(self):
        good = F.make_frame(F.TYPE_DATA, F.FLAG_FCS, 3, b"xxxx", Crc32c)[: F.HEADER_LEN]
        assert F.FRAME.parse(good) is not None
        # frame type out of range
        assert F.FRAME.parse(good[:3] + b"\x0a" + good[4:]) is None
        # reserved stream bit set
        assert F.FRAME.parse(good[:5] + b"\x80\x00\x00\x03") is None
        # undefined flag for the type
        assert F.FRAME.parse(good[:4] + b"\x40" + good[5:]) is None
        # DATA on stream 0
        assert F.FRAME.parse(good[:5] + b"\x00\x00\x00\x00") is None
        # SETTINGS with a stream id
        settings = F.make_frame(F.TYPE_SETTINGS, 0, 0, b"")[: F.HEADER_LEN]
        assert F.FRAME.parse(settings[:5] + b"\x00\x00\x00\x01") is None
        # length above MAX_FRAME
        assert F.FRAME.parse(b"\xff\xff\xff" + good[3:]) is None
        # FCS flag with a payload shorter than the CRC
        assert F.FRAME.parse(b"\x00\x00\x02" + good[3:]) is None


class TestHttp2EndToEnd:
    def fetch_all(self, config=None, seed=0, lengths=(40_000, 5_000, 123_456), **link):
        pair = make_pair(
            seed=seed, client_nic=OffloadNic(), server_nic=OffloadNic(), **link
        )
        Http2Server(pair.server, port=8080)
        client = Http2Client(pair.client, "server", port=8080, config=config)
        results = {}
        for length in lengths:
            sid = client.fetch(length, lambda body, lat, L=length: results.setdefault(L, body))
            assert sid % 2 == 1
        pair.sim.run(until=5.0)
        return pair, client, results

    def test_software_fetch(self):
        pair, client, results = self.fetch_all(config=None)
        assert set(results) == {40_000, 5_000, 123_456}
        for length, body in results.items():
            assert len(body) == length
        assert client.stats["placed_frames"] == 0
        assert client.stats["errors"] == 0

    def test_bodies_match_server_pattern(self):
        pair, client, results = self.fetch_all(config=OFFLOAD, lengths=(10_000,))
        body = results[10_000]
        assert body == bytes((1 + i) & 0xFF for i in range(10_000))  # stream 1

    def test_offload_places_every_frame(self):
        pair, client, results = self.fetch_all(config=OFFLOAD)
        assert len(results) == 3
        assert client.stats["data_frames"] > 0
        assert client.stats["placed_frames"] == client.stats["data_frames"]
        assert client.stats["software_frames"] == 0
        cats = pair.client.cpu.cycles_by_category()
        assert cats.get("copy", 0) == 0 and cats.get("crc", 0) == 0

    def test_offload_saves_cycles_vs_software(self):
        def cycles(config):
            pair, client, results = self.fetch_all(config=config, seed=3)
            assert len(results) == 3
            return pair.client.cpu.cycles_by_category()

        offload = cycles(OFFLOAD)
        software = cycles(None)
        assert software["copy"] > 0 and software["crc"] > 0
        assert sum(offload.values()) < sum(software.values()) * 0.85

    def test_offload_survives_loss(self):
        pair, client, results = self.fetch_all(
            config=OFFLOAD, seed=7, lengths=(80_000, 60_000, 50_000), loss_to_client=0.02
        )
        assert set(results) == {80_000, 60_000, 50_000}
        for length, body in results.items():
            assert len(body) == length
        assert client.stats["errors"] == 0
        # Loss disrupts the offload; some frames fall back to software,
        # and the NIC exercises the speculation/resync machinery.
        stats = pair.client.nic.offload_stats()
        assert stats["resync_requests"] + client.stats["software_frames"] > 0

    def test_control_frames_interleave(self):
        pair, client, results = self.fetch_all(config=OFFLOAD, lengths=(200_000,))
        # A 200 KB body spans many chunks: WINDOW_UPDATE frames were
        # interleaved (trailerless control frames walked by the NIC).
        assert client.stats["data_frames"] > F.MAX_FRAME // 4096
        assert results[200_000] is not None
