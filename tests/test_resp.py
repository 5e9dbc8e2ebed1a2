"""RESP L5P tests: fixed-width envelope, key steering, and end-to-end
pipelined commands with and without NIC receive-queue steering."""

from helpers import make_pair
from repro.l5p.resp import RespClient, RespConfig, RespServer
from repro.l5p.resp import frame as F
from repro.nic import OffloadNic

STEER = RespConfig(rx_offload_steer=True, steer_queues=4)


class TestFraming:
    def test_round_trip(self):
        wire = F.make_frame(b"GET user:17")
        assert F.FRAME.parse(wire[: F.HEADER_LEN]).length == len(b"GET user:17")
        assert wire[F.HEADER_LEN : -F.TRAILER_LEN] == b"GET user:17"
        assert wire.endswith(b"\r\n")

    def test_bad_envelopes_rejected(self):
        assert F.FRAME.parse(b"*00000003\r\n") is None  # wrong sigil
        assert F.FRAME.parse(b"$0000000g\r\n") is None  # non-hex digit
        assert F.FRAME.parse(b"$0000000AXX") is None  # uppercase + no CRLF
        assert F.FRAME.parse(b"$ffffffff\r\n") is None  # over MAX_INLINE
        assert F.FRAME.parse(F.make_frame(b"x")[: F.HEADER_LEN]).length == 1

    def test_header_parses_from_a_view(self):
        # The NIC's search scan and the walker hand over views of packet
        # payloads; int(view, 16) is a TypeError.
        wire = memoryview(b"junk" + F.make_frame(b"GET user:17"))
        assert F.FRAME.parse(wire[4 : 4 + F.HEADER_LEN]).length == len(b"GET user:17")
        assert F.FRAME.total_len(wire[4 : 4 + F.HEADER_LEN]) == len(wire) - 4
        assert F.FRAME.parse(wire[3 : 3 + F.HEADER_LEN]) is None

    def test_steer_key_extraction(self):
        assert F.steer_key(b"GET user:17") == b"user:17"
        assert F.steer_key(b"SET user:17 value") == b"user:17"
        assert F.steer_key(b"+OK") == b"+OK"
        # Bounded: only the head window matters.
        long = b"GET " + b"k" * 100
        assert F.steer_key(long) == b"k" * (F.KEY_WINDOW - 4)

    def test_steer_queue_stable(self):
        q = F.steer_queue(b"GET user:17", 4)
        assert q == F.steer_queue(b"SET user:17 something", 4)
        assert 0 <= q < 4


def resp_pair(server_cfg=None, seed=0, **link_kwargs):
    pair = make_pair(seed=seed, client_nic=OffloadNic(), server_nic=OffloadNic(), **link_kwargs)
    server = RespServer(pair.server, port=6379, config=server_cfg)
    client = RespClient(pair.client, "server", port=6379)
    return pair, client, server


class TestRespEndToEnd:
    def test_set_get_round_trip(self):
        pair, client, server = resp_pair()
        replies = []
        client.pipeline(
            [b"SET color blue", b"GET color", b"GET missing"],
            lambda r, lat: replies.extend(r),
        )
        pair.sim.run(until=1.0)
        assert replies == [b"+OK", b"+blue", b"-nil"]
        assert server.stats["commands"] == 3
        assert server.stats["steered"] == 0  # no offload configured

    def test_pipelined_batches(self):
        pair, client, server = resp_pair(server_cfg=STEER)
        done = []

        def issue(batch):
            if batch == 20:
                return
            cmds = [b"SET k%d:%d v%d" % (batch, i, i) for i in range(8)]
            client.pipeline(cmds, lambda r, lat: (done.append(len(r)), issue(batch + 1)))

        issue(0)
        pair.sim.run(until=2.0)
        assert done == [8] * 20
        assert server.stats["commands"] == 160
        # Pipelining packs several commands per packet; the NIC steers
        # the packet, so most commands ride a steered dispatch.  (The
        # very first batch piggybacks on the handshake ACK and slips
        # past the fresh context; the resync path recovers after it.)
        assert server.stats["steered"] > server.stats["software_dispatch"]

    def test_steering_is_key_stable(self):
        pair, client, server = resp_pair(server_cfg=STEER)

        def issue(n):
            if n == 0:
                client.pipeline([b"SET hot 1"], lambda r, lat: issue(1))
            elif n <= 30:
                client.pipeline([b"GET hot"], lambda r, lat: issue(n + 1))

        issue(0)
        pair.sim.run(until=2.0)
        assert server.stats["commands"] == 31
        assert server.stats["steered"] > 0
        # Single-key traffic lands on exactly one queue.
        assert sum(1 for c in server.queue_counts if c) == 1

    def test_steering_saves_dispatch_cycles(self):
        def server_cycles(cfg):
            pair, client, server = resp_pair(server_cfg=cfg, seed=2)
            done = []

            def issue(batch):
                if batch == 30:
                    return
                client.pipeline(
                    [b"SET key:%d v" % batch] + [b"GET key:%d" % batch] * 5,
                    lambda r, lat: (done.append(1), issue(batch + 1)),
                )

            issue(0)
            pair.sim.run(until=3.0)
            assert len(done) == 30
            return sum(pair.server.cpu.cycles_by_category().values())

        assert server_cycles(STEER) < server_cycles(RespConfig(steer_queues=4))

    def test_steering_survives_loss(self):
        pair, client, server = resp_pair(server_cfg=STEER, seed=5, loss_to_server=0.02)
        replies = []

        def issue(batch):
            if batch == 25:
                return
            client.pipeline(
                [b"SET s%d %d" % (batch, batch), b"GET s%d" % batch],
                lambda r, lat: (replies.append(r), issue(batch + 1)),
            )

        issue(0)
        pair.sim.run(until=10.0)
        assert len(replies) == 25
        for batch, pairrep in enumerate(replies):
            assert pairrep[0] == b"+OK"
        assert server.stats["commands"] == 50
        # Loss forces resync windows: some packets arrive unsteered and
        # fall back to the software dispatch path.
        stats = pair.server.nic.offload_stats()
        assert stats["resync_requests"] + server.stats["software_dispatch"] > 0
