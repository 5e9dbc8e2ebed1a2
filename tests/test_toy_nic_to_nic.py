"""NIC-to-NIC toy pipeline: a TX engine encodes on one host, the wire
carries the transformed bytes, and an RX engine on the peer decodes —
verifying the two engines are exact inverses end to end, byte for byte,
over real TCP with faults."""

import pytest

from helpers import make_pair
from repro.nic import OffloadNic
from toy_l5p import ToyEndpoint, encode_message


class TestNicToNic:
    def run_pipeline(self, bodies, seed=0, loss=0.0, reorder=0.0):
        pair = make_pair(
            seed=seed,
            loss_to_server=loss,
            reorder_to_server=reorder,
            client_nic=OffloadNic(),
            server_nic=OffloadNic(),
        )
        wire_received = bytearray()

        def on_accept(conn):
            conn.on_data = lambda skb: wire_received.extend(skb.data)

        pair.server.tcp.listen(9000, on_accept)
        conn = pair.client.tcp.connect("server", 9000)
        state = {}

        def go():
            tx = ToyEndpoint(pair.client, conn, tx_offload=True)
            state["tx"] = tx
            for body in bodies:
                tx.send(body)

        conn.on_established = go
        pair.sim.run(until=30.0)
        return pair, bytes(wire_received)

    def test_wire_is_exactly_the_encoded_form(self):
        bodies = [bytes([i]) * (100 + i * 37) for i in range(10)]
        pair, wire = self.run_pipeline(bodies)
        assert wire == b"".join(encode_message(b, i) for i, b in enumerate(bodies))

    @pytest.mark.parametrize("loss,reorder", [(0.02, 0.0), (0.0, 0.03), (0.02, 0.02)])
    def test_wire_correct_under_faults(self, loss, reorder):
        bodies = [bytes([i % 256]) * 500 for i in range(30)]
        pair, wire = self.run_pipeline(bodies, seed=7, loss=loss, reorder=reorder)
        assert wire == b"".join(encode_message(b, i) for i, b in enumerate(bodies))
        if loss:
            assert pair.client.nic.offload_stats()["tx_recoveries"] > 0
