"""Unit tests for the NIC driver interfaces (Listing 1) and the link's
fault-injection machinery."""

import pytest

from repro.core.types import Direction
from repro.net.host import Host
from repro.net.link import Link, LinkConfig
from repro.net.packet import FlowKey, Packet
from repro.nic import OffloadNic
from repro.sim import Simulator
from repro.util.units import GBPS
from toy_l5p import ToyAdapter, ToyL5pOps


class _Conn:
    def __init__(self, flow):
        self.flow = flow
        self.tx_ctx_id = None
        self.snd_una = 0


def make_nic():
    sim = Simulator()
    nic = OffloadNic()
    Host(sim, "h", nic=nic)
    return sim, nic


class TestDriverLifecycle:
    def test_create_tx_tags_connection(self):
        sim, nic = make_nic()
        conn = _Conn(FlowKey("h", 1, "peer", 2))
        ctx = nic.driver.l5o_create(conn, ToyAdapter(), None, 100, Direction.TX, ToyL5pOps())
        assert conn.tx_ctx_id == ctx.ctx_id
        assert nic.driver.lookup_tx(ctx.ctx_id) is ctx
        nic.driver.l5o_destroy(ctx)
        assert nic.driver.lookup_tx(ctx.ctx_id) is None

    def test_create_rx_keys_by_reversed_flow(self):
        sim, nic = make_nic()
        conn = _Conn(FlowKey("h", 1, "peer", 2))
        ctx = nic.driver.l5o_create(conn, ToyAdapter(), None, 100, Direction.RX, ToyL5pOps())
        # Incoming packets carry the peer's view of the 4-tuple.
        assert nic.driver.lookup_rx(conn.flow.reversed()) is ctx
        assert nic.driver.lookup_rx(conn.flow) is None

    def test_rr_state_add_del(self):
        sim, nic = make_nic()
        conn = _Conn(FlowKey("h", 1, "peer", 2))
        ctx = nic.driver.l5o_create(conn, ToyAdapter(), None, 0, Direction.RX, ToyL5pOps())
        buffer = bytearray(10)
        nic.driver.l5o_add_rr_state(ctx, 5, buffer)
        assert ctx.rr_state[5] is buffer
        nic.driver.l5o_del_rr_state(ctx, 5)
        assert 5 not in ctx.rr_state

    def test_context_churn_counts_descriptors(self):
        sim, nic = make_nic()
        before = nic.pcie.bytes_by_category["descriptor"]
        conn = _Conn(FlowKey("h", 3, "peer", 4))
        ctx = nic.driver.l5o_create(conn, ToyAdapter(), None, 0, Direction.TX, ToyL5pOps())
        nic.driver.l5o_destroy(ctx)
        assert nic.pcie.bytes_by_category["descriptor"] > before

    def test_resync_request_delay_knob(self):
        sim, nic = make_nic()
        ops = ToyL5pOps()
        conn = _Conn(FlowKey("h", 1, "peer", 2))
        ctx = nic.driver.l5o_create(conn, ToyAdapter(), None, 0, Direction.RX, ops)
        nic.driver.resync_delay_s = 1e-3
        nic.driver.request_resync(ctx, 4242)
        sim.run(until=0.5e-3)
        assert ops.resync_requests == []  # not yet delivered
        sim.run(until=2e-3)
        assert ops.resync_requests == [4242]


class TestLinkFaults:
    def _port(self, **cfg):
        sim = Simulator(seed=9)
        link = Link(sim, config_ab=LinkConfig(**cfg))
        received = []
        link.attach("b", received.append)
        link.attach("a", lambda p: None)
        return sim, link, received

    def send_many(self, sim, link, n=400):
        flow = FlowKey("a", 1, "b", 2)
        for i in range(n):
            link.port("a").transmit(Packet(flow, seq=i, payload=b"x" * 100, ack_flag=False))
        sim.run()

    def test_loss_rate_statistics(self):
        sim, link, received = self._port(loss=0.25)
        self.send_many(sim, link)
        assert 0.15 < link.ab.dropped_packets / 400 < 0.35
        assert len(received) == 400 - link.ab.dropped_packets

    def test_duplication_statistics(self):
        sim, link, received = self._port(duplicate=0.25)
        self.send_many(sim, link)
        assert len(received) == 400 + link.ab.duplicated_packets
        assert link.ab.duplicated_packets > 50

    def test_reordering_changes_arrival_order(self):
        sim, link, received = self._port(reorder=0.2)
        self.send_many(sim, link)
        seqs = [p.seq for p in received]
        assert seqs != sorted(seqs)
        assert sorted(seqs) == list(range(400))  # nothing lost

    def test_serialization_rate(self):
        sim = Simulator()
        link = Link(sim, config_ab=LinkConfig(bandwidth_bps=1 * GBPS, latency_s=0))
        times = []
        link.attach("b", lambda p: times.append(sim.now))
        link.attach("a", lambda p: None)
        flow = FlowKey("a", 1, "b", 2)
        wire = 1000 + 90  # payload + overhead
        for i in range(3):
            link.port("a").transmit(Packet(flow, seq=i, payload=b"z" * 1000, ack_flag=False))
        sim.run()
        per_pkt = wire * 8 / GBPS
        assert times[0] == pytest.approx(per_pkt)
        assert times[2] == pytest.approx(3 * per_pkt)

    def test_unattached_port_raises(self):
        sim = Simulator()
        link = Link(sim)
        with pytest.raises(RuntimeError):
            link.port("a").transmit(Packet(FlowKey("a", 1, "b", 2)))

    def test_bad_side_rejected(self):
        link = Link(Simulator())
        with pytest.raises(ValueError):
            link.attach("c", lambda p: None)
        with pytest.raises(ValueError):
            link.port("q")
