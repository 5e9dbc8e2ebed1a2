"""Tests for the host's flow steering and NAPI receive path."""

from helpers import make_pair
from repro.net.host import Host, flow_hash
from repro.net.packet import FlowKey, Packet
from repro.sim import Simulator


class TestFlowSteering:
    def test_flow_hash_symmetric(self):
        flow = FlowKey("a", 1, "b", 2)
        assert flow_hash(flow) == flow_hash(flow.reversed())

    def test_flow_hash_deterministic(self):
        assert flow_hash(FlowKey("x", 5, "y", 6)) == flow_hash(FlowKey("x", 5, "y", 6))


class TestNapiBatching:
    def make_host(self, cores=1):
        sim = Simulator()
        return sim, Host(sim, "h", cores=cores)

    def test_burst_forms_one_batch(self):
        sim, host = self.make_host()
        flow = FlowKey("peer", 1, "h", 2)
        for i in range(10):
            host.deliver(Packet(flow, seq=i, payload=b"x", ack_flag=False))
        sim.run()
        assert host.rx_batch_sizes[0] == 10

    def test_spaced_arrivals_form_single_packet_batches(self):
        sim, host = self.make_host()
        flow = FlowKey("peer", 1, "h", 2)
        for i in range(5):
            sim.schedule(i * 1e-3, host.deliver, Packet(flow, seq=i, payload=b"x", ack_flag=False))
        sim.run()
        assert host.rx_batch_sizes == [1, 1, 1, 1, 1]

    def test_batch_budget_respected(self):
        sim, host = self.make_host()
        flow = FlowKey("peer", 1, "h", 2)
        for i in range(100):
            host.deliver(Packet(flow, seq=i, payload=b"x", ack_flag=False))
        sim.run()
        assert max(host.rx_batch_sizes) <= 64
        assert sum(host.rx_batch_sizes) == 100

    def test_flows_steer_to_distinct_core_queues(self):
        sim, host = self.make_host(cores=4)
        flows = [FlowKey(f"p{i}", i, "h", 80) for i in range(16)]
        for flow in flows:
            host.deliver(Packet(flow, payload=b"x", ack_flag=False))
        sim.run()
        # Work was spread: more than one core accumulated busy time.
        busy = [c.busy_seconds for c in host.cpu.cores]
        assert sum(1 for b in busy if b > 0) > 1

    def test_batching_grows_under_cpu_load(self):
        """The §6.5 mechanism: when the core is busy, arrivals batch."""
        pair = make_pair()
        # Saturate the server core with synthetic work while packets arrive.
        core = pair.server.cpu.cores[0]
        flow = FlowKey("client", 9, "server", 9)

        def arrival(i):
            pair.server.deliver(Packet(flow, seq=i, payload=b"y", ack_flag=False))

        core.charge(2_000_000, "app")  # 1 ms of busywork
        for i in range(20):
            pair.sim.schedule(i * 20e-6, arrival, i)  # all within the busy ms
        pair.sim.run(until=0.1)
        assert max(pair.server.rx_batch_sizes) >= 10
