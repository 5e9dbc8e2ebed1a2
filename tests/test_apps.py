"""Application-level tests: iperf, fio, nginx/wrk, RoF/memtier — each in
software and offloaded configurations over the full simulated stack."""

import pytest

from repro.apps.fio import FioJob
from repro.apps.http import build_request, parse_response_header
from repro.apps.iperf import IperfClient, IperfServer
from repro.apps.nginx import NginxServer
from repro.apps.rof import MemtierClient, OffloadDb, RofServer
from repro.apps.wrk import WrkClient
from repro.harness.testbed import Testbed, TestbedConfig
from repro.l5p.nvme_tcp import NvmeConfig, NvmeTcpHost, NvmeTcpTarget
from repro.l5p.tls.ktls import TlsConfig
from repro.storage.blockdev import BlockDevice
from repro.storage.fs import FlatFs
from repro.storage.remote import RemoteBlockReader


def make_testbed(**kwargs):
    return Testbed(TestbedConfig(**kwargs))


class TestIperf:
    def test_tcp_throughput(self):
        tb = make_testbed()
        server = IperfServer(tb.generator, port=5201)
        IperfClient(tb.server, "generator", streams=1)
        tb.run(until=0.01)
        assert server.total_bytes > 1_000_000

    def test_tls_throughput_offload_beats_software(self):
        def goodput(tls_cfg):
            tb = make_testbed(seed=3)
            # Offloaded receive keeps the generator from being the
            # bottleneck; the sender core under test dominates.
            server = IperfServer(tb.generator, tls=TlsConfig(rx_offload=True))
            IperfClient(tb.server, "generator", streams=4, tls=tls_cfg)
            tb.run(until=0.02)
            return server.total_bytes

        soft = goodput(TlsConfig())
        offload = goodput(TlsConfig(tx_offload=True))
        assert offload > soft * 1.5  # paper: 3.3x on transmit

    def test_sink_counts_exactly_what_the_stack_delivered(self):
        # TCP hands the sink Skbs around views of the sender's buffer,
        # kTLS hands it plaintext bytes; both count by size.
        tb = make_testbed()
        server = IperfServer(tb.generator, port=5201)
        IperfClient(tb.server, "generator", streams=2)
        tb.run(until=0.005)
        delivered = sum(c.bytes_received for c in tb.generator.tcp.connections.values())
        assert server.total_bytes == delivered > 0

        tb = make_testbed()
        server = IperfServer(tb.generator, tls=TlsConfig(rx_offload=True))
        IperfClient(tb.server, "generator", streams=2, tls=TlsConfig(tx_offload=True))
        tb.run(until=0.005)
        assert server.total_bytes == sum(s.stats.bytes_rx for s in server.tls_sockets) > 0

    def test_many_streams(self):
        tb = make_testbed()
        server = IperfServer(tb.generator, port=5201)
        IperfClient(tb.server, "generator", streams=16, message_size=65536)
        tb.run(until=0.01)
        assert len(server.streams) == 16
        assert all(s.bytes_received > 0 for s in server.streams)


def make_remote_nvme(tb, host_cfg=None, target_cfg=None):
    device = BlockDevice(tb.sim)
    target = NvmeTcpTarget(tb.generator, device, config=target_cfg or NvmeConfig())
    target.start()
    nvme = NvmeTcpHost(tb.server, config=host_cfg or NvmeConfig())
    nvme.connect("generator")
    return nvme, device


class TestFio:
    def test_randread_completes_requests(self):
        tb = make_testbed()
        nvme, device = make_remote_nvme(tb)
        job = FioJob(nvme, block_size=4096, iodepth=4, total_requests=50)
        job.start()
        tb.run(until=5.0)
        assert job.stats.completed == 50
        assert job.done
        assert job.stats.iops > 0
        assert job.stats.mean_latency > 0

    def test_iodepth_respected(self):
        tb = make_testbed()
        nvme, device = make_remote_nvme(tb)
        job = FioJob(nvme, block_size=4096, iodepth=2, total_requests=20)
        peak = []
        orig = nvme.read

        def spy(*args, **kwargs):
            peak.append(nvme.inflight + len(nvme._waiting))
            orig(*args, **kwargs)

        nvme.read = spy
        job.start()
        tb.run(until=5.0)
        assert max(peak) <= 2

    def test_randwrite(self):
        tb = make_testbed()
        nvme, device = make_remote_nvme(tb)
        job = FioJob(nvme, block_size=8192, iodepth=4, total_requests=20, mode="randwrite")
        job.start()
        tb.run(until=5.0)
        assert job.stats.completed == 20
        assert device.writes == 20

    def test_higher_depth_more_iops(self):
        def iops(depth):
            tb = make_testbed(seed=7)
            nvme, _ = make_remote_nvme(tb)
            job = FioJob(nvme, block_size=4096, iodepth=depth, total_requests=200)
            job.start()
            tb.run(until=5.0)
            assert job.stats.completed == 200
            return job.stats.iops

        assert iops(16) > iops(1) * 2

    def test_bad_mode_rejected(self):
        tb = make_testbed()
        nvme, _ = make_remote_nvme(tb)
        with pytest.raises(ValueError):
            FioJob(nvme, 4096, 1, mode="trim")


def fetch_file(tb, port, path, tls=None, until=5.0):
    """Fetch one file with a bare client and return the body bytes."""
    from repro.apps.transport import Transport

    conn = tb.generator.tcp.connect("server", port)
    transport = Transport(tb.generator, conn, "client", tls)
    state = {"buf": bytearray(), "body": None}

    def on_ready():
        transport.send(build_request("/" + path))

    def on_data(data):
        state["buf"] += data
        parsed = parse_response_header(bytes(state["buf"]))
        if parsed is None:
            return
        length, header_len = parsed
        if len(state["buf"]) >= header_len + length:
            state["body"] = bytes(state["buf"][header_len : header_len + length])

    transport.on_ready = on_ready
    transport.on_data = on_data
    tb.run(until=tb.sim.now + until)
    return state["body"]


class TestNginx:
    def make_server(self, tb, tls=None, port=80):
        device = BlockDevice(tb.sim)
        fs = FlatFs(device)
        fs.create("small.bin", 4096)
        fs.create("big.bin", 256 * 1024)
        NginxServer(tb.server, fs, port=port, tls=tls)
        return fs, device

    def test_http_serves_correct_content(self):
        tb = make_testbed()
        fs, device = self.make_server(tb)
        body = fetch_file(tb, 80, "big.bin")
        assert body == device.peek(fs.stat("big.bin").offset, 256 * 1024)

    def test_https_serves_correct_content(self):
        tb = make_testbed()
        fs, device = self.make_server(tb, tls=TlsConfig())
        body = fetch_file(tb, 80, "small.bin", tls=TlsConfig())
        assert body == device.peek(fs.stat("small.bin").offset, 4096)

    def test_https_offload_zc_serves_correct_content(self):
        tb = make_testbed()
        fs, device = self.make_server(tb, tls=TlsConfig(tx_offload=True, zerocopy_sendfile=True))
        body = fetch_file(tb, 80, "big.bin", tls=TlsConfig())
        assert body == device.peek(fs.stat("big.bin").offset, 256 * 1024)

    def test_missing_file_404(self):
        tb = make_testbed()
        self.make_server(tb)
        body = fetch_file(tb, 80, "nope.bin")
        assert body == b""

    def test_wrk_drives_many_requests(self):
        tb = make_testbed(server_cores=2)
        fs, _ = self.make_server(tb)
        wrk = WrkClient(tb.generator, "server", 80, ["small.bin"], connections=8, max_requests=100)
        tb.run(until=2.0)
        assert wrk.stats.requests == 100
        assert wrk.stats.bytes_received == 100 * 4096
        assert wrk.stats.mean_latency > 0

    def test_nginx_over_remote_nvme(self):
        """The paper's C1: nginx files on an NVMe-TCP-backed filesystem."""
        tb = make_testbed()
        device = BlockDevice(tb.sim)
        target = NvmeTcpTarget(tb.generator, device)
        target.start()
        nvme = NvmeTcpHost(tb.server, config=NvmeConfig(rx_offload_crc=True, rx_offload_copy=True))
        nvme.connect("generator")
        fs = FlatFs(RemoteBlockReader(nvme))
        fs.create("file.bin", 64 * 1024)
        NginxServer(tb.server, fs, port=8080)
        body = fetch_file(tb, 8080, "file.bin", until=10.0)
        assert body == device.peek(fs.stat("file.bin").offset, 64 * 1024)
        assert nvme.stats.pdus_placed > 0


class TestRof:
    def make_rof(self, tb, tls=None):
        device = BlockDevice(tb.sim)
        target = NvmeTcpTarget(tb.generator, device)
        target.start()
        nvme = NvmeTcpHost(tb.server, config=NvmeConfig(rx_offload_crc=True, rx_offload_copy=True))
        nvme.connect("generator")
        db = OffloadDb()
        keys = []
        for i in range(8):
            key = f"key:{i}"
            db.allocate(key, 16 * 1024)
            keys.append(key)
        RofServer(tb.server, nvme, db, port=6379, tls=tls)
        return db, device, keys

    def test_memtier_gets_complete(self):
        tb = make_testbed()
        db, device, keys = self.make_rof(tb)
        memtier = MemtierClient(tb.generator, "server", 6379, keys, connections=4, max_requests=40)
        tb.run(until=5.0)
        assert memtier.stats.gets == 40
        assert memtier.stats.bytes_received > 0

    def test_get_returns_flash_content(self):
        tb = make_testbed()
        db, device, keys = self.make_rof(tb)
        offset, length = db.lookup(keys[0])
        expected = device.peek(offset, length)

        from repro.apps.transport import Transport

        conn = tb.generator.tcp.connect("server", 6379)
        transport = Transport(tb.generator, conn, "client", None)
        got = bytearray()
        transport.on_ready = lambda: transport.send(f"GET {keys[0]}\r\n".encode())
        transport.on_data = got.extend
        tb.run(until=5.0)
        header_end = got.find(b"\r\n")
        assert bytes(got[header_end + 2 : header_end + 2 + length]) == expected

    def test_rof_over_tls(self):
        tb = make_testbed(server_cores=2)
        db, device, keys = self.make_rof(tb, tls=TlsConfig(tx_offload=True, rx_offload=True))
        memtier = MemtierClient(
            tb.generator, "server", 6379, keys, connections=4, tls=TlsConfig(), max_requests=20
        )
        tb.run(until=5.0)
        assert memtier.stats.gets == 20

    def test_miss_reply(self):
        tb = make_testbed()
        db, device, keys = self.make_rof(tb)
        memtier = MemtierClient(tb.generator, "server", 6379, ["absent"], connections=1, max_requests=3)
        tb.run(until=5.0)
        assert memtier.stats.gets == 3
        assert memtier.stats.bytes_received == 0
