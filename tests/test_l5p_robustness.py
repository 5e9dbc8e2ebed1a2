"""Robustness properties of the endpoint core, checked for every stream
protocol in the registry rather than protocol by protocol:

- **NIC reset recovery** (§2, offload dependence): a firmware hang
  mid-run costs time, never content — the application sees exactly what
  an offload-off run on the same seed sees — and afterwards the offload
  comes *back*: the context is re-installed and the protocol's offloaded
  counter grows again.
- **Framing desync** (byte corruption TCP does not catch here): the
  endpoint reports through ``on_error``; nothing escapes
  ``Simulator.run``.

One paced, open-loop driver per protocol serves both: operation *k* is
issued at a fixed simulated time, so offload-on and offload-off runs
attempt the same work whatever their speed.
"""

import pytest

from repro.faults import FaultPlan, LinkFaultProfile, NicLifecycleProfile
from repro.harness import Testbed, TestbedConfig
from repro.l5p import plugin
from repro.nic.lifecycle import NicState

import toy_l5p  # importing it registers "toy"

OPS = 90
FIRST_OP_AT = 3e-4  # every handshake/greeting is long done
OP_INTERVAL = 1e-4  # ops span 0.3 ms .. 9.3 ms
HANG = ((2e-3, 2.2e-3),)  # watchdog + reset + reattach end before 4.3 ms
RECOVERED_BY = 5e-3
UNTIL = 14e-3


def blob(k: int, size: int) -> bytes:
    return bytes((k * 31 + i * 7) & 0xFF for i in range(size))


class Run:
    """What a driver hands back: per-op application results and a reader
    of the protocol's own 'the NIC did it' counter on the DUT."""

    def __init__(self, tb):
        self.tb = tb
        self.results: dict = {}  # op -> what the application got for it
        self.offloaded = lambda: 0
        self.completed = lambda: len(self.results)  # ops the application saw finish

    def pace(self, issue) -> None:
        for k in range(OPS):
            self.tb.sim.schedule(FIRST_OP_AT + k * OP_INTERVAL, issue, k)


def drive_tls(run, offload, errors):
    from repro.l5p.tls import KtlsSocket, TlsConfig

    tb, received = run.tb, bytearray()
    run.results["stream"] = received
    run.completed = lambda: len(received) // (16 * 1024)

    def on_accept(conn):
        server = KtlsSocket(tb.server, conn, "server", TlsConfig(rx_offload=offload))
        server.on_data = received.extend
        server.on_error = errors.append
        run.offloaded = lambda: server.stats.records_rx_full

    tb.server.tcp.listen(443, on_accept)
    client = KtlsSocket(tb.generator, tb.generator.tcp.connect("server", 443), "client", TlsConfig())
    client.on_error = errors.append
    run.pace(lambda k: client.send(blob(k, 16 * 1024)))


def _drive_nvme(run, offload, errors, tls):
    from repro.l5p.nvme_tcp import NvmeConfig, NvmeTcpHost, NvmeTcpTarget
    from repro.l5p.tls import TlsConfig
    from repro.storage.blockdev import BlockDevice

    tb = run.tb
    target = NvmeTcpTarget(
        tb.generator, BlockDevice(tb.sim), config=NvmeConfig(), tls=TlsConfig() if tls else None
    )
    target.on_error = errors.append
    target.start()
    host = NvmeTcpHost(
        tb.server,
        config=NvmeConfig(rx_offload_crc=offload, rx_offload_copy=offload),
        tls=TlsConfig(rx_offload=offload) if tls else None,
    )
    host.on_error = errors.append
    host.connect("generator")
    run.offloaded = lambda: host.stats.pdus_placed
    run.pace(lambda k: host.read(k * 32768, 16384, lambda data, _lat: run.results.__setitem__(k, data)))


def drive_nvme_tcp(run, offload, errors):
    _drive_nvme(run, offload, errors, tls=False)


def drive_nvme_tls(run, offload, errors):
    _drive_nvme(run, offload, errors, tls=True)


def drive_rpc(run, offload, errors):
    from repro.l5p.rpc import RpcClient, RpcConfig, RpcServer

    tb = run.tb
    server = RpcServer(tb.generator, port=7000)
    server.on_error = errors.append
    server.register(1, lambda k: blob(k, 20_000))
    client = RpcClient(
        tb.server, "generator", port=7000,
        config=RpcConfig(rx_offload_crc=offload, rx_offload_copy=offload),
    )
    client.on_error = errors.append
    run.offloaded = lambda: client.stats["placed"]
    run.pace(lambda k: client.call(1, k, lambda value, _lat: run.results.__setitem__(k, value)))


def drive_http2(run, offload, errors):
    from repro.l5p.http2 import Http2Client, Http2Config, Http2Server

    tb = run.tb
    server = Http2Server(tb.generator, port=8080)
    server.on_error = errors.append
    client = Http2Client(
        tb.server, "generator", port=8080,
        config=Http2Config(rx_offload_crc=offload, rx_offload_copy=offload),
    )
    client.on_error = errors.append
    run.offloaded = lambda: client.stats["placed_frames"]
    run.pace(lambda k: client.fetch(24_000 + k, lambda body, _lat: run.results.__setitem__(k, body)))


def drive_resp(run, offload, errors):
    from repro.l5p.resp import RespClient, RespConfig, RespServer

    tb = run.tb
    server = RespServer(tb.server, port=6379, config=RespConfig(rx_offload_steer=offload))
    server.on_error = errors.append
    client = RespClient(tb.generator, "server", port=6379)
    client.on_error = errors.append
    run.offloaded = lambda: server.stats["steered"]

    def issue(k):
        commands = [b"SET shard%d:%d value-%d-%d" % (k % 7, i, k, i) for i in range(8)]
        commands.append(b"GET shard%d:3" % (k % 7))
        client.pipeline(commands, lambda replies, _lat: run.results.__setitem__(k, replies))

    run.pace(issue)


def drive_decomp(run, offload, errors):
    from repro.l5p.decomp import CompressedStream

    tb, received = run.tb, []
    run.results["messages"] = received
    run.completed = lambda: len(received)

    def on_accept(conn):
        rx = CompressedStream(tb.server, conn, "receiver", offload=offload)
        rx.on_message = received.append
        rx.on_error = errors.append
        run.offloaded = lambda: rx.stats["rx_placed"]

    tb.server.tcp.listen(1234, on_accept)
    tx = CompressedStream(tb.generator, tb.generator.tcp.connect("server", 1234), "sender")
    tx.on_error = errors.append
    run.pace(lambda k: tx.send((b"compress me %d! " % k) * 600))


def drive_toy(run, offload, errors):
    tb = run.tb
    run.results["bodies"] = received = []
    run.completed = lambda: len(received)

    def on_accept(conn):
        rx = toy_l5p.ToyEndpoint(tb.server, conn, rx_offload=offload)
        rx.received = received
        rx.on_error = errors.append
        run.offloaded = lambda: rx.offloaded

    tb.server.tcp.listen(9000, on_accept)
    tx = toy_l5p.ToyEndpoint(tb.generator, tb.generator.tcp.connect("server", 9000))
    tx.on_error = errors.append
    run.pace(lambda k: tx.send(blob(k, 9000)))


DRIVERS = {
    "tls": drive_tls,
    "nvme-tcp": drive_nvme_tcp,
    "nvme-tls": drive_nvme_tls,
    "rpc": drive_rpc,
    "http2": drive_http2,
    "resp": drive_resp,
    "decomp": drive_decomp,
    "toy": drive_toy,
}
#: Registered protocols with no stream endpoint to reset: DPI is an
#: adapter-only inspection offload (tests/test_dpi.py drives it raw).
ADAPTER_ONLY = {"dpi"}


def start(proto, offload, plan, seed=1):
    tb = Testbed(TestbedConfig(seed=seed, faults=plan, protocols=(proto,)))
    run, errors = Run(tb), []
    DRIVERS[proto](run, offload, errors)
    return run, errors


def test_every_registered_stream_protocol_has_a_driver():
    assert set(plugin.names()) - ADAPTER_ONLY == set(DRIVERS)


@pytest.mark.parametrize("proto", sorted(DRIVERS))
def test_nic_reset_costs_time_not_content_and_offload_resumes(proto):
    plan = FaultPlan(lifecycle=NicLifecycleProfile(hang_windows=HANG))
    run, errors = start(proto, True, plan)
    life = run.tb.server.nic.lifecycle

    run.tb.run(until=RECOVERED_BY)
    assert (life.resets, life.state) == (1, NicState.RUNNING)
    assert life.contexts_lost >= 1 and life.reinstalls >= 1
    assert life.reinstall_unsupported == 0
    at_recovery = run.offloaded()

    run.tb.run(until=UNTIL)
    assert run.offloaded() > at_recovery, "the offload never came back after the reset"
    assert errors == []

    reference, ref_errors = start(proto, False, plan)
    reference.tb.run(until=UNTIL)
    assert ref_errors == [] and reference.offloaded() == 0
    assert run.completed() == reference.completed() == OPS
    assert run.results == reference.results


def test_http2_motivation_probe_places_nearly_everything():
    """ISSUE 15's probe: 400 closed-loop 48 000 B fetches across the
    scripted hang placed 317 of 3 360 DATA frames before the core."""
    from repro.l5p.http2 import Http2Client, Http2Config, Http2Server

    plan = FaultPlan(lifecycle=NicLifecycleProfile(hang_windows=HANG))
    tb = Testbed(TestbedConfig(seed=1, faults=plan, protocols=("http2",)))
    Http2Server(tb.generator, port=8080)
    client = Http2Client(
        tb.server, "generator", port=8080, config=Http2Config(rx_offload_crc=True, rx_offload_copy=True)
    )
    left = [400]

    def issue(*_):
        if left[0]:
            left[0] -= 1
            client.fetch(48_000, issue)

    issue()
    tb.run(until=0.05)
    assert client.stats["responses"] == 400 and client.stats["data_frames"] == 3360
    assert client.stats["placed_frames"] >= 3000
    assert tb.server.nic.lifecycle.reinstall_unsupported == 0


# ----------------------------------------------------------------------
# framing desync under byte corruption
# ----------------------------------------------------------------------
@pytest.mark.parametrize("offload", [False, True], ids=["software", "offloaded"])
@pytest.mark.parametrize(
    "proto,rate",
    # 2 % desyncs the header-dense protocols (RESP on seven of seeds
    # 0-7, HTTP/2 on most); the body-dominated ones need more flips
    # before one lands in a header.
    [("rpc", 0.02), ("http2", 0.02), ("resp", 0.02), ("decomp", 0.2), ("nvme-tcp", 0.2), ("toy", 0.2)],
)
def test_corruption_is_reported_not_raised(proto, rate, offload):
    wire = LinkFaultProfile(corrupt=rate)
    reported = 0
    for seed in range(8):
        run, errors = start(proto, offload, FaultPlan(to_server=wire, to_generator=wire), seed=seed)
        run.tb.run(until=UNTIL)  # must return: nothing escapes Simulator.run
        reported += bool(errors)
        assert all("framing error at seq" in e or "failed" in e for e in errors), errors
    assert reported > 0
