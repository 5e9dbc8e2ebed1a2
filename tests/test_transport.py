"""Transport facade tests: the uniform app API over raw TCP and kTLS."""


from helpers import make_pair
from repro.apps.transport import Transport
from repro.l5p.tls.ktls import TlsConfig
from repro.nic import OffloadNic


def pair_with_transports(tls=None, **kwargs):
    kwargs.setdefault("client_nic", OffloadNic())
    kwargs.setdefault("server_nic", OffloadNic())
    pair = make_pair(**kwargs)
    transports = {}

    def on_accept(conn):
        t = Transport(pair.server, conn, "server", tls)
        transports["server"] = t

    pair.server.tcp.listen(8000, on_accept)
    conn = pair.client.tcp.connect("server", 8000)
    transports["client"] = Transport(pair.client, conn, "client", tls)
    return pair, transports


class TestRawTransport:
    def test_ready_fires_and_data_flows(self):
        pair, t = pair_with_transports()
        got = bytearray()
        events = []
        t["client"].on_ready = lambda: events.append("ready")

        def server_ready():
            t["server"].on_data = got.extend

        # Server transport is created at accept; attach when it exists.
        pair.sim.schedule(0.001, lambda: setattr(t["server"], "on_data", got.extend))
        pair.sim.schedule(0.002, lambda: t["client"].send(b"payload"))
        pair.sim.run(until=0.1)
        assert events == ["ready"]
        assert bytes(got) == b"payload"

    def test_applications_get_bytes_not_views(self):
        # Apps parse with bytes-only methods and keep what they are
        # given: the raw path makes the recvmsg copy kTLS makes anyway.
        pair, t = pair_with_transports()
        got = []
        pair.sim.schedule(0.001, lambda: setattr(t["server"], "on_data", got.append))
        pair.sim.schedule(0.002, lambda: t["client"].send(b"GET /index.html\r\n" * 200))
        pair.sim.run(until=0.1)
        assert got and all(type(chunk) is bytes for chunk in got)
        assert b"".join(got) == b"GET /index.html\r\n" * 200

    def test_sendfile_charges_page_lookups_not_copy(self):
        pair, t = pair_with_transports()
        pair.sim.run(until=0.01)
        before = dict(pair.client.cpu.cycles_by_category())
        t["client"].sendfile(bytes(64 * 1024))
        after = pair.client.cpu.cycles_by_category()
        assert after.get("copy", 0) == before.get("copy", 0)
        assert after["stack"] > before.get("stack", 0)

    def test_ready_property(self):
        pair, t = pair_with_transports()
        assert not t["client"].ready  # SYN in flight
        pair.sim.run(until=0.01)
        assert t["client"].ready


class TestTlsTransport:
    def test_data_flows_encrypted(self):
        pair, t = pair_with_transports(tls=TlsConfig())
        got = bytearray()
        pair.sim.schedule(0.001, lambda: setattr(t["server"], "on_data", got.extend))
        # Send after the server app attached its handler (apps normally
        # attach at accept; this test wires it late on purpose).
        pair.sim.schedule(0.002, lambda: t["client"].send(b"secret payload"))
        pair.sim.run(until=0.1)
        assert bytes(got) == b"secret payload"
        assert t["client"].tls is not None

    def test_send_space_zero_before_ready(self):
        pair, t = pair_with_transports(tls=TlsConfig())
        assert t["client"].send_space == 0
        pair.sim.run(until=0.1)
        assert t["client"].send_space > 0
