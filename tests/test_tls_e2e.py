"""End-to-end kTLS tests: software mode, offloaded mode, fault injection,
partial-record fallback, and resynchronization over real TCP."""

from dataclasses import replace

import pytest

from helpers import make_pair
from repro.l5p.tls import KtlsSocket, TlsConfig
from repro.l5p.tls.record import CONTENT_APPDATA, HEADER_LEN, MAX_PLAINTEXT, TAG_LEN, make_header
from repro.nic import OffloadNic
from repro.tcp import seq as sq
from repro.tcp.buffer import frozen


def tls_pair(
    seed=0,
    client_cfg=None,
    server_cfg=None,
    loss_to_server=0.0,
    reorder_to_server=0.0,
    loss_to_client=0.0,
    reorder_to_client=0.0,
    offload_nics=True,
):
    pair = make_pair(
        seed=seed,
        loss_to_server=loss_to_server,
        reorder_to_server=reorder_to_server,
        loss_to_client=loss_to_client,
        reorder_to_client=reorder_to_client,
        client_nic=OffloadNic() if offload_nics else None,
        server_nic=OffloadNic() if offload_nics else None,
    )
    return pair


def run_tls_transfer(pair, payload, client_cfg, server_cfg, until=20.0, server_echo=0):
    """Client streams ``payload`` to server; returns (received, client_tls,
    server_tls)."""
    received = bytearray()
    echoed = bytearray()
    sockets = {}
    progress = {"sent": 0}

    def on_accept(conn):
        tls = KtlsSocket(pair.server, conn, "server", server_cfg)
        sockets["server"] = tls
        tls.on_data = received.extend

    pair.server.tcp.listen(443, on_accept)
    conn = pair.client.tcp.connect("server", 443)
    client = KtlsSocket(pair.client, conn, "client", client_cfg)
    sockets["client"] = client
    client.on_data = echoed.extend

    def feed():
        while progress["sent"] < len(payload):
            sent = client.send(payload[progress["sent"] : progress["sent"] + 64 * 1024])
            if sent == 0:
                return
            progress["sent"] += sent

    client.on_ready = feed
    client.on_writable = feed
    pair.sim.run(until=until)
    return bytes(received), sockets["client"], sockets["server"]


SOFT = TlsConfig()
OFFLOAD_TX = TlsConfig(tx_offload=True)
OFFLOAD_RX = TlsConfig(rx_offload=True)
OFFLOAD_BOTH = TlsConfig(tx_offload=True, rx_offload=True)


class TestSoftwareTls:
    def test_handshake_and_transfer(self):
        pair = tls_pair(offload_nics=False)
        payload = bytes(i % 256 for i in range(200_000))
        received, client, server = run_tls_transfer(pair, payload, SOFT, SOFT)
        assert received == payload
        assert server.stats.records_rx_none == server.stats.records_rx
        assert server.stats.records_rx_full == 0

    def test_real_aes_gcm_suite(self):
        cfg = TlsConfig(suite_name="aes-gcm")
        pair = tls_pair(offload_nics=False)
        payload = bytes(i % 256 for i in range(20_000))
        received, _, _ = run_tls_transfer(pair, payload, cfg, cfg)
        assert received == payload

    def test_wire_bytes_are_ciphertext(self):
        """Sniff the link: application bytes must not appear in cleartext."""
        pair = tls_pair(offload_nics=False)
        needle = b"TOP-SECRET-NEEDLE-VALUE" * 10
        sniffed = []
        original = pair.link.ab.receiver

        def sniff(pkt):
            sniffed.append(bytes(pkt.payload))
            original(pkt)

        # Attach after hosts: wrap the server-side receive.
        pair.link.attach("b", sniff)
        payload = needle * 50
        received, _, _ = run_tls_transfer(pair, payload, SOFT, SOFT)
        assert received == payload
        assert needle not in b"".join(sniffed)


class TestOffloadedTls:
    def test_tx_offload_transfers_correctly(self):
        pair = tls_pair()
        payload = bytes(i % 251 for i in range(300_000))
        received, client, server = run_tls_transfer(pair, payload, OFFLOAD_TX, SOFT)
        assert received == payload
        # The NIC performed the encryption for every data packet.
        stats = pair.client.nic.offload_stats()
        assert stats["pkts_offloaded"] > 0
        # Receiver decrypted in software (its NIC has no RX context).
        assert server.stats.records_rx_none == server.stats.records_rx

    def test_rx_offload_transfers_correctly(self):
        pair = tls_pair()
        payload = bytes(i % 253 for i in range(300_000))
        received, client, server = run_tls_transfer(pair, payload, OFFLOAD_TX, OFFLOAD_RX)
        assert received == payload
        # Loss-free run: every record fully offloaded at the receiver.
        assert server.stats.records_rx_full == server.stats.records_rx
        assert server.stats.records_rx_none == 0

    def test_offload_avoids_crypto_cycles(self):
        payload = bytes(500_000)

        def crypto_cycles(cfg_c, cfg_s):
            pair = tls_pair()
            run_tls_transfer(pair, payload, cfg_c, cfg_s)
            return (
                pair.client.cpu.cycles_by_category().get("crypto", 0),
                pair.server.cpu.cycles_by_category().get("crypto", 0),
            )

        soft_c, soft_s = crypto_cycles(SOFT, SOFT)
        off_c, off_s = crypto_cycles(OFFLOAD_BOTH, OFFLOAD_BOTH)
        # Only the handshake's fixed cost remains when offloaded.
        from repro.cpu.model import DEFAULT_COST_MODEL

        handshake = DEFAULT_COST_MODEL.cycles_tls_handshake
        assert off_c == pytest.approx(handshake)
        assert off_s == pytest.approx(handshake)
        assert soft_c > handshake * 2
        assert soft_s > handshake * 2

    def test_tx_offload_wire_identical_to_software(self):
        """The NIC must produce byte-identical ciphertext to software kTLS
        (the receiver cannot tell who encrypted)."""
        payload = bytes(i % 256 for i in range(100_000))
        outs = []
        for cfg in (SOFT, OFFLOAD_TX):
            pair = tls_pair(seed=42)
            received, _, _ = run_tls_transfer(pair, payload, cfg, SOFT)
            outs.append(received)
        assert outs[0] == outs[1] == payload

    @pytest.mark.parametrize("loss", [0.0, 0.02])
    def test_real_aes_gcm_suite_on_both_nics(self, loss):
        """The real cipher sees what the fast one sees: packet-sized views
        from the NIC walk (cut off the GHASH block grid) and, under loss,
        from TX context recovery and the partial-record fallback."""
        pair = tls_pair(seed=3, loss_to_server=loss)
        payload = bytes(i % 251 for i in range(60_000))
        received, _, server = run_tls_transfer(
            pair, payload, replace(OFFLOAD_TX, suite_name="aes-gcm"), replace(OFFLOAD_RX, suite_name="aes-gcm")
        )
        assert received == payload
        assert server.stats.auth_failures == 0 and server.stats.records_rx_full > 0
        if loss:
            assert server.stats.records_rx_partial > 0
            assert pair.client.nic.offload_stats()["tx_recoveries"] > 0
        else:
            assert server.stats.records_rx_full == server.stats.records_rx


class TestOneCopyBytePath:
    """What the application wrote is what the send buffer, the TX log and
    the segments reference; nothing in between concatenates a record."""

    def _send_once(self, client_cfg, message):
        pair = tls_pair()
        received = bytearray()
        seen = {}

        def on_accept(conn):
            KtlsSocket(pair.server, conn, "server", OFFLOAD_RX).on_data = received.extend

        pair.server.tcp.listen(443, on_accept)
        conn = pair.client.tcp.connect("server", 443)
        client = KtlsSocket(pair.client, conn, "client", client_cfg)

        def send() -> None:
            start = conn.send_buffer.end_seq
            assert client.send(message) == len(message)
            seen["body"] = conn.send_buffer.peek(sq.add(start, HEADER_LEN + 100), 1000)
            seen["state"] = client.l5o_get_tx_msgstate(sq.add(start, 9000))
            if isinstance(message, bytearray):
                message[:] = bytes(len(message))  # the caller reuses and then
                del message[100:]  # resizes its buffer: nothing may hold an export of it

        client.on_ready = send
        pair.sim.run(until=5.0)
        return bytes(received), seen

    def test_offloaded_record_references_the_applications_bytes(self):
        message = bytes(range(256)) * 128  # two records
        received, seen = self._send_once(OFFLOAD_TX, message)
        assert received == message
        assert seen["body"].obj is message  # a segment is a view of what the app wrote
        record = make_header(CONTENT_APPDATA, MAX_PLAINTEXT + TAG_LEN) + message[:MAX_PLAINTEXT] + bytes(TAG_LEN)
        assert seen["state"].wire_bytes == record and seen["state"].msg_index == 0

    def test_software_record_is_the_ciphers_output_untouched(self):
        message = bytes(range(256)) * 128
        received, seen = self._send_once(SOFT, message)
        assert received == message
        assert seen["state"] is None  # no TX context: nothing logged
        assert isinstance(seen["body"], memoryview) and seen["body"].obj is not message
        assert len(seen["body"].obj) == MAX_PLAINTEXT  # the ciphertext object itself, not header+body+tag

    @pytest.mark.parametrize("cfg", [SOFT, OFFLOAD_TX], ids=["software", "offload"])
    def test_a_mutable_buffer_is_snapshotted_and_left_free(self, cfg):
        message = bytes(range(256)) * 128
        received, _ = self._send_once(cfg, bytearray(message))
        assert received == message

    def test_a_mutable_buffer_is_copied_only_where_it_was_accepted(self, monkeypatch):
        """A short write must not snapshot the part it refuses: the
        caller retries with the remainder, and would pay O(n^2) bytes."""
        from repro.l5p.tls import ktls

        snapshots = []
        monkeypatch.setattr(ktls, "frozen", lambda piece: snapshots.append(len(piece)) or frozen(piece))
        pair = tls_pair()
        pair.server.tcp.listen(443, lambda conn: KtlsSocket(pair.server, conn, "server", SOFT))
        conn = pair.client.tcp.connect("server", 443)
        client = KtlsSocket(pair.client, conn, "client", OFFLOAD_TX)
        message = bytearray(64 * MAX_PLAINTEXT)
        accepted = []

        def send() -> None:
            conn.send_buffer.limit = len(conn.send_buffer) + MAX_PLAINTEXT + 100  # room for one record
            accepted.append(client.send(message))

        client.on_ready = send
        pair.sim.run(until=1.0)
        assert accepted == [MAX_PLAINTEXT] and snapshots == [MAX_PLAINTEXT]


class TestTlsUnderFaults:
    @pytest.mark.parametrize("loss", [0.01, 0.03])
    def test_rx_offload_survives_loss(self, loss):
        pair = tls_pair(seed=9, loss_to_server=loss)
        payload = bytes(i % 256 for i in range(400_000))
        received, _, server = run_tls_transfer(pair, payload, OFFLOAD_BOTH, OFFLOAD_BOTH, until=60.0)
        assert received == payload
        # Loss causes software fallbacks but offload must still engage.
        assert server.stats.records_rx_none + server.stats.records_rx_partial > 0

    def test_rx_offload_survives_reordering(self):
        pair = tls_pair(seed=10, reorder_to_server=0.03)
        payload = bytes(i % 256 for i in range(400_000))
        received, _, server = run_tls_transfer(pair, payload, OFFLOAD_BOTH, OFFLOAD_BOTH, until=60.0)
        assert received == payload

    def test_resync_engages_and_recovers(self):
        pair = tls_pair(seed=11, loss_to_server=0.05)
        payload = bytes(i % 256 for i in range(600_000))
        received, _, server = run_tls_transfer(pair, payload, OFFLOAD_BOTH, OFFLOAD_BOTH, until=60.0)
        assert received == payload
        stats = pair.server.nic.offload_stats()
        # With 5% loss the NIC must have exercised recovery machinery.
        assert stats["boundary_resyncs"] + stats["resyncs_completed"] > 0
        # And offloading kept working after recoveries.
        assert server.stats.records_rx_full > 0

    def test_tx_recovery_on_retransmissions(self):
        pair = tls_pair(seed=12, loss_to_server=0.03)
        payload = bytes(i % 256 for i in range(400_000))
        received, _, _ = run_tls_transfer(pair, payload, OFFLOAD_TX, SOFT, until=60.0)
        assert received == payload
        stats = pair.client.nic.offload_stats()
        assert stats["tx_recoveries"] > 0
        assert pair.client.nic.pcie.bytes_by_category["recovery"] > 0

    def test_ack_loss_with_tx_offload(self):
        pair = tls_pair(seed=13, loss_to_client=0.05)
        payload = bytes(i % 256 for i in range(200_000))
        received, _, _ = run_tls_transfer(pair, payload, OFFLOAD_TX, SOFT, until=60.0)
        assert received == payload


class TestSendfileVariants:
    def test_zerocopy_sendfile_cheaper_than_copy(self):
        payload = bytes(1_000_000)

        def cycles(cfg):
            pair = tls_pair()
            received = bytearray()

            def on_accept(conn):
                tls = KtlsSocket(pair.server, conn, "server", SOFT)
                tls.on_data = received.extend

            pair.server.tcp.listen(443, on_accept)
            conn = pair.client.tcp.connect("server", 443)
            client = KtlsSocket(pair.client, conn, "client", cfg)
            state = {"sent": 0}

            def feed():
                while state["sent"] < len(payload):
                    n = client.sendfile(payload[state["sent"] : state["sent"] + 64 * 1024])
                    if n == 0:
                        return
                    state["sent"] += n

            client.on_ready = feed
            client.on_writable = feed
            pair.sim.run(until=20.0)
            assert bytes(received) == payload
            return pair.client.cpu.total_cycles

        https = cycles(SOFT)
        offload = cycles(OFFLOAD_TX)
        offload_zc = cycles(TlsConfig(tx_offload=True, zerocopy_sendfile=True))
        assert offload < https
        assert offload_zc < offload

    def test_record_size_is_respected(self):
        pair = tls_pair()
        cfg = TlsConfig(record_size=2048)
        payload = bytes(100_000)
        received, client, _ = run_tls_transfer(pair, payload, cfg, SOFT)
        assert received == payload
        assert client.stats.records_tx >= 100_000 // 2048


class TestTlsValidation:
    def test_bad_role_rejected(self):
        pair = tls_pair()
        conn = pair.client.tcp.connect("server", 1)
        with pytest.raises(ValueError):
            KtlsSocket(pair.client, conn, "observer")

    def test_send_before_ready_raises(self):
        pair = tls_pair()
        conn = pair.client.tcp.connect("server", 1)
        tls = KtlsSocket(pair.client, conn, "client")
        with pytest.raises(RuntimeError):
            tls.send(b"early")

    def test_bad_record_size_rejected(self):
        with pytest.raises(ValueError):
            TlsConfig(record_size=0)
        with pytest.raises(ValueError):
            TlsConfig(record_size=1 << 20)
