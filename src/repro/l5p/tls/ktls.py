"""Kernel TLS (kTLS) over a simulated TCP connection, with optional
autonomous NIC offload (§5.2).

Transmit: application bytes are framed into records.  In software mode
kTLS encrypts them; in offload mode it emits *plaintext* records with
dummy tags (the "wrong bytes") and keeps a sequence→record map so the
driver can recover NIC context on retransmission (the paper's ~200 LoC).

Receive: the stream is reassembled into records; per-packet ``decrypted``
bits decide between reusing NIC results, full software decryption, and
the costlier partial-record fallback (re-encrypt + authenticate).

The handshake is modelled, not cryptographically real: hello records
carry randoms, keys are derived deterministically on both sides, and a
fixed cycle cost is charged — the paper likewise leaves the handshake to
userspace OpenSSL and offloads only the record path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.types import Direction
from repro.crypto.sha1 import sha1
from repro.crypto.suite import get_cipher_suite
from repro.l5p import plugin
from repro.l5p.base import Run, StreamEndpoint
from repro.l5p.tls.fallback import decrypt_whole_record, recover_partial_record
from repro.l5p.tls.record import (
    CONTENT_APPDATA,
    CONTENT_HANDSHAKE,
    HEADER_LEN,
    MAX_PLAINTEXT,
    TAG_LEN,
    TlsDirectionState,
    make_header,
    record_nonce,
)
from repro.net.packet import Buffer, SkbMeta
from repro.tcp.buffer import frozen

_HELLO_LEN = 32
_DUMMY_TAG = bytes(TAG_LEN)  # what an offloaded record carries for the NIC to fill


@dataclass
class TlsConfig:
    """kTLS datapath configuration."""

    suite_name: str = "xor-gcm"
    tx_offload: bool = False
    rx_offload: bool = False
    zerocopy_sendfile: bool = False
    record_size: int = MAX_PLAINTEXT

    def __post_init__(self) -> None:
        if not 1 <= self.record_size <= MAX_PLAINTEXT:
            raise ValueError(f"record_size {self.record_size} out of range")


@dataclass
class TlsStats:
    records_tx: int = 0
    records_rx_full: int = 0  # entirely NIC-offloaded
    records_rx_partial: int = 0  # some packets offloaded
    records_rx_none: int = 0  # pure software
    bytes_tx: int = 0
    bytes_rx: int = 0
    auth_failures: int = 0
    offload_degraded: int = 0  # driver gave up on this flow's offload

    @property
    def records_rx(self) -> int:
        return self.records_rx_full + self.records_rx_partial + self.records_rx_none


class KtlsSocket(StreamEndpoint):
    """A TLS-protected byte stream over one TcpConnection."""

    protocol = "tls"

    def __init__(self, host, conn, role: str, config: Optional[TlsConfig] = None, adapter=None):
        if role not in ("client", "server"):
            raise ValueError(f"role must be client/server, got {role!r}")
        super().__init__(host)
        self.role = role
        self.config = config or TlsConfig()
        self.suite = get_cipher_suite(self.config.suite_name)
        self.adapter = adapter  # injected for NVMe-TLS stacking
        self.ready = False

        # Directional states, set at key derivation.
        self.tx_state: Optional[TlsDirectionState] = None
        self.rx_state: Optional[TlsDirectionState] = None
        self._my_random = host.sim.substream(f"tls:{role}:{conn.flow}").randbytes(_HELLO_LEN)
        self._peer_random: Optional[bytes] = None
        self._hello_sent = False
        self._tx_plain_sent = 0  # cumulative record-body bytes queued

        # Application callbacks.
        self.on_ready: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_record: Optional[Callable[[list[Run]], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None
        self.on_error: Optional[Callable[[str], None]] = None
        # Fired whenever a context is (re-)installed — at key
        # installation and after a NIC reset — so a stacked L5P
        # (NVMe/TLS) can pick up the handle.
        self.on_offload_installed: Optional[Callable[[Direction], None]] = None

        self.stats = TlsStats()

        self._attach(conn)
        if conn.state == "established":
            self._on_established()

    # ------------------------------------------------------------------
    # handshake
    # ------------------------------------------------------------------
    def _on_established(self) -> None:
        if self.role == "client":
            self._send_hello()

    def _send_hello(self) -> None:
        if self._hello_sent:
            return
        self._hello_sent = True
        self._transmit(make_header(CONTENT_HANDSHAKE, _HELLO_LEN + TAG_LEN) + self._my_random + b"\x00" * TAG_LEN)

    def _on_hello(self, body: bytes) -> None:
        self._peer_random = body[:_HELLO_LEN]
        if self.role == "server":
            self._derive_keys()
            self._send_hello()  # answers before any protected record
            self._go_ready()
        else:
            self._derive_keys()
            self._go_ready()

    def _derive_keys(self) -> None:
        if self.role == "client":
            client_random, server_random = self._my_random, self._peer_random
        else:
            client_random, server_random = self._peer_random, self._my_random
        master = client_random + server_random
        client = TlsDirectionState(
            suite=self.suite, key=sha1(b"ckey" + master)[:16], iv=sha1(b"civ" + master)[:12]
        )
        server = TlsDirectionState(
            suite=self.suite, key=sha1(b"skey" + master)[:16], iv=sha1(b"siv" + master)[:12]
        )
        if self.role == "client":
            self.tx_state, self.rx_state = client, server
        else:
            self.tx_state, self.rx_state = server, client
        self.core.charge(self.model.cycles_tls_handshake, "crypto")

    def _go_ready(self) -> None:
        # The protected stream starts here: record sequence numbers count
        # from zero under the new keys, so the hello records (and the one
        # being processed right now) are not message 0 of either context.
        self._tx.sent = self._rx_count = 0
        self._install(Direction.TX)
        self._install(Direction.RX)
        self.ready = True
        if self.on_ready:
            self.on_ready()

    def _offload(self, direction: Direction):
        state = self.tx_state if direction is Direction.TX else self.rx_state
        wanted = self.config.tx_offload if direction is Direction.TX else self.config.rx_offload
        if not wanted or state is None:
            return None
        return self.adapter or plugin.make_adapter("tls"), state

    def _installed(self, direction: Direction) -> None:
        if self.on_offload_installed:
            self.on_offload_installed(direction)

    def l5o_offload_degraded(self, direction: str, reason: str) -> None:
        super().l5o_offload_degraded(direction, reason)
        self.stats.offload_degraded = self.offload_degraded

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def send(self, data: Buffer) -> int:
        """Frame and queue application bytes; returns bytes consumed."""
        return self._send_common(data, sendfile=False)

    def sendfile(self, data: Buffer) -> int:
        """Transmit page-cache content (nginx's sendfile path)."""
        return self._send_common(data, sendfile=True)

    def _send_common(self, data: Buffer, sendfile: bool) -> int:
        if not self.ready:
            raise RuntimeError("TLS handshake not complete")
        data = memoryview(data)
        consumed = 0
        while consumed < len(data):
            body = data[consumed : consumed + self.config.record_size]
            if self.conn.send_space < len(body) + HEADER_LEN + TAG_LEN:
                break
            # An accepted body goes to the wire as a view of the caller's
            # immutable bytes, or as a snapshot of just that record.
            self._send_record(frozen(body), sendfile=sendfile)
            consumed += len(body)
        return consumed

    @property
    def send_space(self) -> int:
        """App-visible transmit budget (record overheads excluded)."""
        per_record = HEADER_LEN + TAG_LEN
        space = self.conn.send_space
        records = space // (self.config.record_size + per_record) + 1
        return max(0, space - records * per_record)

    def _send_record(self, body: memoryview, sendfile: bool) -> None:
        header = make_header(CONTENT_APPDATA, len(body) + TAG_LEN)
        idx = self._tx.sent
        pages = (len(body) + 4095) // 4096
        if self._tx_ctx is not None:
            # Offload: pass the "wrong bytes" down the stack (§3.1); the
            # core logs them for TX recovery.
            wire = (header, body, _DUMMY_TAG)
            if sendfile and self.config.zerocopy_sendfile:
                # NIC encrypts page-cache bytes on the way out: no copy.
                self.core.charge(self.model.cycles_sendfile_page * pages, "stack")
            else:
                self.core.charge(len(body) * self.host.llc.copy_cpb(), "copy")
        else:
            nonce = record_nonce(self.tx_state.iv, idx)
            ciphertext, tag = self.suite.seal(self.tx_state.key, nonce, body, aad=header)
            wire = (header, ciphertext, tag)
            crypto = self.model.cycles_crypto_setup + self.model.cpb_aes_gcm * (len(body) + TAG_LEN)
            self.core.charge(crypto, "crypto")
            if sendfile:
                # Software kTLS sendfile encrypts into a bounce buffer.
                self.core.charge(self.model.cycles_page_alloc * pages, "stack")
            else:
                self.core.charge(len(body) * self.host.llc.copy_cpb(), "copy")
        self.core.charge(self.model.cycles_record_tx, "l5p")
        self._transmit(wire, {"plain_offset": self._tx_plain_sent})
        self._tx_plain_sent += len(body)
        self.stats.records_tx += 1
        self.stats.bytes_tx += len(body)
        obs = self.host.sim.obs
        if obs is not None:
            kind = "offload" if self._tx_ctx is not None else "sw"
            obs.count(f"l5p.tls.tx.bytes.{kind}", len(body))

    def close(self) -> None:
        self.conn.close()

    def _writable(self) -> None:
        if self.ready and self.on_writable:
            self.on_writable()

    @property
    def tx_plain_unacked(self) -> int:
        """Plaintext-stream offset of the oldest un-acked record: what a
        stacked L5P may prune its own plaintext-keyed TX log up to."""
        head = self._tx.head()
        return head[3]["plain_offset"] if head else self._tx_plain_sent

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _total_len(self, header: bytes) -> int:
        # Only the length range: a corrupted type or version byte is an
        # authentication failure that costs one record, not a framing
        # error that kills the stream.
        fields = self.frame.unpack(header)
        spans = self.frame.spans(fields)
        if spans is None:
            raise ValueError(f"record length {fields.length} invalid")
        return HEADER_LEN + sum(spans)

    def _on_message(self, msg, idx: int) -> None:
        header = msg.cut(0, HEADER_LEN)
        body_len = msg.length - HEADER_LEN - TAG_LEN

        if not self.ready and header[0] == CONTENT_HANDSHAKE:
            self._on_hello(msg.cut(HEADER_LEN, body_len))
            return

        self.core.charge(self.model.cycles_record_rx, "l5p")
        nonce = record_nonce(self.rx_state.iv, idx)
        decrypted_flags = [run.meta.decrypted for run in msg.runs]
        obs = self.host.sim.obs
        # The record is copied out of the packets once: by the software
        # cipher that has to read it anyway, or for ``on_data``.
        plain: Optional[bytes] = None
        plain_runs: list[Run]
        if all(decrypted_flags):
            self.stats.records_rx_full += 1
            if obs is not None:
                obs.count("l5p.tls.rx.records.full")
                obs.count("l5p.tls.rx.bytes.offload", body_len)
            plain_runs = msg.slice_runs(HEADER_LEN, body_len)
            ok = True
        elif not any(decrypted_flags):
            self.stats.records_rx_none += 1
            if obs is not None:
                obs.count("l5p.tls.rx.records.none")
                obs.count("l5p.tls.rx.bytes.fallback", body_len)
            crypto = self.model.cycles_crypto_setup + self.model.cpb_aes_gcm * (body_len + TAG_LEN)
            self.core.charge(crypto, "crypto")
            ciphertext = msg.cut(HEADER_LEN, body_len)
            tag = msg.cut(HEADER_LEN + body_len, TAG_LEN)
            plain, ok = decrypt_whole_record(self.suite, self.rx_state.key, nonce, header, ciphertext, tag)
            plain_runs = [Run(plain, SkbMeta())]
        else:
            self.stats.records_rx_partial += 1
            if obs is not None:
                obs.count("l5p.tls.rx.records.partial")
                obs.count("l5p.tls.rx.bytes.fallback", body_len)
            body_runs = msg.slice_runs(HEADER_LEN, body_len)
            tag = msg.cut(HEADER_LEN + body_len, TAG_LEN)
            recovered = recover_partial_record(self.suite, self.rx_state.key, nonce, header, body_runs, tag)
            # Partial fallback re-encrypts NIC-decrypted runs: costlier
            # than plain decryption (§5.2).
            work = body_len + TAG_LEN + recovered.reencrypted_bytes
            self.core.charge(self.model.cycles_crypto_setup + self.model.cpb_aes_gcm * work, "crypto")
            plain, ok = recovered.plaintext, recovered.ok
            plain_runs = [Run(plain, SkbMeta())]
        if not ok:
            self.stats.auth_failures += 1
            self._fail(f"record {idx} failed authentication")
            return
        # Copy to the application (recvmsg).
        self.core.charge(body_len * self.host.llc.copy_cpb(), "stack")
        self.stats.bytes_rx += body_len
        if self.on_record:
            self.on_record(plain_runs)
        if self.on_data and body_len:
            self.on_data(plain if plain is not None else b"".join(r.data for r in plain_runs))
