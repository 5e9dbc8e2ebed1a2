"""Autonomous NIC offloads (ASPLOS 2021) — full-system reproduction.

Public API quick map:

- :class:`repro.harness.Testbed` / :class:`repro.harness.TestbedConfig`
  — build the paper's two-machine setup.
- :class:`repro.l5p.tls.KtlsSocket` / :class:`repro.l5p.tls.TlsConfig`
  — kernel TLS with autonomous crypto offload (§5.2).
- :class:`repro.l5p.nvme_tcp.NvmeTcpHost` /
  :class:`repro.l5p.nvme_tcp.NvmeTcpTarget` — NVMe-TCP with CRC and
  zero-copy placement offloads (§5.1); pass a TlsConfig for the
  combined NVMe-TLS offload (§5.3).
- :mod:`repro.experiments` — one runner per evaluation figure/table.

See DESIGN.md for the full system inventory.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
