"""Layer-5 protocols: kernel TLS, NVMe-TCP, their composition, and the
plugin protocols that prove the contract is generic.

Each L5P implements the adapter contract of :mod:`repro.core.types`
(paper Table 3) and registers an :class:`~repro.l5p.plugin.L5Protocol`
declaration with :mod:`repro.l5p.plugin`, making it autonomously
offloadable without the NIC terminating TCP: :mod:`repro.l5p.tls`
(§5.2), in-kernel NVMe-TCP in :mod:`repro.l5p.nvme_tcp` (§5.1, and
§5.3 when layered over TLS), the §7 RPC sketch (:mod:`repro.l5p.rpc`),
and the plugin-track protocols —
:mod:`repro.l5p.http2` (DATA-frame CRC + per-stream placement) and
:mod:`repro.l5p.resp` (inline-command steering).  The plugin-author
guide is ``docs/l5p-plugins.md``.
"""
