"""The formal L5Protocol plugin contract and registry.

The paper's Table 3 offloadability preconditions are an *interface*,
not a property of TLS and NVMe-TCP specifically.  This module is that
interface's executable form: a protocol joins the simulator by
declaring an :class:`L5Protocol` — its magic-pattern spec, fixed header
length, adapter factory and Table-3 precondition checklist — and calling
:func:`register`.  (The Listing-2 upcalls are not declared: every stream
endpoint inherits all four from
:class:`~repro.l5p.base.StreamEndpoint`.)
Everything downstream resolves protocols through the registry:

- the driver refuses ``l5o_create`` for adapters whose ``name`` was
  never registered (a silicon image only contains parsers it was built
  with), see ``src/repro/core/driver.py``;
- endpoints construct adapters with :func:`make_adapter` instead of
  importing concrete classes;
- ``TestbedConfig(protocols=...)`` resolves and validates the set of
  protocols a scenario uses before the first packet moves.

Registration is *loud*: duplicate names, unsatisfied preconditions,
malformed magic specs, or factories whose adapters disagree with the
declaration all raise :class:`PluginError` at import time rather than
misparsing bytes at simulation time.  The companion static pass is the
SIM014 lint rule (``repro.analysis.rules.l5p_contract``); the
plugin-author guide is ``docs/l5p-plugins.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.types import L5pAdapter


class PluginError(Exception):
    """An L5Protocol declaration or lookup is invalid."""


@dataclass(frozen=True)
class MagicSpec:
    """The §3.3 magic pattern as the NIC's first-pass filter.

    ``pattern``/``mask`` describe a TCAM-style match over the first
    ``len(pattern)`` header bytes: a window ``w`` is a candidate when
    ``w[i] & mask[i] == pattern[i] & mask[i]`` for every position.  The
    mask is a *necessary* condition of the adapter's full
    ``check_magic`` (which may add range checks a mask cannot express),
    so it may accept a superset — never a subset — of real headers.

    ``confidence`` is the declared upper bound on the false-positive
    rate of the *full* ``check_magic`` against uniform random bytes;
    the seeded study in ``benchmarks/test_fig_l5p_plugins.py`` measures
    the actual rate and gates it against this bound.
    """

    pattern: bytes
    mask: bytes
    confidence: float

    def __post_init__(self):
        if not self.pattern:
            raise PluginError("MagicSpec.pattern must be non-empty")
        if len(self.pattern) != len(self.mask):
            raise PluginError(
                f"MagicSpec pattern/mask length mismatch: {len(self.pattern)} != {len(self.mask)}"
            )
        if not any(self.mask):
            raise PluginError("MagicSpec.mask matches everything (all zero bytes)")
        if not 0.0 < self.confidence <= 1.0:
            raise PluginError(f"MagicSpec.confidence must be in (0, 1], got {self.confidence}")

    def matches(self, window: bytes) -> bool:
        """TCAM match: True when ``window`` could start a header."""
        if len(window) < len(self.pattern):
            return False
        return all(
            window[i] & self.mask[i] == self.pattern[i] & self.mask[i]
            for i in range(len(self.pattern))
        )


@dataclass(frozen=True)
class Table3Preconditions:
    """The paper's Table 3 checklist, one field per row.

    Every field defaults to ``False`` so a plugin author must *assert*
    each precondition explicitly; :func:`register` rejects any protocol
    with an unsatisfied row — an L5P that fails Table 3 is not
    autonomously offloadable and has no business in the registry.
    """

    #: The transform neither inflates nor deflates message bytes, and
    #: trailers are replaced in place, never inserted (Table 3 row 1).
    size_preserving: bool = False
    #: The transform consumes arbitrary in-order byte ranges with
    #: constant-size per-message state (Table 3 row 2).
    incremental_constant_state: bool = False
    #: The full message length is derivable from a fixed-size plaintext
    #: header — the "length field" (Table 3 row 3).
    header_plaintext_length: bool = False
    #: Candidate headers are recognizable mid-stream via a magic
    #: pattern, enabling receive-side resynchronization (Table 3 row 3).
    magic_identifiable: bool = False
    #: Per-message dynamic state is derivable from the message ordinal
    #: (or explicit request/response state), so a lost context can be
    #: reconstructed from the upcalls (§3.2, §4.1).
    state_from_msg_index: bool = False
    #: Free-form qualifications ("RX only", "steering, not transform").
    notes: str = ""

    def missing(self) -> list[str]:
        """Names of unsatisfied preconditions (empty when offloadable)."""
        return [
            name
            for name in (
                "size_preserving",
                "incremental_constant_state",
                "header_plaintext_length",
                "magic_identifiable",
                "state_from_msg_index",
            )
            if not getattr(self, name)
        ]


@dataclass(frozen=True)
class L5Protocol:
    """One registered layer-5 protocol: the full plugin declaration."""

    name: str
    header_len: int
    magic: MagicSpec
    preconditions: Table3Preconditions
    #: Zero-arg-callable (kwargs optional) returning a fresh adapter.
    factory: Callable[..., L5pAdapter]
    description: str = ""
    #: Extra declaration data (e.g. trailer length, offloaded ops).
    info: dict = field(default_factory=dict, compare=False)

    def validate(self) -> None:
        """Check internal consistency; raises :class:`PluginError`."""
        if not self.name or self.name != self.name.lower():
            raise PluginError(f"protocol name must be non-empty lowercase, got {self.name!r}")
        bad = self.preconditions.missing()
        if bad:
            raise PluginError(
                f"protocol {self.name!r} does not satisfy Table 3: {', '.join(bad)} "
                "unsatisfied — it is not autonomously offloadable"
            )
        if self.header_len < len(self.magic.pattern):
            raise PluginError(
                f"protocol {self.name!r}: magic pattern ({len(self.magic.pattern)}B) "
                f"exceeds header_len ({self.header_len}B)"
            )
        probe = self.factory()
        if not isinstance(probe, L5pAdapter):
            raise PluginError(f"protocol {self.name!r}: factory returned {type(probe).__name__}")
        if probe.name != self.name:
            raise PluginError(
                f"protocol {self.name!r}: factory adapter is named {probe.name!r}"
            )
        if probe.header_len != self.header_len:
            raise PluginError(
                f"protocol {self.name!r}: declared header_len {self.header_len} but "
                f"adapter has {probe.header_len}"
            )
        if not 0 < probe.magic_len <= probe.header_len:
            raise PluginError(
                f"protocol {self.name!r}: adapter magic_len {probe.magic_len} outside "
                f"(0, header_len]"
            )
        if len(self.magic.pattern) != probe.magic_len:
            raise PluginError(
                f"protocol {self.name!r}: magic spec covers {len(self.magic.pattern)}B "
                f"but adapter scans {probe.magic_len}B windows"
            )


_REGISTRY: dict[str, L5Protocol] = {}

#: Modules whose import registers the built-in protocols.  Lazy so that
#: ``repro.core`` can import this module without dragging in every L5P.
_BUILTIN_MODULES = (
    "repro.l5p.tls.record",
    "repro.l5p.nvme_tcp.pdu",
    "repro.l5p.nvme_tls",
    "repro.l5p.rpc.frame",
    "repro.l5p.decomp",
    "repro.l5p.dpi",
    "repro.l5p.http2.frame",
    "repro.l5p.resp.frame",
)


def register(proto: L5Protocol) -> L5Protocol:
    """Validate and add ``proto``; duplicate names fail loudly."""
    proto.validate()
    if proto.name in _REGISTRY:
        raise PluginError(f"protocol {proto.name!r} is already registered")
    _REGISTRY[proto.name] = proto
    return proto


def unregister(name: str) -> None:
    """Remove a registration (test support); unknown names fail loudly."""
    if name not in _REGISTRY:
        raise PluginError(f"cannot unregister unknown protocol {name!r}")
    del _REGISTRY[name]


def ensure_builtins() -> None:
    """Import every built-in protocol module (each registers itself)."""
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get(name: str) -> L5Protocol:
    """Look up a protocol; unknown names raise with the known set."""
    ensure_builtins()
    proto = _REGISTRY.get(name)
    if proto is None:
        raise PluginError(
            f"unknown L5 protocol {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        )
    return proto


def require(name: str) -> L5Protocol:
    """Alias of :func:`get` used at driver context-install time."""
    return get(name)


def names() -> list[str]:
    ensure_builtins()
    return sorted(_REGISTRY)


def registered() -> list[L5Protocol]:
    ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def make_adapter(name: str, **kwargs: Any) -> L5pAdapter:
    """Construct a fresh adapter for ``name`` through its factory."""
    return get(name).factory(**kwargs)


def resolve(protocols) -> dict[str, L5Protocol]:
    """Resolve an iterable of names (``TestbedConfig.protocols``)."""
    out: dict[str, L5Protocol] = {}
    for name in protocols:
        if name in out:
            raise PluginError(f"protocol {name!r} listed twice")
        out[name] = get(name)
    return out


def magic_spec(name: str) -> Optional[MagicSpec]:
    """The registered magic spec, or None if the name is unknown (the
    RX walker uses this for per-protocol scan accounting without making
    registration a hard datapath dependency)."""
    proto = _REGISTRY.get(name)
    return proto.magic if proto is not None else None
